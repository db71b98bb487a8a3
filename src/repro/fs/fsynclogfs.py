"""The per-inode fsync log shared by LogFS and FlashFS.

Both persist individual inodes at fsync time by appending *log entries*
(metadata, extents, and names) to an on-disk log; a global ``sync`` writes a
full checkpoint and starts a new transaction generation.  btrfs's log tree
and F2FS's roll-forward node log both work this way, and it is where most of
the paper's crash-consistency bugs live: the injected mechanisms are omissions
in what a log entry records (here) or in how the shared machinery commits and
replays it (:data:`repro.fs.bugs.OMITTED_STEPS`).  Where the entries go on
disk is each file system's own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..storage.block import BLOCK_SIZE, blocks_needed
from .base import AbstractFileSystem
from .inode import Inode
from .paths import split_path


class FsyncLogFS(AbstractFileSystem):
    """A file system with per-inode fsync logging."""

    # ------------------------------------------------------------------ persistence

    def fsync(self, path: str) -> None:
        """Persist one file or directory via the fsync log."""
        self._require_mounted(persisting=True)
        inode = self._get_inode(path)
        self._flush_for_persist(inode)
        self._log_inode(inode, embed_children=inode.is_dir)

    def fdatasync(self, path: str) -> None:
        """Persist a file's data (and size) via the fsync log."""
        self._require_mounted(persisting=True)
        inode = self._get_inode(path)
        self._flush_for_persist(inode, datasync=True)
        self._log_inode(inode, datasync=True)

    def msync(self, path: str, offset: int = 0, length: Optional[int] = None) -> None:
        """Persist an mmap'ed range of a file."""
        self._require_mounted(persisting=True)
        inode = self._get_inode(path)
        if length is None:
            length = max(inode.size - offset, 0)
        msync_range = (offset, offset + length)
        self._flush_for_persist(inode, msync_range=msync_range)
        self._log_inode(inode, datasync=True, msync_range=msync_range)

    # ------------------------------------------------------------------ flushing policy

    def _flush_for_persist(self, inode: Inode, *, datasync: bool = False,
                           msync_range: Optional[Tuple[int, int]] = None) -> None:
        """Flush the data a persistence operation intends to write.

        The buggy mechanisms that "forget" to write part of the data are
        applied here, before the log entry is built from the block map.
        """
        if not inode.is_file:
            return
        only_blocks: Optional[Set[int]] = None
        skip_blocks: Set[int] = set()

        if msync_range is not None:
            start_block = msync_range[0] // BLOCK_SIZE
            end_block = max(msync_range[1] - 1, msync_range[0]) // BLOCK_SIZE
            only_blocks = set(range(start_block, end_block + 1))
            if (
                self.bugs.is_enabled("ranged_msync_loses_other_range")
                and inode.ino in self._logged_inos
            ):
                # The inode was already logged in this transaction; the buggy
                # ranged-sync path decides there is nothing left to write.
                only_blocks = set()

        if self.bugs.is_enabled("punch_hole_not_logged"):
            for op in self._data_ops_since_commit(inode.ino, {"punch_hole"}):
                first = op["offset"] // BLOCK_SIZE
                last = max(op["offset"] + op["length"] - 1, op["offset"]) // BLOCK_SIZE
                skip_blocks.update(range(first, last + 1))

        self._flush_inode_data(inode, only_blocks=only_blocks, skip_blocks=skip_blocks or None)
        if msync_range is None:
            inode.mmap_ranges = []

    # ------------------------------------------------------------------ bug hooks

    def _apply_entry_bugs(self, entry: dict, inode: Inode, names: Dict[int, List[str]], *,
                          datasync: bool, msync_range: Optional[Tuple[int, int]]) -> dict:
        bugs = self.bugs
        committed = self._committed_attrs.get(inode.ino, {}) or {}
        committed_paths = self._committed_paths.get(inode.ino, set())
        committed_size = int(committed.get("size", 0))

        if inode.is_file:
            new_links = set(self._new_links_since_commit(inode.ino))

            if bugs.is_enabled("link_not_logged") and new_links:
                kept = [
                    record for record in entry["names_add"]
                    if record["path"] in committed_paths or record["path"] not in new_links
                ]
                if kept:
                    entry["names_add"] = kept
                    entry["attrs"]["nlink"] = len(kept)

            if bugs.is_enabled("link_clears_logged_data") and new_links:
                entry["attrs"]["size"] = committed_size
                entry["extents"] = {}

            if (
                bugs.is_enabled("append_after_link_size")
                and inode.nlink > 1
                and committed_size > 0
                and inode.size > committed_size
            ):
                entry["attrs"]["size"] = committed_size
                limit = blocks_needed(committed_size)
                entry["extents"] = {
                    key: value for key, value in entry["extents"].items() if int(key) < limit
                }

            if bugs.is_enabled("falloc_keep_size_lost"):
                keep_ops = self._data_ops_since_commit(inode.ino, {"falloc"})
                if any(op.get("keep_size") for op in keep_ops):
                    entry["attrs"]["allocated_blocks"] = min(
                        inode.allocated_blocks, blocks_needed(inode.size)
                    )

            if bugs.is_enabled("xattr_remove_not_replayed"):
                removed = {
                    op["name"] for op in self._data_ops_since_commit(inode.ino, {"removexattr"})
                }
                if removed:
                    merged = dict(committed.get("xattrs", {}))
                    merged.update(entry["attrs"]["xattrs"])
                    entry["attrs"]["xattrs"] = merged

            if (
                bugs.is_enabled("ranged_msync_loses_other_range")
                and msync_range is not None
                and inode.ino in self._logged_inos
            ):
                entry["extents"] = {}

        if bugs.is_enabled("rename_dest_not_logged"):
            removals = self._other_removals_from_parents(inode, names)
            if removals:
                merged = list(entry["names_remove"])
                for path in removals:
                    if path not in merged:
                        merged.append(path)
                entry["names_remove"] = merged

        if bugs.is_enabled("rename_source_not_removed"):
            entry["extra_adds"] = self._cross_directory_additions(inode, names)

        if bugs.is_enabled("unlink_recreate_replay_fail"):
            duplicated = list(entry["names_remove"])
            for record in entry["names_add"]:
                path = record["path"]
                if self._path_reused_since_commit(path, inode.ino):
                    # The directory item and the inode reference both record
                    # the stale removal: two removal records for one entry.
                    while duplicated.count(path) < 2:
                        duplicated.append(path)
            entry["names_remove"] = duplicated

        if bugs.is_enabled("fsync_parent_committed_name"):
            entry["names_add"] = [
                self._rewrite_to_committed_parent(record) for record in entry["names_add"]
            ]

        if inode.is_dir and entry.get("dir_children") is not None:
            entry = self._apply_dir_entry_bugs(entry, inode)

        return entry

    # -- helpers for the bug hooks ------------------------------------------------

    def _path_reused_since_commit(self, path: str, ino: int) -> bool:
        """True if ``path`` had a committed binding to a different inode that
        was unlinked or renamed away since the last commit."""
        for other_ino, paths in self._committed_paths.items():
            if other_ino == ino or path not in paths:
                continue
            for op in self._namespace_ops:
                if op.kind == "remove" and op.path == path and op.ino == other_ino:
                    return True
        return False

    def _cross_directory_additions(self, inode: Inode, names: Dict[int, List[str]]) -> list:
        """Committed inodes moved *into* the fsynced inode's directories from
        elsewhere since the last commit (their source removal is not logged)."""
        parent_dirs = {split_path(path)[0] for path in names.get(inode.ino, ())}
        additions = []
        for op in self._namespace_ops:
            if op.kind != "add" or op.cause != "rename" or op.ino == inode.ino:
                continue
            dest_parent = split_path(op.path)[0]
            if dest_parent not in parent_dirs:
                continue
            if op.counterpart is None:
                continue
            if split_path(op.counterpart)[0] == dest_parent:
                continue
            if op.ino not in self._committed_attrs:
                continue
            additions.append({
                "path": op.path,
                "ino": op.ino,
                "parents": self._parent_chain(op.path),
            })
        return additions

    def _rewrite_to_committed_parent(self, record: dict) -> dict:
        """Rewrite a name record to use the committed names of its ancestors."""
        path = record["path"]
        rewritten_parents = []
        changed = False
        prefix_new = ""
        for parent in record.get("parents", []):
            name = split_path(parent["path"])[1]
            parent_ino = int(parent.get("ino") or 0)
            committed_names = sorted(self._committed_paths.get(parent_ino, set()))
            if committed_names and parent["path"] not in committed_names:
                new_path = committed_names[0]
                changed = True
            else:
                new_path = f"{prefix_new}/{name}" if prefix_new else name
            prefix_new = new_path
            rewritten_parents.append({"path": new_path, "ino": parent_ino})
        if not changed:
            return record
        leaf = split_path(path)[1]
        new_path = f"{prefix_new}/{leaf}" if prefix_new else leaf
        return {"path": new_path, "parents": rewritten_parents}

    def _apply_dir_entry_bugs(self, entry: dict, inode: Inode) -> dict:
        bugs = self.bugs
        committed = self._committed_attrs.get(inode.ino, {}) or {}
        committed_children = set((committed.get("children") or {}).keys())
        children = entry.get("dir_children") or {}
        new_children = {name for name in children if name not in committed_children}

        if bugs.is_enabled("symlink_empty_after_fsync"):
            for name, emb in (entry.get("dir_children_embedded") or {}).items():
                if emb.get("ftype") == "symlink":
                    emb["symlink_target"] = ""
                    emb["size"] = 0

        if bugs.is_enabled("dir_fsync_missing_new_children") and new_children:
            descendant_logged = self._descendant_logged(inode)
            new_dir_children = {
                name for name in new_children
                if children[name].get("ftype") in ("dir",)
            }
            drop: Set[str] = set()
            if descendant_logged:
                drop = set(new_children)
            elif new_dir_children:
                drop = new_dir_children
            if drop:
                entry["dir_children"] = {
                    name: rec for name, rec in children.items() if name not in drop
                }
                entry["dir_children_embedded"] = {
                    name: rec for name, rec in (entry.get("dir_children_embedded") or {}).items()
                    if name not in drop
                }

        if bugs.is_enabled("dir_replay_wrong_size") and new_children and committed_children:
            entry["dir_size_override"] = len(entry["dir_children"]) + len(committed_children)

        return entry

    def _descendant_logged(self, inode: Inode) -> bool:
        """True if any descendant of ``inode`` was already logged this transaction."""
        stack = list(inode.children.values())
        seen: Set[int] = set()
        while stack:
            ino = stack.pop()
            if ino in seen:
                continue
            seen.add(ino)
            if ino in self._logged_inos:
                return True
            child = self.inodes.get(ino)
            if child is not None and child.is_dir:
                stack.extend(child.children.values())
        return False
