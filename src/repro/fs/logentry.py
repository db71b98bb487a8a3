"""The fsync log, write side: what logging one inode puts on disk.

Builds the entry an fsync of an inode appends (attributes, extents, names to
add and remove, and for a directory its children), finds the displaced inodes
that must be logged with it, appends between the two commit barriers, and
folds each entry into the committed tables.  Shared by the file systems that
log per inode (LogFS ≈ btrfs, FlashFS ≈ F2FS, VeriFS ≈ FSCQ); SeqFS (≈ ext4)
appends whole-metadata journal commits through the same cursor instead.
:mod:`repro.fs.recovery` is the read side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import FsNoSpaceError
from . import layout
from .inode import ROOT_INO, Inode
from .paths import split_path


def _logged_attrs(inode: Inode) -> dict:
    """The attributes a log entry records of an inode: ``entry["attrs"]``, the
    fields of an embedded directory child, and what the committed table then
    knows of either."""
    return {
        "size": inode.size,
        "nlink": inode.nlink,
        "allocated_blocks": inode.allocated_blocks,
        "symlink_target": inode.symlink_target,
        "xattrs": {k: v.decode("latin-1") for k, v in inode.xattrs.items()},
    }


class LogEntries:
    """Per-inode log entries: build, append, account."""

    def _parent_chain(self, path: str) -> List[dict]:
        """Ancestor directories of ``path`` as ``{"path", "ino"}`` records."""
        chain: List[dict] = []
        prefix = ""
        ino: Optional[int] = ROOT_INO
        # One walk down from the root: each step is what looking the prefix
        # up from scratch would resolve to.
        for part in self._normalize(path).split("/")[:-1]:
            prefix = f"{prefix}/{part}" if prefix else part
            directory = self.inodes.get(ino)
            ino = directory.children.get(part) if directory is not None and directory.is_dir else None
            chain.append({"path": prefix, "ino": ino if ino is not None else 0})
        return chain

    def _build_log_entry(self, inode: Inode, names: Dict[int, List[str]], *,
                         datasync: bool = False,
                         msync_range: Optional[Tuple[int, int]] = None,
                         embed_children: bool = False) -> dict:
        """Build the log entry an fsync of ``inode`` writes.

        ``names`` is :meth:`paths_by_inode` of the tree being logged.  The
        base implementation is the *correct* behaviour; subclasses apply bug
        mechanisms by overriding :meth:`_apply_entry_bugs`.
        """
        committed = self._committed_attrs.get(inode.ino, {})
        committed_paths = self._committed_paths.get(inode.ino, set())
        current_paths = names.get(inode.ino, [])

        # Callers (the concrete persistence operations) are responsible for
        # flushing whatever data they intend to persist before building the
        # entry; the entry simply records the inode's current block map.
        extents: Dict[int, int] = inode.block_map if inode.is_file else {}

        names_add = [{"path": path, "parents": self._parent_chain(path)} for path in current_paths]
        names_remove = sorted(committed_paths - set(current_paths))

        entry = {
            "kind": "inode",
            "ino": inode.ino,
            "ftype": inode.ftype.value,
            "attrs": _logged_attrs(inode),
            "extents": {str(k): v for k, v in extents.items()},
            "extent_mode": "merge",
            "drop_blocks": [],
            "names_add": names_add,
            "names_remove": names_remove,
            "extra_adds": [],
            "datasync": datasync,
            "dir_children": None,
            "dir_children_embedded": {},
            "dir_size_override": None,
            "committed_size": int(committed.get("size", 0)) if committed else 0,
        }

        if inode.is_dir and embed_children:
            children_map = {}
            embedded = {}
            for name, child_ino in sorted(inode.children.items()):
                child = self.inodes.get(child_ino)
                if child is None:
                    continue
                children_map[name] = {"ino": child_ino, "ftype": child.ftype.value}
                committed_child = self._committed_attrs.get(child_ino)
                needs_embedding = (
                    committed_child is None and child_ino not in self._logged_inos
                ) or (
                    committed_child is not None
                    and int(committed_child.get("nlink", 1)) != child.nlink
                )
                if needs_embedding:
                    child_extents = child.block_map if child.is_file else {}
                    embedded[name] = {
                        "ino": child_ino,
                        "ftype": child.ftype.value,
                        "extents": {str(k): v for k, v in child_extents.items()},
                        **_logged_attrs(child),
                    }
            entry["dir_children"] = children_map
            entry["dir_children_embedded"] = embedded
            committed_children = committed.get("children", {}) if committed else {}
            entry["committed_children_count"] = len(committed_children)

        return self._apply_entry_bugs(entry, inode, names, datasync=datasync,
                                      msync_range=msync_range)

    def _apply_entry_bugs(self, entry: dict, inode: Inode, names: Dict[int, List[str]], *,
                          datasync: bool, msync_range: Optional[Tuple[int, int]]) -> dict:
        """Hook for concrete file systems to inject bug mechanisms."""
        return entry

    def _other_removals_from_parents(self, inode: Inode,
                                     names: Dict[int, List[str]]) -> List[str]:
        """Committed directory entries removed from the inode's parent dirs.

        These are the "directory deletion items" a btrfs-style fsync drags
        into the log.  Only used by buggy configurations.
        """
        parent_dirs = {split_path(path)[0] for path in names.get(inode.ino, ())}
        removals: List[str] = []
        for op in self._namespace_ops:
            if op.kind != "remove" or op.ino == inode.ino:
                continue
            if split_path(op.path)[0] not in parent_dirs:
                continue
            if op.path not in self._committed_paths.get(op.ino, set()):
                continue
            removals.append(op.path)
        return removals

    def _collect_recursive_targets(self, inode: Inode,
                                   names: Dict[int, List[str]]) -> List[Inode]:
        """Inodes that must be logged together with ``inode`` for correctness.

        If a path now bound to ``inode`` (or about to be dropped from one of
        its directories) previously belonged to a *different* inode that still
        exists, that displaced inode must also be logged so that its content
        remains reachable after replay (this is what the btrfs fixes for the
        rename-related bugs do).
        """
        targets: List[Inode] = []
        seen: Set[int] = set()

        def _add_target(ino: int) -> None:
            if ino != inode.ino and ino not in seen and ino in self.inodes:
                seen.add(ino)
                targets.append(self.inodes[ino])

        own_paths = names.get(inode.ino, [])
        candidate_paths: Set[str] = set(own_paths)
        if inode.is_dir:
            dir_path = own_paths[0] if own_paths else ""
            for name in inode.children:
                candidate_paths.add(f"{dir_path}/{name}" if dir_path else name)
        for path in candidate_paths:
            for other_ino, paths in self._committed_paths.items():
                if other_ino == inode.ino or other_ino in seen:
                    continue
                if path in paths and other_ino in self.inodes:
                    if path not in names.get(other_ino, ()):
                        _add_target(other_ino)

        if inode.is_dir:
            # Children renamed *into* this directory since the last commit
            # still have their old name on disk: log them so replay removes
            # the stale source entry (rename atomicity).
            for child_ino in inode.children.values():
                committed = self._committed_paths.get(child_ino, set())
                if committed and committed - set(names.get(child_ino, ())):
                    _add_target(child_ino)
            # Inodes whose committed name lives in this directory but which
            # were renamed elsewhere since the commit must be logged at their
            # new location, or persisting the directory would lose them.
            dir_prefixes = set(own_paths) | self._committed_paths.get(inode.ino, set())
            for other_ino, committed in self._committed_paths.items():
                if other_ino == inode.ino or other_ino not in self.inodes:
                    continue
                current = names.get(other_ino, ())
                for path in committed:
                    if split_path(path)[0] in dir_prefixes and path not in current:
                        _add_target(other_ino)
                        break

        return targets

    def _append_log_entry(self, entry: dict) -> None:
        self.log_seq += 1
        try:
            self.next_log_block = layout.write_log_entry(
                self.device, entry, self.generation, self.log_seq, self.next_log_block
            )
        except FsNoSpaceError:
            # Log area exhausted: force a full commit, exactly like a real
            # file system falling back to a transaction commit.
            self.sync()

    def _update_committed_for_entry(self, entry: dict) -> None:
        ino = entry["ino"]
        self._logged_inos.add(ino)
        attrs = dict(self._committed_attrs.get(ino, {}))
        attrs.update(entry["attrs"], ino=ino, ftype=entry["ftype"])
        if entry.get("dir_children") is not None:
            attrs["children"] = {name: rec["ino"] for name, rec in entry["dir_children"].items()}
        self._committed_attrs[ino] = attrs
        self._committed_paths[ino] = {rec["path"] for rec in entry["names_add"]}
        # Logging an inode also records its ancestor directories on disk.
        for record in entry["names_add"]:
            for parent in record.get("parents", []):
                parent_ino = int(parent.get("ino") or 0)
                if parent_ino:
                    self._committed_paths.setdefault(parent_ino, set()).add(parent["path"])
        # A directory entry also puts its children (and any embedded child
        # inodes) on disk; record their committed names so later fsyncs know
        # which stale entries a rename leaves behind.
        if entry.get("dir_children") is not None and entry["names_add"]:
            dir_path = entry["names_add"][0]["path"]
            for name, record in entry["dir_children"].items():
                child_ino = int(record["ino"])
                child_path = f"{dir_path}/{name}" if dir_path else name
                self._committed_paths.setdefault(child_ino, set()).add(child_path)
                embedded_child = (entry.get("dir_children_embedded") or {}).get(name)
                if embedded_child is not None and child_ino not in self._committed_attrs:
                    # Everything the record says of the child but where its data lives.
                    self._committed_attrs[child_ino] = {
                        key: value for key, value in embedded_child.items() if key != "extents"
                    }
        for removed in entry["names_remove"]:
            for other_ino, paths in self._committed_paths.items():
                if other_ino != ino:
                    paths.discard(removed)

    def _log_inode(self, inode: Inode, *, datasync: bool = False,
                   msync_range: Optional[Tuple[int, int]] = None,
                   embed_children: bool = False, recurse: bool = True) -> List[dict]:
        """Write the log entries an fsync of ``inode`` produces."""
        # Pre-commit barrier: the data (and any earlier log writes) must be
        # stable before the entries that reference them.
        if not self._omits("commit_barrier"):
            self._device_flush()
        entries: List[dict] = []
        # Logging writes the device and the commit tables, never the tree:
        # one walk names every inode for every entry built below.
        names = self.paths_by_inode()
        # The "correct" behaviour (mirroring the kernel fixes) also logs
        # inodes displaced by renames and unlink/recreate combinations.
        if recurse and not self._omits("recursive_logging"):
            for target in self._collect_recursive_targets(inode, names):
                target_entry = self._build_log_entry(target, names, embed_children=target.is_dir)
                self._append_log_entry(target_entry)
                self._update_committed_for_entry(target_entry)
                entries.append(target_entry)
        entry = self._build_log_entry(
            inode, names, datasync=datasync, msync_range=msync_range,
            embed_children=embed_children,
        )
        self._append_log_entry(entry)
        self._update_committed_for_entry(entry)
        entries.append(entry)
        # Post-commit barrier: a correct persistence operation does not return
        # until its log entries have left the device cache.  Buggy file
        # systems that skip it leave the entries in-flight at the crash point.
        if not self._omits("commit_seal"):
            self._device_flush(sync=True)
        return entries
