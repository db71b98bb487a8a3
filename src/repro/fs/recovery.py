"""Mount and recovery: the last valid checkpoint, then the log on top of it.

Recovery after an unclean shutdown loads the checkpoint the superblock names
(or, when that commit never fully landed, the previous generation's from the
other area) and replays the log entries of that generation.  What the device
holds is untrusted: it is read only through ``read_block``, and an entry that
decodes but is malformed fails recovery rather than crashing the mount.
:mod:`repro.fs.logentry` is the write side.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import (
    CorruptionError,
    FsInvalidArgumentError,
    FsNoEntryError,
    FsNotADirectoryError,
    RecoveryError,
)
from ..storage.block import BLOCK_SIZE
from . import layout
from .inode import ROOT_INO, FileType, Inode
from .paths import split_path


def _apply_logged_attrs(inode: Inode, attrs: dict) -> None:
    """Set what :func:`repro.fs.logentry._logged_attrs` recorded; a field the
    record lacks keeps the inode's value (for a new inode, the default)."""
    inode.nlink = int(attrs.get("nlink", inode.nlink))
    inode.allocated_blocks = int(attrs.get("allocated_blocks", inode.allocated_blocks))
    inode.symlink_target = attrs.get("symlink_target", inode.symlink_target)
    inode.xattrs = {k: v.encode("latin-1") for k, v in attrs.get("xattrs", {}).items()}
    # The size is always taken from the entry; buggy entry builders record
    # a stale size when they mean to "forget" to persist it.
    inode.size = int(attrs.get("size", inode.size))


class Recovery:
    """``mount`` and everything it runs."""

    def mount(self, *, inspect: bool = False) -> None:
        """Mount the device, running recovery if it was not cleanly unmounted.

        ``inspect=True`` is the mount of a crash state that will be looked
        at, probed with namespace operations and thrown away: it skips what
        only a later persistence operation would read — the commit tables (a
        walk and a ``to_meta()`` per inode; they cannot be built lazily
        instead, because the ``write`` check changes the tree before anything
        would ask for them) and a dirty-superblock write that would put back
        the bytes already there.  fsync, fdatasync and msync raise on such a
        mount until a ``sync()`` has rebuilt the tables.
        """
        superblock = self._read_superblock()
        # What the dirty-superblock write below would put there is there already.
        marked_dirty = not superblock.clean_unmount and superblock.fs_type == self.fs_type
        if superblock.fs_type and superblock.fs_type != self.fs_type:
            raise RecoveryError(
                f"device is formatted as {superblock.fs_type!r}, not {self.fs_type!r}",
                fs_type=self.fs_type,
            )
        try:
            payload = layout.read_checkpoint(self.device, superblock)
        except CorruptionError as exc:
            # A chunk's header sector belongs to this checkpoint but its
            # payload tail was torn mid-write: the commit record (the FUA
            # superblock) vouches for a checkpoint that is garbage.
            raise RecoveryError(str(exc), fs_type=self.fs_type)
        if payload is None:
            # The committed checkpoint never fully landed (a chunk still holds
            # an earlier generation's content): the commit was incomplete, so
            # recover from the newest checkpoint that *is* valid — like F2FS
            # picking between its two checkpoint packs by version.
            payload, superblock = self._fallback_checkpoint(superblock)
            marked_dirty = False
        self.generation = superblock.generation
        self._load_meta(payload)
        self.recovery_ran = False
        if not superblock.clean_unmount:
            entries = self._read_replay_entries()
            if entries:
                self._replay_log(entries)
                self.recovery_ran = True
        if inspect:
            self._committed_attrs, self._committed_paths = {}, {}
            self._start_commit_epoch()
            self._inspect_only = True
        else:
            self._reset_commit_tracking()
        self._reset_log_cursor()
        self.mounted = True
        # Mark the file system dirty on disk, exactly like a kernel mount does;
        # crash states therefore always require recovery.
        superblock.clean_unmount = False
        superblock.fs_type = self.fs_type
        if not (inspect and marked_dirty):
            self._write_superblock(superblock)

    def _fallback_checkpoint(self, superblock: layout.Superblock):
        """Recover the previous generation's checkpoint from the other area.

        The checkpoint named by the superblock was incomplete (some chunk
        never reached the platter), so the last *fully durable* metadata is
        the previous generation's checkpoint in the alternate area; the log
        entries of that generation then roll the state forward.  Returns the
        payload and the superblock rewritten to describe what was actually
        mounted (the mount-time dirty-superblock write persists it).
        """
        previous_generation = superblock.generation - 1
        fallback_area = "B" if superblock.checkpoint_area == "A" else "A"
        recovered = None
        if previous_generation >= 1:
            recovered = layout.read_checkpoint_area(
                self.device, fallback_area, previous_generation
            )
        if recovered is None:
            raise RecoveryError("checkpoint unreadable or torn", fs_type=self.fs_type)
        payload, blocks = recovered
        superblock.generation = previous_generation
        superblock.checkpoint_area = fallback_area
        superblock.checkpoint_blocks = blocks
        return payload, superblock

    def _read_replay_entries(self) -> List[dict]:
        """Entries recovery must replay on top of the mounted checkpoint."""
        return layout.read_log_entries(self.device, self.generation)

    def _load_meta(self, payload: dict) -> None:
        self.inodes = {
            int(ino): Inode.from_meta(meta) for ino, meta in payload.get("inodes", {}).items()
        }
        if ROOT_INO not in self.inodes:
            raise RecoveryError("checkpoint has no root inode", fs_type=self.fs_type)
        self.next_ino = int(payload.get("next_ino", ROOT_INO + 1))
        self.allocator = layout.DataAllocator.from_json(self.device.num_blocks, payload.get("allocator"))
        for inode in self.inodes.values():
            self._load_data_from_extents(inode)

    def _load_data_from_extents(self, inode: Inode) -> None:
        """Rebuild the in-memory data of ``inode`` from its on-disk block map."""
        if not inode.is_file:
            return
        data = bytearray(inode.size)
        for file_block, device_block in sorted(inode.block_map.items()):
            start = file_block * BLOCK_SIZE
            if start >= inode.size:
                continue
            chunk = self.device.read_block(device_block)
            end = min(start + BLOCK_SIZE, inode.size)
            data[start:end] = chunk[: end - start]
        inode.data = data

    # ------------------------------------------------------------------ log replay

    def _replay_log(self, entries: List[dict]) -> None:
        for entry in entries:
            try:
                self._apply_log_entry(entry)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                # A torn log block can still parse: its first sectors are the
                # new entry, the rest an older one's, and the splice happens
                # to be JSON.  What it decodes to is untrusted — a missing or
                # garbled field fails recovery, it does not crash the mount.
                raise RecoveryError(
                    f"log replay: malformed log entry ({type(exc).__name__}: {exc})",
                    fs_type=self.fs_type,
                    detail="log entry decodes but lacks or garbles required fields",
                ) from exc

    def _apply_log_entry(self, entry: dict) -> None:
        kind = entry.get("kind", "inode")
        if kind == "inode":
            self._apply_inode_entry(entry)
        elif kind == "journal_commit":
            self._apply_journal_commit(entry)
        else:
            raise RecoveryError(f"unknown log entry kind {kind!r}", fs_type=self.fs_type)

    def _ensure_parent_chain(self, parents: List[dict]) -> Optional[int]:
        """Create any missing ancestor directories recorded in a log entry."""
        parent_ino = ROOT_INO
        for record in parents:
            path = record["path"]
            ino = self._lookup(path)
            if ino is None:
                parent = self.inodes.get(parent_ino)
                if parent is None or not parent.is_dir:
                    return None
                new_ino = int(record["ino"]) or self._alloc_ino()
                if new_ino not in self.inodes:
                    self.inodes[new_ino] = Inode(new_ino, FileType.DIR)
                self._add_entry(parent, split_path(path)[1], new_ino)
                ino = new_ino
            parent_ino = ino
        return parent_ino

    def _replay_name(self, record: dict, ino: int, *, displace: bool) -> bool:
        """Bind the name a log record carries to ``ino``, recreating its
        ancestors; ``False`` when they cannot be.  ``displace`` first unbinds
        the name from another inode: the log says it belongs to ``ino`` now."""
        path = self._normalize(record["path"])
        parent_ino = self._ensure_parent_chain(record.get("parents", []))
        if parent_ino is None:
            return False
        parent = self.inodes[parent_ino]
        name = split_path(path)[1]
        if name:
            if displace and parent.children.get(name, ino) != ino:
                self._remove_entry(parent, name)
            self._add_entry(parent, name, ino)
        return True

    def _apply_inode_entry(self, entry: dict) -> None:
        ino = int(entry["ino"])
        ftype = FileType(entry["ftype"])
        inode = self.inodes.get(ino)
        if inode is None or inode.ftype is not ftype:
            inode = Inode(ino, ftype)
            self.inodes[ino] = inode
        _apply_logged_attrs(inode, entry.get("attrs", {}))

        if inode.is_file:
            extents = {int(k): int(v) for k, v in entry.get("extents", {}).items()}
            if entry.get("extent_mode", "merge") == "replace":
                inode.block_map = extents
            else:
                inode.block_map.update(extents)
            for dropped in entry.get("drop_blocks", []):
                inode.block_map.pop(int(dropped), None)
            self._load_data_from_extents(inode)

        self.next_ino = max(self.next_ino, ino + 1)

        # Removals first (this ordering is what makes the duplicate-removal
        # bug fail replay), then additions.
        for removed in entry.get("names_remove", []):
            removed = self._normalize(removed)
            target_ino = self._lookup_normalized(removed)
            if target_ino is None:
                if self._omits("tolerate_stale_removal"):
                    raise RecoveryError(
                        f"log replay: stale removal record for {removed!r} "
                        "(entry already removed)",
                        fs_type=self.fs_type,
                        detail="duplicate directory-entry removal during log replay",
                    )
                continue
            try:
                parent, name = self._parent_of_normalized(removed)
            except (FsNoEntryError, FsInvalidArgumentError, FsNotADirectoryError):
                continue
            self._remove_entry(parent, name)
            if self._omits("uncount_removed_entry") and parent.is_dir:
                # Replay removed the directory entry but failed to adjust the
                # directory item count, leaving a phantom entry behind.
                parent.size += 1
            removed_inode = self.inodes.get(target_ino)
            if removed_inode is not None and target_ino != ino:
                removed_inode.nlink -= 1
                if removed_inode.nlink <= 0 and not removed_inode.is_dir:
                    self.inodes.pop(target_ino, None)

        for record in entry.get("names_add", []):
            if not self._replay_name(record, ino, displace=True):
                raise RecoveryError(
                    f"log replay: cannot recreate parent directories for "
                    f"{self._normalize(record['path'])!r}",
                    fs_type=self.fs_type,
                )

        # Directory items dragged into the log for *other* inodes (only buggy
        # entry builders produce these).  They are applied only when the
        # referenced inode already exists in the replayed state.
        for record in entry.get("extra_adds", []):
            extra_ino = int(record.get("ino", 0))
            if extra_ino in self.inodes:
                self._replay_name(record, extra_ino, displace=False)

        if entry.get("dir_children") is not None and inode.is_dir:
            self._apply_dir_children(inode, entry)

    def _apply_dir_children(self, inode: Inode, entry: dict) -> None:
        children_map = entry.get("dir_children", {}) or {}
        embedded = entry.get("dir_children_embedded", {}) or {}
        new_children: Dict[str, int] = {}
        for name, record in children_map.items():
            child_ino = int(record["ino"])
            emb = embedded.get(name)
            if child_ino in self.inodes:
                if emb is not None:
                    # The embedded record carries attribute updates (e.g. the
                    # link count) for a child that already exists on disk.
                    self.inodes[child_ino].nlink = int(emb.get("nlink", self.inodes[child_ino].nlink))
            elif emb is not None:
                child = Inode(child_ino, FileType(emb["ftype"]))
                if child.is_dir:
                    # Directory children are recreated empty; their recorded
                    # size would claim entries that were not logged.
                    emb = {**emb, "size": 0}
                _apply_logged_attrs(child, emb)
                child.block_map = {int(k): int(v) for k, v in emb.get("extents", {}).items()}
                self.inodes[child_ino] = child
                self._load_data_from_extents(child)
            else:
                # Dir item without a matching inode: leave a stale entry.
                self.inodes[child_ino] = Inode(child_ino, FileType(record.get("ftype", "file")))
            new_children[name] = child_ino
            self.next_ino = max(self.next_ino, child_ino + 1)
        inode.children = new_children
        override = entry.get("dir_size_override")
        inode.size = int(override) if override is not None else len(new_children)

    def _apply_journal_commit(self, entry: dict) -> None:
        """Full-metadata journal commit (used by SeqFS)."""
        payload = entry.get("meta", {})
        if not payload:
            raise RecoveryError("empty journal commit", fs_type=self.fs_type)
        self._load_meta(payload)
