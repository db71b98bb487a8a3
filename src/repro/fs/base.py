"""Abstract simulated file system.

``AbstractFileSystem`` implements the POSIX-ish operation surface the paper's
workloads exercise (Table 4's fourteen core operations plus the persistence
operations), an in-memory state (page cache + metadata), and an on-disk image
maintained through the layout helpers in :mod:`repro.fs.layout`.

The crucial property for crash testing is that *operations only modify the
in-memory state*; the on-disk image changes only when a persistence operation
(fsync, fdatasync, msync, sync) or a checkpoint writes it out.  Concrete file
systems decide *what* gets written at each persistence point — that is where
the injected bug mechanisms live.

The class also provides the generic fsync-log machinery (building log entries
for an inode, replaying them at mount time) shared by the log-structured file
systems (LogFS ≈ btrfs, FlashFS ≈ F2FS, VeriFS ≈ FSCQ).  SeqFS (≈ ext4)
overrides the persistence operations to use whole-metadata journal commits
instead.
"""

from __future__ import annotations

from sys import getsizeof
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import (
    CorruptionError,
    FsExistsError,
    FsInvalidArgumentError,
    FsIsADirectoryError,
    FsNoEntryError,
    FsNoSpaceError,
    FsNotADirectoryError,
    FsNotEmptyError,
    FsNotMountedError,
    FsReadOnlyError,
    RecoveryError,
)
from ..storage.block import BLOCK_SIZE, blocks_needed
from . import layout
from .bugs import BugConfig
from .inode import ROOT_INO, FileState, FileType, Inode, NamespaceOp
from .memo import BoundedMemo

#: normalised paths by the path string they were derived from
_NORMALIZED = BoundedMemo("normalized-paths", 48 << 10)


def normalize_path(path: str) -> str:
    """The one spelling a path is filed under: by the file system, by the
    oracle's ``logical_state()`` keys and by the persisted-set tracker."""
    normalized = _NORMALIZED.get(path)
    if normalized is None:
        text = path or ""
        normalized = "/".join(
            part for part in text.strip().strip("/").split("/") if part not in ("", ".")
        )
        _NORMALIZED.put(path, normalized, getsizeof(text) + getsizeof(normalized))
    return normalized


class AbstractFileSystem:
    """Base class for the simulated file systems."""

    fs_type = "abstract"

    def __init__(self, device, bugs: Optional[BugConfig] = None):
        self.device = device
        self.bugs = bugs if bugs is not None else BugConfig.all_for(self.fs_type)
        self.mounted = False
        self.inodes: Dict[int, Inode] = {}
        self.next_ino = ROOT_INO + 1
        self.allocator = layout.DataAllocator(device.num_blocks)
        self.generation = 0
        self._reset_log_cursor()
        self.recovery_ran = False

        # Commit tracking: what the on-disk image knows about each inode.
        self._committed_attrs: Dict[int, dict] = {}
        self._committed_paths: Dict[int, Set[str]] = {}
        self._namespace_ops: List[NamespaceOp] = []
        self._ns_seq = 0
        self._data_ops: Dict[int, List[dict]] = {}
        self._logged_inos: Set[int] = set()
        #: mounted with ``inspect=True``: the committed tables above were not
        #: built, so nothing that reads them (fsync, fdatasync, msync) may run
        self._inspect_only = False

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def mkfs(cls, device, bugs: Optional[BugConfig] = None) -> "AbstractFileSystem":
        """Format ``device`` with a fresh, empty file system (not mounted)."""
        fs = cls(device, bugs)
        root = Inode(ROOT_INO, FileType.DIR)
        fs.inodes = {ROOT_INO: root}
        fs.generation = 0
        fs._write_checkpoint(clean=True)
        fs.mounted = False
        return fs

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

    def unmount(self, safe: bool = True) -> None:
        """Unmount.  A *safe* unmount flushes everything and marks the image clean."""
        self._require_mounted()
        if safe:
            self.sync()
            superblock = self._current_superblock()
            superblock.clean_unmount = True
            self._write_superblock(superblock)
        self.mounted = False

    def fork(self, device) -> "AbstractFileSystem":
        """An independent copy of the in-memory state, attached to ``device``.

        Copies exactly the containers operations mutate in place; everything
        else is rebound or written once, so the twin shares it.  The list is
        complete for every subclass: ``tests/test_fs_fork.py`` walks ``vars()``
        and fails on a mutable object reachable from both sides.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.device = device
        twin.inodes = {ino: inode.clone() for ino, inode in self.inodes.items()}
        twin.allocator = layout.DataAllocator(self.allocator.device_blocks,
                                              self.allocator.next_block)
        twin._committed_attrs = dict(self._committed_attrs)
        twin._committed_paths = {ino: set(paths) for ino, paths in self._committed_paths.items()}
        twin._namespace_ops = list(self._namespace_ops)
        twin._data_ops = {ino: list(ops) for ino, ops in self._data_ops.items()}
        twin._logged_inos = set(self._logged_inos)
        return twin

    def fork_bytes(self) -> int:
        """What a spine store is charged for holding a fork of this state.

        File data plus a fixed charge per record (inode, committed attrs,
        journalled op) and per entry (name, extent, xattr, committed path):
        never below the fork's pickled length, which is what a spill writes,
        and within twice it (the charges are fitted to the seq-1 and seq-2
        spaces; ``tests/test_fs_fork.py`` pins both bounds).
        """
        inodes = self.inodes.values()
        records = (len(self.inodes) + len(self._committed_attrs) + len(self._namespace_ops)
                   + sum(map(len, self._data_ops.values())))
        entries = (sum(len(i.children) + len(i.block_map) + len(i.xattrs) for i in inodes)
                   + sum(map(len, self._committed_paths.values())))
        return (768 + sum(len(name) + 3 for name in self.bugs.enabled)
                + sum(len(i.data) for i in inodes) + 96 * records + 32 * entries)

    # -- layout hooks (subclasses reroute these to their own on-disk areas) --

    def _read_superblock(self) -> layout.Superblock:
        return layout.read_superblock(self.device)

    def _write_superblock(self, superblock: layout.Superblock) -> None:
        layout.write_superblock(self.device, superblock)

    def _read_replay_entries(self) -> List[dict]:
        """Entries recovery must replay on top of the mounted checkpoint."""
        return layout.read_log_entries(self.device, self.generation)

    def _reset_log_cursor(self) -> None:
        """Reset the append cursor after mkfs, mount, or a checkpoint."""
        self.next_log_block = layout.LOG_START
        self.log_seq = 0

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

    def _current_superblock(self) -> layout.Superblock:
        superblock = self._read_superblock()
        superblock.fs_type = self.fs_type
        return superblock

    def _require_mounted(self, *, persisting: bool = False) -> None:
        """Every operation starts here; the per-file persistence operations
        pass ``persisting=True`` because they read the commit tables."""
        if not self.mounted:
            raise FsNotMountedError(f"{self.fs_type} is not mounted")
        if persisting and self._inspect_only:
            raise FsReadOnlyError(
                f"{self.fs_type} is mounted for inspection: the commit tables a "
                "persistence operation reads were never built (sync() builds them)"
            )

    # ------------------------------------------------------------------ path helpers

    # Every operation normalises its path argument once, at the top, and hands
    # the result to the ``*_normalized`` helpers; the plain-named helpers take
    # a path as the caller spelt it.

    _normalize = staticmethod(normalize_path)

    def _lookup(self, path: str) -> Optional[int]:
        return self._lookup_normalized(self._normalize(path))

    def _lookup_normalized(self, path: str) -> Optional[int]:
        if path == "":
            return ROOT_INO
        ino = ROOT_INO
        for part in path.split("/"):
            inode = self.inodes.get(ino)
            if inode is None or not inode.is_dir:
                return None
            ino = inode.children.get(part)
            if ino is None:
                return None
        return ino

    def _get_inode(self, path: str) -> Inode:
        return self._get_inode_normalized(self._normalize(path), path)

    def _get_inode_normalized(self, path: str, spelt: str) -> Inode:
        ino = self._lookup_normalized(path)
        if ino is None or ino not in self.inodes:
            raise FsNoEntryError(f"no such file or directory: {spelt!r}")
        return self.inodes[ino]

    def _parent_of_normalized(self, path: str) -> Tuple[Inode, str]:
        if path == "":
            raise FsInvalidArgumentError("the root directory has no parent")
        if "/" in path:
            parent_path, name = path.rsplit("/", 1)
        else:
            parent_path, name = "", path
        parent_ino = self._lookup_normalized(parent_path)
        if parent_ino is None:
            raise FsNoEntryError(f"no such directory: {parent_path!r}")
        parent = self.inodes[parent_ino]
        if not parent.is_dir:
            raise FsNotADirectoryError(f"{parent_path!r} is not a directory")
        return parent, name

    def _paths_of(self, ino: int) -> List[str]:
        """All paths currently bound to ``ino`` (hard links give several)."""
        if ino == ROOT_INO:
            return [""]
        paths: List[str] = []
        for path, bound_ino in self._walk():
            if bound_ino == ino:
                paths.append(path)
        return sorted(paths)

    def paths_by_inode(self) -> Dict[int, List[str]]:
        """:meth:`paths_of_inode` of every reachable inode at once, keyed by
        inode number, from one walk."""
        names: Dict[int, List[str]] = {}
        for path, ino in self._walk():
            names.setdefault(ino, []).append(path)
        for paths in names.values():
            paths.sort()
        names[ROOT_INO] = [""]
        return names

    def _walk(self) -> Iterable[Tuple[str, int]]:
        """Yield ``(path, ino)`` for every entry reachable from the root."""
        stack: List[Tuple[str, int]] = [("", ROOT_INO)]
        seen_dirs: Set[int] = set()
        while stack:
            path, ino = stack.pop()
            inode = self.inodes.get(ino)
            if inode is None:
                continue
            if path != "":
                yield path, ino
            if inode.is_dir and ino not in seen_dirs:
                seen_dirs.add(ino)
                for name, child in sorted(inode.children.items()):
                    child_path = f"{path}/{name}" if path else name
                    stack.append((child_path, child))

    def _alloc_ino(self) -> int:
        ino = self.next_ino
        self.next_ino += 1
        return ino

    # ------------------------------------------------------------------ change tracking

    def _record_ns(self, kind: str, path: str, ino: int, cause: str, counterpart: Optional[str] = None) -> None:
        """Journal a namespace change; both paths arrive normalised."""
        self._ns_seq += 1
        self._namespace_ops.append(
            NamespaceOp(kind=kind, path=path, ino=ino, cause=cause,
                        counterpart=counterpart or None, seq=self._ns_seq)
        )

    def _record_data_op(self, ino: int, **op) -> None:
        self._data_ops.setdefault(ino, []).append(op)

    def _add_entry(self, parent: Inode, name: str, ino: int) -> None:
        if name not in parent.children:
            parent.size += 1
        parent.children[name] = ino
        parent.dirty_metadata = True

    def _remove_entry(self, parent: Inode, name: str) -> None:
        if name in parent.children:
            parent.size = max(parent.size - 1, 0)
            del parent.children[name]
        parent.dirty_metadata = True

    def _reset_commit_tracking(self) -> None:
        """Synchronize commit tracking with the current in-memory state."""
        self._committed_attrs = {ino: inode.to_meta() for ino, inode in self.inodes.items()}
        self._committed_paths = {}
        for path, ino in self._walk():
            self._committed_paths.setdefault(ino, set()).add(path)
        self._committed_paths.setdefault(ROOT_INO, set()).add("")
        self._start_commit_epoch()
        self._inspect_only = False

    def _start_commit_epoch(self) -> None:
        """Empty the journals of what changed since the last commit."""
        self._namespace_ops = []
        self._data_ops = {}
        self._logged_inos = set()

    def committed_paths(self, ino: int) -> Set[str]:
        return set(self._committed_paths.get(ino, set()))

    def committed_attrs(self, ino: int) -> Optional[dict]:
        attrs = self._committed_attrs.get(ino)
        return dict(attrs) if attrs is not None else None

    # ------------------------------------------------------------------ file operations

    def creat(self, path: str) -> int:
        """Create an empty regular file (like ``open(path, O_CREAT)`` + close)."""
        self._require_mounted()
        return self._creat_normalized(self._normalize(path), path)

    def _creat_normalized(self, path: str, spelt: str) -> int:
        parent, name = self._parent_of_normalized(path)
        if name in parent.children:
            existing = self.inodes[parent.children[name]]
            if existing.is_dir:
                raise FsIsADirectoryError(f"{spelt!r} is a directory")
            return existing.ino
        ino = self._alloc_ino()
        inode = Inode(ino, FileType.FILE)
        inode.dirty_metadata = True
        self.inodes[ino] = inode
        self._add_entry(parent, name, ino)
        self._record_ns("add", path, ino, "creat")
        return ino

    def mkdir(self, path: str, parents: bool = False) -> int:
        self._require_mounted()
        path = self._normalize(path)
        if parents and "/" in path:
            prefix = ""
            for part in path.split("/")[:-1]:
                prefix = f"{prefix}/{part}" if prefix else part
                if self._lookup_normalized(prefix) is None:
                    self.mkdir(prefix)
        parent, name = self._parent_of_normalized(path)
        if name in parent.children:
            raise FsExistsError(f"{path!r} already exists")
        ino = self._alloc_ino()
        inode = Inode(ino, FileType.DIR)
        inode.dirty_metadata = True
        self.inodes[ino] = inode
        self._add_entry(parent, name, ino)
        self._record_ns("add", path, ino, "mkdir")
        return ino

    def symlink(self, target: str, linkpath: str) -> int:
        self._require_mounted()
        normalized = self._normalize(linkpath)
        parent, name = self._parent_of_normalized(normalized)
        if name in parent.children:
            raise FsExistsError(f"{linkpath!r} already exists")
        ino = self._alloc_ino()
        inode = Inode(ino, FileType.SYMLINK)
        inode.symlink_target = target
        inode.size = len(target)
        inode.dirty_metadata = True
        self.inodes[ino] = inode
        self._add_entry(parent, name, ino)
        self._record_ns("add", normalized, ino, "symlink")
        return ino

    def link(self, src: str, dst: str) -> None:
        """Create a hard link ``dst`` pointing at the inode of ``src``."""
        self._require_mounted()
        src_normalized = self._normalize(src)
        dst_normalized = self._normalize(dst)
        inode = self._get_inode_normalized(src_normalized, src)
        if inode.is_dir:
            raise FsIsADirectoryError("hard links to directories are not allowed")
        parent, name = self._parent_of_normalized(dst_normalized)
        if name in parent.children:
            raise FsExistsError(f"{dst!r} already exists")
        inode.nlink += 1
        inode.dirty_metadata = True
        self._add_entry(parent, name, inode.ino)
        self._record_ns("add", dst_normalized, inode.ino, "link", counterpart=src_normalized)

    def unlink(self, path: str) -> None:
        self._require_mounted()
        normalized = self._normalize(path)
        parent, name = self._parent_of_normalized(normalized)
        if name not in parent.children:
            raise FsNoEntryError(f"no such file: {path!r}")
        ino = parent.children[name]
        inode = self.inodes.get(ino)
        if inode is None:
            # Stale directory entry (buggy recovery): drop the entry itself.
            self._remove_entry(parent, name)
            self._record_ns("remove", normalized, ino, "unlink")
            return
        if inode.is_dir:
            raise FsIsADirectoryError(f"{path!r} is a directory; use rmdir")
        self._remove_entry(parent, name)
        inode.nlink -= 1
        inode.dirty_metadata = True
        if inode.nlink <= 0:
            self.inodes.pop(ino, None)
        self._record_ns("remove", normalized, ino, "unlink")

    def rmdir(self, path: str) -> None:
        self._require_mounted()
        path = self._normalize(path)
        if path == "":
            raise FsInvalidArgumentError("cannot remove the root directory")
        parent, name = self._parent_of_normalized(path)
        if name not in parent.children:
            raise FsNoEntryError(f"no such directory: {path!r}")
        ino = parent.children[name]
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise FsNotADirectoryError(f"{path!r} is not a directory")
        if inode.children or inode.size > 0:
            raise FsNotEmptyError(f"directory {path!r} is not empty")
        self._remove_entry(parent, name)
        self.inodes.pop(ino, None)
        self._record_ns("remove", path, ino, "rmdir")

    def remove(self, path: str) -> None:
        """Remove a file or an (empty) directory — the generic ``remove`` op."""
        inode = self._get_inode(path)
        if inode.is_dir:
            self.rmdir(path)
        else:
            self.unlink(path)

    def rename(self, src: str, dst: str) -> None:
        self._require_mounted()
        src = self._normalize(src)
        dst = self._normalize(dst)
        inode = self._get_inode_normalized(src, src)
        src_parent, src_name = self._parent_of_normalized(src)
        dst_parent, dst_name = self._parent_of_normalized(dst)
        if dst == src:
            return
        replaced_ino: Optional[int] = None
        if dst_name in dst_parent.children and dst_parent.children[dst_name] not in self.inodes:
            # Stale destination entry: simply replace it.
            self._remove_entry(dst_parent, dst_name)
        if dst_name in dst_parent.children:
            target = self.inodes[dst_parent.children[dst_name]]
            if target.ino == inode.ino:
                return
            if target.is_dir:
                if not inode.is_dir:
                    raise FsIsADirectoryError(f"{dst!r} is a directory")
                if target.children:
                    raise FsNotEmptyError(f"directory {dst!r} is not empty")
            elif inode.is_dir:
                raise FsNotADirectoryError(f"{dst!r} is not a directory")
            replaced_ino = target.ino
            self._remove_entry(dst_parent, dst_name)
            target.nlink -= 1
            if target.nlink <= 0:
                self.inodes.pop(target.ino, None)
            self._record_ns("remove", dst, replaced_ino, "rename_overwrite")
        self._remove_entry(src_parent, src_name)
        self._add_entry(dst_parent, dst_name, inode.ino)
        inode.dirty_metadata = True
        self._record_ns("remove", src, inode.ino, "rename", counterpart=dst)
        self._record_ns("add", dst, inode.ino, "rename", counterpart=src)

    # ------------------------------------------------------------------ data operations

    def _get_file_for_write(self, path: str, create: bool = True) -> Inode:
        normalized = self._normalize(path)
        ino = self._lookup_normalized(normalized)
        if ino is None:
            if not create:
                raise FsNoEntryError(f"no such file: {path!r}")
            ino = self._creat_normalized(normalized, path)
        inode = self.inodes[ino]
        if inode.is_dir:
            raise FsIsADirectoryError(f"{path!r} is a directory")
        return inode

    def _extend_data(self, inode: Inode, new_size: int) -> None:
        if new_size > len(inode.data):
            inode.data.extend(bytes(new_size - len(inode.data)))

    def write(self, path: str, offset: int, data: bytes) -> int:
        """Buffered write (page-cache only until a persistence operation)."""
        self._require_mounted()
        inode = self._get_file_for_write(path)
        end = offset + len(data)
        extend = end > inode.size
        self._extend_data(inode, max(end, inode.size))
        inode.data[offset:end] = data
        inode.size = max(inode.size, end)
        inode.allocated_blocks = max(inode.allocated_blocks, blocks_needed(inode.size))
        inode.dirty_data = True
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="write", offset=offset, length=len(data), extend=extend)
        return len(data)

    def dwrite(self, path: str, offset: int, data: bytes) -> int:
        """Direct-I/O write: data goes to the device immediately, bypassing the cache."""
        self._require_mounted()
        inode = self._get_file_for_write(path)
        end = offset + len(data)
        extend = end > inode.size
        self._extend_data(inode, max(end, inode.size))
        inode.data[offset:end] = data
        inode.size = max(inode.size, end)
        inode.allocated_blocks = max(inode.allocated_blocks, blocks_needed(inode.size))
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="dwrite", offset=offset, length=len(data), extend=extend)
        # Direct I/O writes the affected blocks through to the device now.
        first_block = offset // BLOCK_SIZE
        last_block = (end - 1) // BLOCK_SIZE if end > offset else first_block
        self._flush_inode_data(inode, only_blocks=set(range(first_block, last_block + 1)))
        return len(data)

    def mwrite(self, path: str, offset: int, data: bytes) -> int:
        """Write through an mmap'ed region (flushed only by msync or sync)."""
        self._require_mounted()
        inode = self._get_file_for_write(path, create=False)
        end = offset + len(data)
        if end > inode.size:
            raise FsInvalidArgumentError("mmap write beyond the mapped file size")
        inode.data[offset:end] = data
        inode.dirty_data = True
        inode.mmap_ranges.append((offset, end))
        self._record_data_op(inode.ino, kind="mwrite", offset=offset, length=len(data), extend=False)
        return len(data)

    def falloc(self, path: str, offset: int, length: int, keep_size: bool = False) -> None:
        """``fallocate``: reserve blocks, optionally without changing the size."""
        self._require_mounted()
        inode = self._get_file_for_write(path)
        end = offset + length
        inode.allocated_blocks = max(inode.allocated_blocks, blocks_needed(end))
        if not keep_size and end > inode.size:
            self._extend_data(inode, end)
            inode.size = end
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="falloc", offset=offset, length=length, keep_size=keep_size)

    def fzero(self, path: str, offset: int, length: int, keep_size: bool = False) -> None:
        """``fallocate(ZERO_RANGE)``: zero a range, optionally keeping the size."""
        self._require_mounted()
        inode = self._get_file_for_write(path)
        end = offset + length
        if keep_size:
            zero_end = min(end, inode.size)
        else:
            self._extend_data(inode, end)
            inode.size = max(inode.size, end)
            zero_end = end
        if zero_end > offset:
            self._extend_data(inode, zero_end)
            inode.data[offset:zero_end] = bytes(zero_end - offset)
        inode.allocated_blocks = max(inode.allocated_blocks, blocks_needed(end))
        inode.dirty_data = True
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="fzero", offset=offset, length=length, keep_size=keep_size)

    def fpunch(self, path: str, offset: int, length: int) -> None:
        """``fallocate(PUNCH_HOLE)``: zero a range without changing the size."""
        self._require_mounted()
        inode = self._get_file_for_write(path, create=False)
        end = min(offset + length, inode.size)
        if end > offset:
            inode.data[offset:end] = bytes(end - offset)
        inode.dirty_data = True
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="punch_hole", offset=offset, length=length)

    def truncate(self, path: str, size: int) -> None:
        self._require_mounted()
        inode = self._get_file_for_write(path)
        if size < inode.size:
            del inode.data[size:]
        else:
            self._extend_data(inode, size)
        inode.size = size
        inode.allocated_blocks = max(blocks_needed(size), 0)
        inode.block_map = {fbi: blk for fbi, blk in inode.block_map.items() if fbi < blocks_needed(size)}
        inode.dirty_data = True
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="truncate", offset=0, length=size)

    def setxattr(self, path: str, name: str, value: bytes) -> None:
        self._require_mounted()
        inode = self._get_inode(path)
        inode.xattrs[name] = bytes(value)
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="setxattr", name=name)

    def removexattr(self, path: str, name: str) -> None:
        self._require_mounted()
        inode = self._get_inode(path)
        if name not in inode.xattrs:
            raise FsNoEntryError(f"no xattr {name!r} on {path!r}")
        del inode.xattrs[name]
        inode.dirty_metadata = True
        self._record_data_op(inode.ino, kind="removexattr", name=name)

    # ------------------------------------------------------------------ read API

    def exists(self, path: str) -> bool:
        return self._lookup(path) is not None

    def read(self, path: str) -> bytes:
        inode = self._get_inode(path)
        if inode.is_dir:
            raise FsIsADirectoryError(f"{path!r} is a directory")
        return bytes(inode.data[: inode.size])

    def listdir(self, path: str) -> List[str]:
        inode = self._get_inode(path)
        if not inode.is_dir:
            raise FsNotADirectoryError(f"{path!r} is not a directory")
        return sorted(inode.children)

    def readlink(self, path: str) -> str:
        inode = self._get_inode(path)
        if not inode.is_symlink:
            raise FsInvalidArgumentError(f"{path!r} is not a symlink")
        return inode.symlink_target or ""

    def getxattr(self, path: str, name: str) -> bytes:
        inode = self._get_inode(path)
        if name not in inode.xattrs:
            raise FsNoEntryError(f"no xattr {name!r} on {path!r}")
        return inode.xattrs[name]

    def stat(self, path: str) -> FileState:
        normalized = self._normalize(path)
        return FileState.from_inode(normalized, self._get_inode_normalized(normalized, path))

    def lookup_state(self, path: str) -> Optional[FileState]:
        normalized = self._normalize(path)
        inode = self.inodes.get(self._lookup_normalized(normalized))
        if inode is None:
            # A directory entry pointing at a missing inode (possible after a
            # buggy recovery) reads as nonexistent, like a stale dentry would.
            return None
        return FileState.from_inode(normalized, inode)

    def logical_state(self) -> Dict[str, FileState]:
        """Observable state of every path (the oracle's and checker's view)."""
        state: Dict[str, FileState] = {"": FileState.from_inode("", self.inodes[ROOT_INO])}
        for path, ino in self._walk():
            state[path] = FileState.from_inode(path, self.inodes[ino])
        return state

    def paths_of_inode(self, path: str) -> List[str]:
        """All current hard-link paths of the inode bound at ``path``."""
        inode = self._get_inode(path)
        return self._paths_of(inode.ino)

    # ------------------------------------------------------------------ data flushing

    def _flush_inode_data(self, inode: Inode, only_blocks: Optional[Set[int]] = None,
                          skip_blocks: Optional[Set[int]] = None) -> Dict[int, int]:
        """Write the inode's in-memory data to data blocks on the device.

        ``only_blocks`` restricts the flush to the given file-block indices;
        ``skip_blocks`` omits the given indices (used by bug mechanisms that
        "forget" to write part of the data).  Returns the resulting block map.
        """
        if not inode.is_file:
            return dict(inode.block_map)
        total_blocks = blocks_needed(len(inode.data))
        for file_block in range(total_blocks):
            if only_blocks is not None and file_block not in only_blocks:
                continue
            if skip_blocks is not None and file_block in skip_blocks:
                continue
            if file_block not in inode.block_map:
                inode.block_map[file_block] = self.allocator.allocate(1)[0]
            start = file_block * BLOCK_SIZE
            chunk = bytes(inode.data[start:start + BLOCK_SIZE])
            self._device_write(inode.block_map[file_block], chunk, metadata=False, tag="data")
        if only_blocks is None and skip_blocks is None:
            # Partial flushes (direct I/O, ranged msync, buggy skips) leave the
            # rest of the data dirty.
            inode.dirty_data = False
        return dict(inode.block_map)

    def _device_write(self, block: int, data: bytes, *, metadata: bool, tag: str,
                      fua: bool = False) -> None:
        self.device.write_block(block, data, metadata=metadata, fua=fua, tag=tag)

    def _device_flush(self, *, sync: bool = False) -> None:
        """Issue a cache-flush barrier to the device.

        Everything written before the flush is durable once it completes; the
        crash planners treat writes after the last flush as in-flight (they
        may be lost or reordered by a crash).
        """
        self.device.flush(sync=sync)

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

    # ------------------------------------------------------------------ checkpoints

    def _serialize_meta(self) -> dict:
        return {
            "inodes": {str(ino): inode.to_meta() for ino, inode in self.inodes.items()},
            "next_ino": self.next_ino,
            "allocator": self.allocator.to_json(),
        }

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

    def _write_checkpoint(self, clean: bool = False) -> None:
        """Flush all data and write a full metadata checkpoint + superblock."""
        for inode in self.inodes.values():
            if inode.is_file and inode.dirty_data:
                self._flush_inode_data(inode)
            inode.mmap_ranges = []
        meta = self._serialize_meta()
        # When the commit skips the flush before the FUA superblock (the
        # missing_flush_before_fua mechanism), an *incomplete* commit becomes
        # reachable: a crash can drop a checkpoint block whose old-generation
        # header recovery detects, falling back to the previous checkpoint.
        # Journal the full metadata tree first so that fallback rolls the
        # state forward instead of losing what sync() promised durable — the
        # bug's only observable effect is then the sector-torn block a
        # header check cannot catch.  A correct commit flushes the checkpoint
        # blocks before the superblock, so the fallback is unreachable and
        # the entry would be pure write-stream inflation.  Written directly
        # (not via _append_log_entry, whose no-space fallback is a recursive
        # sync()): a full log must not abort the commit, because the
        # checkpoint itself is what frees the log.
        if self._skip_flush_before_fua() and self.generation >= 1:
            self.log_seq += 1
            try:
                self.next_log_block = layout.write_log_entry(
                    self.device,
                    {"kind": "journal_commit", "meta": meta, "datasync": False},
                    self.generation, self.log_seq, self.next_log_block,
                )
            except FsNoSpaceError:
                pass
        # Data must be stable before the checkpoint that references it, and
        # the checkpoint blocks before the (FUA) superblock that names them.
        self._device_flush()
        self.generation += 1
        area = "A" if self.generation % 2 == 1 else "B"
        blocks = layout.write_checkpoint(self.device, meta, self.generation, area)
        if not self._skip_flush_before_fua():
            self._device_flush()
        superblock = layout.Superblock(
            fs_type=self.fs_type,
            generation=self.generation,
            checkpoint_area=area,
            checkpoint_blocks=blocks,
            clean_unmount=clean,
        )
        self._write_superblock(superblock)
        self._reset_log_cursor()

    def sync(self) -> None:
        """Global sync: flush everything and commit a new checkpoint."""
        self._require_mounted()
        self._write_checkpoint(clean=False)
        self._reset_commit_tracking()

    # The per-file persistence operations are file-system specific.

    def fsync(self, path: str) -> None:
        raise NotImplementedError

    def fdatasync(self, path: str) -> None:
        raise NotImplementedError

    def msync(self, path: str, offset: int = 0, length: Optional[int] = None) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ fsync-log machinery

    def _other_removals_from_parents(self, inode: Inode,
                                     names: Dict[int, List[str]]) -> List[str]:
        """Committed directory entries removed from the inode's parent dirs.

        These are the "directory deletion items" a btrfs-style fsync drags
        into the log.  Only used by buggy configurations.
        """
        parent_dirs: Set[str] = set()
        for path in names.get(inode.ino, ()):
            parent = path.rsplit("/", 1)[0] if "/" in path else ""
            parent_dirs.add(parent)
        removals: List[str] = []
        for op in self._namespace_ops:
            if op.kind != "remove" or op.ino == inode.ino:
                continue
            parent = op.path.rsplit("/", 1)[0] if "/" in op.path else ""
            if parent not in parent_dirs:
                continue
            if op.path not in self._committed_paths.get(op.ino, set()):
                continue
            removals.append(op.path)
        return removals

    def _committed_parent_path(self, path: str) -> str:
        """Resolve ``path`` using committed (pre-rename) names of ancestor dirs."""
        path = self._normalize(path)
        if "/" not in path:
            return path
        parent_path, name = path.rsplit("/", 1)
        parent_ino = self._lookup_normalized(parent_path)
        if parent_ino is None:
            return path
        committed = sorted(self._committed_paths.get(parent_ino, set()))
        if committed and parent_path not in committed:
            return f"{committed[0]}/{name}" if committed[0] else name
        return path

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

    def _new_links_since_commit(self, ino: int) -> List[str]:
        return [
            op.path for op in self._namespace_ops
            if op.kind == "add" and op.ino == ino and op.cause == "link"
        ]

    def _data_ops_since_commit(self, ino: int, kinds: Optional[Set[str]] = None) -> List[dict]:
        ops = self._data_ops.get(ino, [])
        if kinds is None:
            return list(ops)
        return [op for op in ops if op.get("kind") in kinds]

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
        extents: Dict[int, int] = dict(inode.block_map) if inode.is_file else {}

        names_add = []
        for path in current_paths:
            names_add.append({"path": path, "parents": self._parent_chain(path)})
        names_remove = sorted(committed_paths - set(current_paths))

        entry = {
            "kind": "inode",
            "ino": inode.ino,
            "ftype": inode.ftype.value,
            "attrs": {
                "size": inode.size,
                "nlink": inode.nlink,
                "allocated_blocks": inode.allocated_blocks,
                "symlink_target": inode.symlink_target,
                "xattrs": {k: v.decode("latin-1") for k, v in inode.xattrs.items()},
            },
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
                    child_extents = dict(child.block_map) if child.is_file else {}
                    embedded[name] = {
                        "ino": child_ino,
                        "ftype": child.ftype.value,
                        "size": child.size,
                        "nlink": child.nlink,
                        "allocated_blocks": child.allocated_blocks,
                        "symlink_target": child.symlink_target,
                        "extents": {str(k): v for k, v in child_extents.items()},
                        "xattrs": {k: v.decode("latin-1") for k, v in child.xattrs.items()},
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
                    parent = path.rsplit("/", 1)[0] if "/" in path else ""
                    if parent in dir_prefixes and path not in current:
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
        attrs.update(
            {
                "ino": ino,
                "ftype": entry["ftype"],
                "size": entry["attrs"]["size"],
                "nlink": entry["attrs"]["nlink"],
                "allocated_blocks": entry["attrs"]["allocated_blocks"],
                "symlink_target": entry["attrs"]["symlink_target"],
                "xattrs": dict(entry["attrs"]["xattrs"]),
            }
        )
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
                    self._committed_attrs[child_ino] = {
                        "ino": child_ino,
                        "ftype": embedded_child.get("ftype", "file"),
                        "size": int(embedded_child.get("size", 0)),
                        "nlink": int(embedded_child.get("nlink", 1)),
                        "allocated_blocks": int(embedded_child.get("allocated_blocks", 0)),
                        "symlink_target": embedded_child.get("symlink_target"),
                        "xattrs": dict(embedded_child.get("xattrs", {})),
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
        # stable before the entries that reference them.  File systems with a
        # missing-barrier bug skip it along with the post-commit flush.
        if not self._skip_commit_barrier():
            self._device_flush()
        entries: List[dict] = []
        # Logging writes the device and the commit tables, never the tree:
        # one walk names every inode for every entry built below.
        names = self.paths_by_inode()
        if recurse and not self._skip_recursive_logging():
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
        if not self._skip_commit_seal():
            self._device_flush(sync=True)
        return entries

    def _skip_recursive_logging(self) -> bool:
        """Buggy file systems that do not log displaced inodes override this."""
        return False

    def _skip_commit_barrier(self) -> bool:
        """Buggy file systems that omit the pre-commit flush override this."""
        return False

    def _skip_commit_seal(self) -> bool:
        """Whether the post-commit flush that seals the entries is omitted.

        Defaults to the pre-commit answer: a file system that skips one
        barrier typically skips both.  Overridden by bugs that fence the
        data correctly but let the commit record ride the cache.
        """
        return self._skip_commit_barrier()

    def _skip_flush_before_fua(self) -> bool:
        """Whether the checkpoint commit omits the flush before the FUA superblock.

        The FUA superblock is durable the moment it completes, but without the
        preceding cache flush it can commit a checkpoint whose blocks are
        still in flight.  Keyed off the bug config directly: the mechanism
        only exists in configs of file systems it applies to.
        """
        return self.bugs.is_enabled("missing_flush_before_fua")

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

    def _strict_name_removal(self) -> bool:
        """Whether replay fails when a recorded removal has no matching entry."""
        return False

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
                name = path.rsplit("/", 1)[-1]
                self._add_entry(parent, name, new_ino)
                ino = new_ino
            parent_ino = ino
        return parent_ino

    def _apply_inode_entry(self, entry: dict) -> None:
        ino = int(entry["ino"])
        ftype = FileType(entry["ftype"])
        inode = self.inodes.get(ino)
        if inode is None or inode.ftype is not ftype:
            inode = Inode(ino, ftype)
            self.inodes[ino] = inode
        attrs = entry.get("attrs", {})
        inode.nlink = int(attrs.get("nlink", inode.nlink))
        inode.allocated_blocks = int(attrs.get("allocated_blocks", inode.allocated_blocks))
        inode.symlink_target = attrs.get("symlink_target", inode.symlink_target)
        inode.xattrs = {k: v.encode("latin-1") for k, v in attrs.get("xattrs", {}).items()}
        # The size is always taken from the entry; buggy entry builders record
        # a stale size when they mean to "forget" to persist it.
        inode.size = int(attrs.get("size", inode.size))

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
                if self._strict_name_removal():
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
            self._post_replay_removal(parent)
            removed_inode = self.inodes.get(target_ino)
            if removed_inode is not None and target_ino != ino:
                removed_inode.nlink -= 1
                if removed_inode.nlink <= 0 and not removed_inode.is_dir:
                    self.inodes.pop(target_ino, None)

        for record in entry.get("names_add", []):
            path = self._normalize(record["path"])
            parent_ino = self._ensure_parent_chain(record.get("parents", []))
            if parent_ino is None:
                raise RecoveryError(
                    f"log replay: cannot recreate parent directories for {path!r}",
                    fs_type=self.fs_type,
                )
            parent = self.inodes[parent_ino]
            name = path.rsplit("/", 1)[-1] if path else ""
            if not name:
                continue
            existing = parent.children.get(name)
            if existing is not None and existing != ino:
                # The log says this name belongs to `ino` now.
                self._remove_entry(parent, name)
            self._add_entry(parent, name, ino)

        # Directory items dragged into the log for *other* inodes (only buggy
        # entry builders produce these).  They are applied only when the
        # referenced inode already exists in the replayed state.
        for record in entry.get("extra_adds", []):
            extra_ino = int(record.get("ino", 0))
            if extra_ino not in self.inodes:
                continue
            path = self._normalize(record["path"])
            parent_ino = self._ensure_parent_chain(record.get("parents", []))
            if parent_ino is None:
                continue
            parent = self.inodes[parent_ino]
            name = path.rsplit("/", 1)[-1] if path else ""
            if name:
                self._add_entry(parent, name, extra_ino)

        if entry.get("dir_children") is not None and inode.is_dir:
            self._apply_dir_children(inode, entry)

    def _post_replay_removal(self, parent: Inode) -> None:
        """Hook run after replay removes a directory entry (bug injection point)."""
        return None

    def _apply_dir_children(self, inode: Inode, entry: dict) -> None:
        children_map = entry.get("dir_children", {}) or {}
        embedded = entry.get("dir_children_embedded", {}) or {}
        new_children: Dict[str, int] = {}
        for name, record in children_map.items():
            child_ino = int(record["ino"])
            if child_ino in self.inodes:
                emb = embedded.get(name)
                if emb is not None:
                    # The embedded record carries attribute updates (e.g. the
                    # link count) for a child that already exists on disk.
                    self.inodes[child_ino].nlink = int(emb.get("nlink", self.inodes[child_ino].nlink))
            if child_ino not in self.inodes:
                emb = embedded.get(name)
                if emb is not None:
                    child = Inode(child_ino, FileType(emb["ftype"]))
                    # Directory children are recreated empty; their recorded
                    # size would claim entries that were not logged.
                    child.size = 0 if emb["ftype"] == FileType.DIR.value else int(emb.get("size", 0))
                    child.nlink = int(emb.get("nlink", 1))
                    child.allocated_blocks = int(emb.get("allocated_blocks", 0))
                    child.symlink_target = emb.get("symlink_target")
                    child.xattrs = {k: v.encode("latin-1") for k, v in emb.get("xattrs", {}).items()}
                    child.block_map = {int(k): int(v) for k, v in emb.get("extents", {}).items()}
                    self.inodes[child_ino] = child
                    self._load_data_from_extents(child)
                else:
                    # Dir item without a matching inode: leave a stale entry.
                    child = Inode(child_ino, FileType(record.get("ftype", "file")))
                    child.nlink = 1
                    self.inodes[child_ino] = child
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

    # ------------------------------------------------------------------ misc

    def dirty_inode_count(self) -> int:
        return sum(1 for inode in self.inodes.values() if inode.dirty_data or inode.dirty_metadata)

    def describe(self) -> str:
        lines = [f"{self.fs_type} (generation {self.generation}, {len(self.inodes)} inodes)"]
        for path, state in sorted(self.logical_state().items()):
            if path == "":
                continue
            lines.append("  " + state.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} mounted={self.mounted} inodes={len(self.inodes)}>"
