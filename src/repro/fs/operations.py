"""The POSIX-ish operations and the read API.

Table 4's fourteen core operations plus the xattr pair.  *Operations only
modify the in-memory state* (page cache + metadata) and journal what they
changed (:mod:`repro.fs.commit`); the on-disk image changes only when a
persistence operation or a checkpoint writes it out.  The one exception is
``dwrite``, which is direct I/O.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import (
    FsExistsError,
    FsInvalidArgumentError,
    FsIsADirectoryError,
    FsNoEntryError,
    FsNotADirectoryError,
    FsNotEmptyError,
)
from ..storage.block import BLOCK_SIZE, blocks_needed
from .inode import ROOT_INO, FileState, FileType, Inode


class Operations:
    """What a workload can do to a mounted file system, and ask of it."""

    def _alloc_ino(self) -> int:
        ino = self.next_ino
        self.next_ino += 1
        return ino

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

    def _new_inode(self, parent: Inode, name: str, ftype: FileType, path: str, cause: str) -> Inode:
        """Allocate an inode and bind it at the (normalised) ``path``."""
        inode = Inode(self._alloc_ino(), ftype)
        inode.dirty_metadata = True
        self.inodes[inode.ino] = inode
        self._add_entry(parent, name, inode.ino)
        self._record_ns("add", path, inode.ino, cause)
        return inode

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
        return self._new_inode(parent, name, FileType.FILE, path, "creat").ino

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
        return self._new_inode(parent, name, FileType.DIR, path, "mkdir").ino

    def symlink(self, target: str, linkpath: str) -> int:
        self._require_mounted()
        normalized = self._normalize(linkpath)
        parent, name = self._parent_of_normalized(normalized)
        if name in parent.children:
            raise FsExistsError(f"{linkpath!r} already exists")
        inode = self._new_inode(parent, name, FileType.SYMLINK, normalized, "symlink")
        inode.symlink_target = target
        inode.size = len(target)
        return inode.ino

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
        if inode is not None and inode.is_dir:
            raise FsIsADirectoryError(f"{path!r} is a directory; use rmdir")
        self._remove_entry(parent, name)
        # No inode: a stale directory entry (buggy recovery), dropped by itself.
        if inode is not None:
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

    def describe(self) -> str:
        lines = [f"{self.fs_type} (generation {self.generation}, {len(self.inodes)} inodes)"]
        for path, state in sorted(self.logical_state().items()):
            if path == "":
                continue
            lines.append("  " + state.describe())
        return "\n".join(lines)
