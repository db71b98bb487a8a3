"""In-memory inode and directory structures for the simulated file systems.

These structures are the *page cache* / in-memory metadata of the simulated
file systems: every operation mutates them immediately, while the on-disk
image (the block device) only changes when a persistence operation or a
checkpoint writes them out.  Crash-consistency bugs are precisely gaps between
the two.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from .memo import BoundedMemo

ROOT_INO = 1

#: SHA-1 hex digests by the exact content they are digests of.  The key is
#: the content, not a digest of it: no digest wide enough to be sound is
#: cheaper than the SHA-1 it would save, while probing with a ``bytes`` key
#: costs its (cached) hash and one compare.  Entries are charged their full
#: key, so the table holds a few dozen small files and skips large ones.
_CONTENT_SHA1 = BoundedMemo("content-sha1", 128 << 10)


def content_sha1(data: bytes) -> str:
    """SHA-1 hex digest of file content, computed once per distinct content."""
    digest = _CONTENT_SHA1.get(data)
    if digest is None:
        digest = hashlib.sha1(data).hexdigest()
        _CONTENT_SHA1.put(data, digest, len(data) + len(digest))
    return digest


class FileType(str, Enum):
    FILE = "file"
    DIR = "dir"
    SYMLINK = "symlink"


class Inode:
    """One file, directory, or symlink.

    Attributes:
        ino: inode number.
        ftype: file, directory or symlink.
        size: logical size in bytes.  For directories this models the
            directory "item count" the kernel tracks (number of entries),
            which matters for the un-removable-directory bugs.
        nlink: number of hard links (directories count ``.``-style links the
            simple way: 1 + number of child directories is *not* modelled;
            directory nlink is simply 1).
        data: file contents held in the page cache (authoritative while
            mounted).
        allocated_blocks: blocks reserved for the file, including blocks
            beyond EOF reserved by ``fallocate(KEEP_SIZE)``.
        block_map: on-disk location of flushed file blocks
            (file block index -> device block number).
        children: for directories, name -> child inode number.
        xattrs: extended attributes.
        symlink_target: target path for symlinks.
        mmap_ranges: byte ranges written through mmap that have not yet been
            msync'd (tracked so ranged msync can flush only part of them).
    """

    __slots__ = (
        "ino",
        "ftype",
        "size",
        "nlink",
        "data",
        "allocated_blocks",
        "block_map",
        "children",
        "xattrs",
        "symlink_target",
        "mmap_ranges",
        "dirty_data",
        "dirty_metadata",
    )

    def __init__(self, ino: int, ftype: FileType):
        self.ino = ino
        self.ftype = ftype
        self.size = 0
        self.nlink = 1
        self.data = bytearray()
        self.allocated_blocks = 0
        self.block_map: Dict[int, int] = {}
        self.children: Dict[str, int] = {}
        self.xattrs: Dict[str, bytes] = {}
        self.symlink_target: Optional[str] = None
        self.mmap_ranges: List[tuple] = []
        self.dirty_data = False
        self.dirty_metadata = False

    # -- convenience -----------------------------------------------------------

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIR

    @property
    def is_file(self) -> bool:
        return self.ftype is FileType.FILE

    @property
    def is_symlink(self) -> bool:
        return self.ftype is FileType.SYMLINK

    def data_hash(self) -> str:
        return content_sha1(bytes(self.data))

    def to_meta(self) -> dict:
        """Serializable metadata view (no file data; data lives in data blocks)."""
        return {
            "ino": self.ino,
            "ftype": self.ftype.value,
            "size": self.size,
            "nlink": self.nlink,
            "allocated_blocks": self.allocated_blocks,
            "block_map": {str(k): v for k, v in self.block_map.items()},
            "children": dict(self.children),
            "xattrs": {k: v.decode("latin-1") for k, v in self.xattrs.items()},
            "symlink_target": self.symlink_target,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "Inode":
        inode = cls(int(meta["ino"]), FileType(meta["ftype"]))
        inode.size = int(meta["size"])
        inode.nlink = int(meta["nlink"])
        inode.allocated_blocks = int(meta.get("allocated_blocks", 0))
        inode.block_map = {int(k): int(v) for k, v in meta.get("block_map", {}).items()}
        inode.children = dict(meta.get("children", {}))
        inode.xattrs = {k: v.encode("latin-1") for k, v in meta.get("xattrs", {}).items()}
        inode.symlink_target = meta.get("symlink_target")
        return inode

    def clone(self) -> "Inode":
        clone = Inode(self.ino, self.ftype)
        clone.size = self.size
        clone.nlink = self.nlink
        clone.data = bytearray(self.data)
        clone.allocated_blocks = self.allocated_blocks
        clone.block_map = dict(self.block_map)
        clone.children = dict(self.children)
        clone.xattrs = dict(self.xattrs)
        clone.symlink_target = self.symlink_target
        clone.mmap_ranges = list(self.mmap_ranges)
        clone.dirty_data = self.dirty_data
        clone.dirty_metadata = self.dirty_metadata
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inode(ino={self.ino}, type={self.ftype.value}, size={self.size}, nlink={self.nlink})"


@dataclass(frozen=True)
class FileState:
    """Logical, comparison-friendly view of one path in a file system.

    This is what the oracle stores and what the check pipeline compares: the
    observable state of a persisted file or directory.
    """

    path: str
    ftype: str
    size: int = 0
    nlink: int = 1
    allocated_blocks: int = 0
    data_hash: str = ""
    children: tuple = ()
    xattrs: tuple = ()
    symlink_target: Optional[str] = None
    ino: int = 0

    @classmethod
    def from_inode(cls, path: str, inode: Inode) -> "FileState":
        # Every walk, oracle and check builds one per path, and the generated
        # frozen ``__init__`` pays an ``object.__setattr__`` per field: fill
        # the instance dict directly instead.
        ftype = inode.ftype
        xattrs = inode.xattrs
        state = object.__new__(cls)
        state.__dict__.update(
            path=path,
            ftype=ftype.value,
            size=inode.size,
            nlink=inode.nlink,
            allocated_blocks=inode.allocated_blocks,
            data_hash=inode.data_hash() if ftype is FileType.FILE else "",
            children=tuple(sorted(inode.children)) if ftype is FileType.DIR else (),
            xattrs=tuple(sorted((k, v.decode("latin-1")) for k, v in xattrs.items()))
            if xattrs else (),
            symlink_target=inode.symlink_target,
            ino=inode.ino,
        )
        return state

    def describe(self) -> str:
        if self.ftype == FileType.DIR.value:
            return f"dir {self.path} entries={list(self.children)} size={self.size}"
        if self.ftype == FileType.SYMLINK.value:
            return f"symlink {self.path} -> {self.symlink_target!r}"
        return (
            f"file {self.path} size={self.size} nlink={self.nlink} "
            f"blocks={self.allocated_blocks} sha1={self.data_hash[:12]}"
        )


@dataclass
class NamespaceOp:
    """A namespace change (link add/remove) performed since the last commit.

    The fsync-log file systems consult this journal of logical changes when
    they decide what to include in a log entry; the bug mechanisms are
    filters over it.
    """

    kind: str  # "add" | "remove"
    path: str
    ino: int
    #: the operation that caused the change ("creat", "link", "rename", "unlink", ...)
    cause: str = ""
    #: for renames, the matching path on the other side
    counterpart: Optional[str] = None
    seq: int = 0
