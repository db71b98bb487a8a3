"""Path resolution and tree walks over the in-memory inode table.

Every operation normalises its path argument once, at the top, and hands the
result to the ``*_normalized`` helpers; the plain-named helpers take a path
as the caller spelt it.
"""

from __future__ import annotations

from sys import getsizeof
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import FsInvalidArgumentError, FsNoEntryError, FsNotADirectoryError
from .inode import ROOT_INO, Inode
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


def split_path(path: str) -> Tuple[str, str]:
    """``(parent, name)`` of a normalised path; the root is the parent ``""``."""
    parent, _, name = path.rpartition("/")
    return parent, name


class PathResolution:
    """Names to inodes and back, over ``self.inodes``."""

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
        parent_path, name = split_path(path)
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
        return sorted(path for path, bound_ino in self._walk() if bound_ino == ino)

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
