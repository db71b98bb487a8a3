"""The bounded file and directory argument set (paper §4.2 bound 2, Table 3).

ACE restricts the arguments of metadata operations to a small, fixed set of
files and directories: two files at the top level, two directories with two
files each, and (for the nested workload group) one additional directory at
depth three.  Reusing the same few names is what makes the rename/link/unlink
interactions that cause most bugs reachable within tiny workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .bounds import Bounds


@dataclass(frozen=True)
class FileSet:
    """The argument universe derived from a :class:`Bounds`."""

    files: Tuple[str, ...]
    directories: Tuple[str, ...]
    #: directory paths that mkdir/rmdir may target (they may not exist yet)
    new_directories: Tuple[str, ...]

    def all_paths(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.files) | set(self.directories) | set(self.new_directories)))

    def parents_of(self, path: str) -> List[str]:
        """Ancestor directories of ``path`` (shallowest first)."""
        parts = path.split("/")[:-1]
        parents = []
        prefix = ""
        for part in parts:
            prefix = f"{prefix}/{part}" if prefix else part
            parents.append(prefix)
        return parents


#: Conventional names, matching the paper's examples (A/foo, B/bar, ...).
_TOP_FILE_NAMES = ("foo", "bar", "baz", "qux")
_DIR_NAMES = ("A", "B", "C", "D")
_DIR_FILE_NAMES = ("foo", "bar", "baz", "qux")
_NESTED_DIR = "A/C"


def build_fileset(bounds: Bounds) -> FileSet:
    """Construct the argument set the given bounds describe."""
    files: List[str] = list(_TOP_FILE_NAMES[: bounds.num_top_files])
    directories: List[str] = list(_DIR_NAMES[: bounds.num_dirs])
    for directory in list(directories):
        for name in _DIR_FILE_NAMES[: bounds.files_per_dir]:
            files.append(f"{directory}/{name}")
    if bounds.nested:
        directories.append(_NESTED_DIR)
        for name in _DIR_FILE_NAMES[: bounds.files_per_dir]:
            files.append(f"{_NESTED_DIR}/{name}")
    # Directories mkdir may create: one fresh directory at the top level and
    # one nested under an existing directory.
    new_directories = [f"{_DIR_NAMES[bounds.num_dirs]}"]
    if directories:
        new_directories.append(f"{directories[0]}/new")
    return FileSet(
        files=tuple(files),
        directories=tuple(directories),
        new_directories=tuple(new_directories),
    )
