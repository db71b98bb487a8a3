"""Offline file-system checker / repairer.

The paper runs ``fsck`` only when a recovered crash state is un-mountable
(CrashMonkey otherwise relies on the file system's own recovery).  This module
provides the same facility for the simulated file systems: it inspects the
on-disk structures directly, reports inconsistencies, and can build a repaired
in-memory view by dropping whatever cannot be salvaged (here: the log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import CorruptionError, UnmountableError
from . import layout
from .bugs import BugConfig
from .inode import ROOT_INO, FileType, Inode


@dataclass
class FsckReport:
    """Result of an offline check."""

    clean: bool
    errors: List[str] = field(default_factory=list)
    repaired: bool = False

    def describe(self) -> str:
        status = "clean" if self.clean else ("repaired" if self.repaired else "errors")
        lines = [f"fsck: {status}"]
        lines.extend(f"  - {error}" for error in self.errors)
        return "\n".join(lines)


def check_device(device) -> FsckReport:
    """Check the on-disk structures without mutating anything."""
    errors: List[str] = []
    try:
        superblock = layout.read_superblock(device)
    except CorruptionError as exc:
        return FsckReport(clean=False, errors=[str(exc)])
    try:
        payload = layout.read_checkpoint(device, superblock)
    except CorruptionError as exc:
        errors.append(str(exc))
        return FsckReport(clean=False, errors=errors)
    if payload is None:
        errors.append("checkpoint unreadable or torn")
        return FsckReport(clean=False, errors=errors)
    inodes = {}
    for ino_str, meta in payload.get("inodes", {}).items():
        try:
            inodes[int(ino_str)] = Inode.from_meta(meta)
        except (KeyError, ValueError) as exc:
            errors.append(f"inode {ino_str} is corrupt: {exc}")
    if ROOT_INO not in inodes:
        errors.append("root inode missing from checkpoint")
    # Referential integrity of the directory tree.
    for ino, inode in inodes.items():
        if inode.ftype is not FileType.DIR:
            continue
        for name, child in inode.children.items():
            if child not in inodes:
                errors.append(f"directory {ino} references missing inode {child} ({name!r})")
    # Link counts.
    reference_counts = {}
    for inode in inodes.values():
        if inode.ftype is FileType.DIR:
            for child in inode.children.values():
                reference_counts[child] = reference_counts.get(child, 0) + 1
    for ino, inode in inodes.items():
        if ino == ROOT_INO or inode.ftype is FileType.DIR:
            continue
        expected = reference_counts.get(ino, 0)
        if expected != inode.nlink:
            errors.append(
                f"inode {ino} has nlink {inode.nlink} but {expected} directory references"
            )
    if not superblock.clean_unmount:
        errors.append("file system was not cleanly unmounted (log may need replay)")
    return FsckReport(clean=not errors, errors=errors)


def repair(fs_class, device, bugs: Optional[BugConfig] = None):
    """Repair an un-mountable image by discarding the log and remounting.

    This mirrors what ``btrfs-check``-style repair effectively does for the
    paper's un-mountable bug: the unreplayable log is zeroed so the file
    system can be mounted from its last checkpoint.  Returns a tuple of the
    mounted file system (``None`` when the image is beyond repair) and an
    :class:`FsckReport`.
    """
    report = check_device(device)
    try:
        superblock = layout.read_superblock(device)
    except CorruptionError:
        # Nothing to mark clean (``check_device`` recorded why); a file system
        # that replicates its superblock may still mount from the other copy.
        pass
    else:
        # Invalidate the log by bumping the generation recorded in the superblock
        # checkpoint linkage: log entries of the old generation are ignored.
        superblock.clean_unmount = True
        layout.write_superblock(device, superblock)
    fs = fs_class(device, bugs)
    try:
        fs.mount()
    except UnmountableError as exc:
        report.errors.append(f"repair failed: {exc}")
        report.clean = False
        return None, report
    report.repaired = True
    return fs, report
