"""Pluggable consistency checks (the CrashMonkey check pipeline).

Importing this package registers the built-in checks with
:data:`DEFAULT_REGISTRY` in their canonical execution order:

1. ``mount`` — the crash state must mount (recovery succeeds),
2. ``read`` — persisted file data/metadata must match the old or new state,
3. ``directory`` — entries persisted by a directory fsync must exist,
4. ``atomicity`` — a rename may not leave one inode at both names,
5. ``hardlink`` — recovered link counts must match the referencing entries,
6. ``xattr`` — persisted directory xattrs must recover to the old or new set,
7. ``write`` — the recovered file system must accept creates and removals.

``mount``/``read``/``directory``/``atomicity``/``write`` reproduce the
original monolithic checker byte-for-byte; ``hardlink`` and ``xattr`` are oracles
the monolith never ran.  ``write`` is *destructive* (its probes create and
remove files in the recovered state), so it must stay last: read-only checks
registered after it would observe a mutated file system.
"""

from .base import (
    Check,
    CheckContext,
    CheckRegistry,
    DEFAULT_REGISTRY,
    register,
)

# Built-in checks register themselves on import; import order is execution
# order.  The destructive write check must be imported (registered) last.
from .mount import MountCheck
from .read import ReadCheck
from .directory import DirectoryCheck
from .atomicity import AtomicityCheck
from .links import HardLinkCountCheck
from .xattrs import DirXattrCheck
from .write import WriteCheck

#: Names of the checks that reproduce the original monolithic checker.
LEGACY_CHECKS = ("mount", "read", "directory", "atomicity", "write")

__all__ = [
    "Check",
    "CheckContext",
    "CheckRegistry",
    "DEFAULT_REGISTRY",
    "LEGACY_CHECKS",
    "register",
    "MountCheck",
    "ReadCheck",
    "DirectoryCheck",
    "AtomicityCheck",
    "WriteCheck",
    "HardLinkCountCheck",
    "DirXattrCheck",
]
