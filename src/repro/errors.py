"""Shared exception hierarchy for the B3 reproduction.

The hierarchy intentionally mirrors the failure classes that the paper's
tools observe: file-system level errors (POSIX-ish errno-style failures),
crash/recovery failures (a crash state that cannot be mounted), and
harness-level misuse errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class StorageError(ReproError):
    """Errors raised by the block-device substrate."""


class InvalidBlockError(StorageError):
    """A read or write addressed a block outside the device."""


class SpillMissError(StorageError):
    """A spilled spine node is gone.

    Its spill file could not be written (full disk) or did not read back
    intact (truncated, torn, checksum mismatch).  Spines are caches: their
    owners answer a miss by dropping the spine and rebuilding from scratch.
    """


class FileSystemError(ReproError):
    """Base class for POSIX-style errors raised by the simulated file systems.

    Each subclass carries an ``errno_name`` so tests and the harness can
    reason about the failure class without string matching.
    """

    errno_name = "EIO"


class FsNotMountedError(FileSystemError):
    errno_name = "ENODEV"


class FsExistsError(FileSystemError):
    errno_name = "EEXIST"


class FsNoEntryError(FileSystemError):
    errno_name = "ENOENT"


class FsNotADirectoryError(FileSystemError):
    errno_name = "ENOTDIR"


class FsIsADirectoryError(FileSystemError):
    errno_name = "EISDIR"


class FsNotEmptyError(FileSystemError):
    errno_name = "ENOTEMPTY"


class FsInvalidArgumentError(FileSystemError):
    errno_name = "EINVAL"


class FsReadOnlyError(FileSystemError):
    errno_name = "EROFS"


class FsNoSpaceError(FileSystemError):
    errno_name = "ENOSPC"


class UnmountableError(ReproError):
    """Raised when a crash state cannot be mounted (recovery failed).

    This corresponds to the paper's most severe consequence class: the file
    system is unavailable after the crash until repaired with fsck.
    """

    def __init__(self, message: str, *, fs_type: str = "", detail: str = ""):
        super().__init__(message)
        self.fs_type = fs_type
        self.detail = detail


class RecoveryError(UnmountableError):
    """Log or journal replay failed while mounting a crash state."""


class CorruptionError(UnmountableError):
    """On-disk structures failed validation while mounting."""


class HarnessError(ReproError):
    """CrashMonkey / ACE harness misuse (e.g. replaying before recording)."""


class CampaignDriftError(ReproError, ValueError):
    """A stored campaign was asked to continue under a different identity.

    Identity options (see :mod:`repro.options`) decide the campaign's result;
    continuing under another value would silently mix two campaigns.
    """


class UnknownCampaignError(ReproError, KeyError):
    """A state store holds no campaign under the asked id, or there is no
    state store at the asked path: a read never creates one."""

    __str__ = ReproError.__str__  # the message, not KeyError's quoted repr


class WorkloadError(ReproError):
    """A workload is malformed or cannot be executed."""
