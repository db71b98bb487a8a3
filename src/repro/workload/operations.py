"""Workload operations.

A workload is a sequence of file-system operations (paper §4/§5.2).  This
module defines the operation vocabulary: the fourteen core operations ACE
supports (Table 4), the persistence operations that create crash points, and
a few auxiliary operations used by the known-bug workloads from the appendix
(symlink, punch hole, zero range, dropcaches).

Operations are plain data (name + arguments).  Each kind is declared once, in
:data:`OPERATIONS`: its spellings in the workload language, its argument
schema (each argument's role, type and default) and how it runs on the
simulated file-system API.  The parser and printer, the executor's dispatch
and :meth:`Workload.validate` are derived from that table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..errors import WorkloadError


class OpKind:
    """Operation names.  Matches the paper's terminology where possible."""

    CREAT = "creat"
    MKDIR = "mkdir"
    FALLOC = "falloc"
    WRITE = "write"            # buffered write
    DWRITE = "dwrite"          # direct-I/O write
    MWRITE = "mwrite"          # write through an mmap'ed region
    LINK = "link"
    SYMLINK = "symlink"
    UNLINK = "unlink"
    RMDIR = "rmdir"
    REMOVE = "remove"
    RENAME = "rename"
    TRUNCATE = "truncate"
    SETXATTR = "setxattr"
    REMOVEXATTR = "removexattr"
    FZERO = "fzero"            # fallocate(ZERO_RANGE)
    FPUNCH = "fpunch"          # fallocate(PUNCH_HOLE)
    DROPCACHES = "dropcaches"

    FSYNC = "fsync"
    FDATASYNC = "fdatasync"
    MSYNC = "msync"
    SYNC = "sync"

    #: The fourteen core operations ACE supports (paper §5.2).
    ACE_CORE = (
        CREAT, MKDIR, FALLOC, WRITE, MWRITE, LINK, DWRITE,
        UNLINK, RMDIR, SETXATTR, REMOVEXATTR, REMOVE, TRUNCATE, RENAME,
    )

    #: Persistence operations — the only points at which B3 simulates crashes.
    PERSISTENCE = (FSYNC, FDATASYNC, MSYNC, SYNC)

    #: Operations that take a data range (offset/length) as arguments.
    DATA_OPS = (WRITE, DWRITE, MWRITE, FALLOC, FZERO, FPUNCH)


#: Write-range flavours ACE distinguishes (paper §4.2 "Data operations").
class WriteRange:
    APPEND = "append"
    OVERLAP_START = "overlap_start"
    OVERLAP_MIDDLE = "overlap_middle"
    OVERLAP_END = "overlap_end"
    OVERLAP_EXTEND = "overlap_extend"

    ALL = (APPEND, OVERLAP_START, OVERLAP_MIDDLE, OVERLAP_END, OVERLAP_EXTEND)


@dataclass(frozen=True)
class Operation:
    """One operation in a workload.

    Attributes:
        op: the operation name (one of :class:`OpKind`'s constants).
        args: operation arguments (paths, offsets, lengths, flags).
        dependency: True if the operation was added by ACE's phase 4 to
            satisfy a dependency (it is then not part of the *core* sequence).
    """

    op: str
    args: Tuple = ()
    kwargs: Tuple = ()
    dependency: bool = False

    # -- convenience accessors -------------------------------------------------

    @property
    def is_persistence(self) -> bool:
        return self.op in OpKind.PERSISTENCE

    @property
    def kwargs_dict(self) -> Dict:
        return dict(self.kwargs)

    def as_dependency(self) -> "Operation":
        return replace(self, dependency=True)

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "args": list(self.args),
            "kwargs": {key: value for key, value in self.kwargs},
            "dependency": self.dependency,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Operation":
        return cls(
            op=payload["op"],
            args=tuple(payload.get("args", ())),
            kwargs=tuple(sorted(payload.get("kwargs", {}).items())),
            dependency=bool(payload.get("dependency", False)),
        )

    def describe(self) -> str:
        """Figure-4 style one-line rendering, e.g. ``rename(A/foo, B/bar)``."""
        parts = [str(arg) for arg in self.args]
        parts.extend(f"{key}={value}" for key, value in self.kwargs)
        suffix = " [dep]" if self.dependency else ""
        return f"{self.op}({', '.join(parts)}){suffix}"

    def __str__(self) -> str:
        return self.describe()


# -- the operation table ------------------------------------------------------------


class Role:
    """What an argument is to its operation."""

    PATH = "path"
    PATH2 = "path2"              # a link's or rename's destination, a symlink's name
    OFFSET = "offset"
    LENGTH = "length"            # of a data range, or a truncated file's new size
    XATTR_NAME = "xattr_name"
    XATTR_VALUE = "xattr_value"
    KEEP_SIZE = "keep_size"      # a flag: rides in ``Operation.kwargs`` under its role


#: the default of an argument an operation cannot do without
REQUIRED = object()


class Arg(NamedTuple):
    """One argument of an operation kind.

    ``default`` is :data:`REQUIRED`, a value filled in when the argument is
    left out, or ``None``: optional, and then absent from the operation
    (msync's range, which comes whole or not at all).  ``bool`` arguments are
    flags, kept in ``Operation.kwargs``; the rest are positional.
    """

    role: str
    type: type = str
    default: object = REQUIRED


class OpSpec:
    """One operation kind: its language spellings, its arguments and how it runs.

    ``run(fs, values, index)`` performs the operation with the values
    :meth:`bind` gives; ``index`` is its position in the workload (it seeds
    the data of a write).
    """

    __slots__ = ("kind", "spellings", "positional", "flags", "min_args", "counts", "run")

    def __init__(self, kind: str, args: Tuple[Arg, ...], run: Callable[..., None],
                 aliases: Tuple[str, ...] = ()):
        self.kind = kind
        self.spellings = (kind, *aliases)
        self.positional = tuple(arg for arg in args if arg.type is not bool)
        self.flags = tuple(arg for arg in args if arg.type is bool)
        self.min_args = sum(arg.default is REQUIRED for arg in self.positional)
        #: how many positional arguments the kind takes: any optional one may
        #: be left out, but an optional range comes whole or not at all
        self.counts = frozenset(
            given for given in range(self.min_args, len(self.positional) + 1)
            if given in (self.min_args, len(self.positional))
            or self.positional[given].default is not None)
        self.run = run

    def check(self, given: int) -> None:
        """A :class:`WorkloadError` unless the kind takes ``given`` positional
        arguments."""
        if given < self.min_args:
            raise WorkloadError(
                f"{self.kind} needs at least {self.min_args} argument(s), got {given}")
        if given not in self.counts:
            raise WorkloadError(f"{self.kind} takes "
                                f"{' or '.join(map(str, sorted(self.counts)))} "
                                f"argument(s), got {given}")

    def bind(self, op: Operation) -> list:
        """``op``'s values in schema order: its positional ones, with integers
        coerced, then the defaults of the rest, then its flags."""
        values = [int(value) if arg.type is int else value
                  for arg, value in zip(self.positional, op.args)]
        values.extend(arg.default for arg in self.positional[len(op.args):])
        if self.flags:
            kwargs = dict(op.kwargs)
            values.extend(bool(kwargs.get(flag.role, flag.default)) for flag in self.flags)
        return values


def payload_for(op_index: int, length: int) -> bytes:
    """Deterministic, operation-specific data for write operations."""
    if length <= 0:
        return b""
    pattern = bytes((b + op_index * 7) % 251 + 1 for b in range(min(length, 256)))
    repeats = length // len(pattern) + 1
    return (pattern * repeats)[:length]


def _mmap_write(fs, path: str, offset: int, length: int, index: int) -> None:
    """mmap writes require the mapped range to exist; extend the file first."""
    if not fs.exists(path):
        fs.creat(path)
    end = offset + length
    if fs.stat(path).size < end:
        fs.truncate(path, end)
    fs.mwrite(path, offset, payload_for(index, length))


_PATH, _PATH2 = Arg(Role.PATH), Arg(Role.PATH2)
_RANGE = (_PATH, Arg(Role.OFFSET, int), Arg(Role.LENGTH, int))
_KEEP_SIZE = Arg(Role.KEEP_SIZE, bool, False)
_XATTR_NAME = Arg(Role.XATTR_NAME, str, "user.attr1")

#: Every operation kind, declared once.
OPERATIONS: Dict[str, OpSpec] = {spec.kind: spec for spec in (
    OpSpec(OpKind.CREAT, (_PATH,), lambda fs, v, i: fs.creat(*v), ("touch",)),
    OpSpec(OpKind.MKDIR, (_PATH,), lambda fs, v, i: fs.mkdir(*v, parents=True)),
    OpSpec(OpKind.WRITE, _RANGE, lambda fs, v, i: fs.write(v[0], v[1], payload_for(i, v[2])),
           ("pwrite",)),
    OpSpec(OpKind.DWRITE, _RANGE, lambda fs, v, i: fs.dwrite(v[0], v[1], payload_for(i, v[2])),
           ("d-write", "direct_write")),
    OpSpec(OpKind.MWRITE, _RANGE, lambda fs, v, i: _mmap_write(fs, *v, i),
           ("m-write", "mmapwrite")),
    OpSpec(OpKind.FALLOC, (*_RANGE, _KEEP_SIZE),
           lambda fs, v, i: fs.falloc(*v[:3], keep_size=v[3]), ("fallocate",)),
    OpSpec(OpKind.FZERO, (*_RANGE, _KEEP_SIZE),
           lambda fs, v, i: fs.fzero(*v[:3], keep_size=v[3]), ("zero_range",)),
    OpSpec(OpKind.FPUNCH, _RANGE, lambda fs, v, i: fs.fpunch(*v), ("punch_hole",)),
    OpSpec(OpKind.LINK, (_PATH, _PATH2), lambda fs, v, i: fs.link(*v)),
    OpSpec(OpKind.SYMLINK, (_PATH, _PATH2), lambda fs, v, i: fs.symlink(*v)),
    OpSpec(OpKind.UNLINK, (_PATH,), lambda fs, v, i: fs.unlink(*v)),
    OpSpec(OpKind.RMDIR, (_PATH,), lambda fs, v, i: fs.rmdir(*v)),
    OpSpec(OpKind.REMOVE, (_PATH,), lambda fs, v, i: fs.remove(*v), ("rm",)),
    OpSpec(OpKind.RENAME, (_PATH, _PATH2), lambda fs, v, i: fs.rename(*v), ("mv",)),
    OpSpec(OpKind.TRUNCATE, (_PATH, Arg(Role.LENGTH, int)), lambda fs, v, i: fs.truncate(*v)),
    OpSpec(OpKind.SETXATTR, (_PATH, _XATTR_NAME, Arg(Role.XATTR_VALUE, str, "value1")),
           lambda fs, v, i: fs.setxattr(v[0], v[1], v[2].encode("utf-8"))),
    OpSpec(OpKind.REMOVEXATTR, (_PATH, _XATTR_NAME), lambda fs, v, i: fs.removexattr(*v)),
    # the page cache is the in-memory state itself; nothing to drop safely
    OpSpec(OpKind.DROPCACHES, (), lambda fs, v, i: None),
    OpSpec(OpKind.FSYNC, (_PATH,), lambda fs, v, i: fs.fsync(*v)),
    OpSpec(OpKind.FDATASYNC, (_PATH,), lambda fs, v, i: fs.fdatasync(*v)),
    OpSpec(OpKind.MSYNC, (_PATH, Arg(Role.OFFSET, int, None), Arg(Role.LENGTH, int, None)),
           lambda fs, v, i: fs.msync(v[0]) if v[2] is None else fs.msync(*v)),
    OpSpec(OpKind.SYNC, (), lambda fs, v, i: fs.sync()),
)}


def spec_of(op: Operation) -> OpSpec:
    """The declared kind of ``op``; a :class:`WorkloadError` if it has none
    or arguments the kind does not take."""
    spec = OPERATIONS.get(op.op)
    if spec is None:
        raise WorkloadError(f"unknown operation {op.op!r}")
    spec.check(len(op.args))
    return spec


# -- constructors -------------------------------------------------------------------
#
# These small helpers keep workload-construction code readable (both ACE's and
# the hand-encoded known-bug workloads from the appendix).


def creat(path: str, dependency: bool = False) -> Operation:
    return Operation(OpKind.CREAT, (path,), dependency=dependency)


def mkdir(path: str, dependency: bool = False) -> Operation:
    return Operation(OpKind.MKDIR, (path,), dependency=dependency)


def write(path: str, offset: int, length: int) -> Operation:
    return Operation(OpKind.WRITE, (path, offset, length))


def dwrite(path: str, offset: int, length: int) -> Operation:
    return Operation(OpKind.DWRITE, (path, offset, length))


def mwrite(path: str, offset: int, length: int) -> Operation:
    return Operation(OpKind.MWRITE, (path, offset, length))


def falloc(path: str, offset: int, length: int, keep_size: bool = False) -> Operation:
    return Operation(OpKind.FALLOC, (path, offset, length), (("keep_size", keep_size),))


def fzero(path: str, offset: int, length: int, keep_size: bool = False) -> Operation:
    return Operation(OpKind.FZERO, (path, offset, length), (("keep_size", keep_size),))


def fpunch(path: str, offset: int, length: int) -> Operation:
    return Operation(OpKind.FPUNCH, (path, offset, length))


def link(src: str, dst: str) -> Operation:
    return Operation(OpKind.LINK, (src, dst))


def symlink(target: str, path: str) -> Operation:
    return Operation(OpKind.SYMLINK, (target, path))


def unlink(path: str) -> Operation:
    return Operation(OpKind.UNLINK, (path,))


def rmdir(path: str) -> Operation:
    return Operation(OpKind.RMDIR, (path,))


def remove(path: str) -> Operation:
    return Operation(OpKind.REMOVE, (path,))


def rename(src: str, dst: str) -> Operation:
    return Operation(OpKind.RENAME, (src, dst))


def truncate(path: str, size: int) -> Operation:
    return Operation(OpKind.TRUNCATE, (path, size))


def setxattr(path: str, name: str = "user.attr1", value: str = "value1") -> Operation:
    return Operation(OpKind.SETXATTR, (path, name, value))


def removexattr(path: str, name: str = "user.attr1") -> Operation:
    return Operation(OpKind.REMOVEXATTR, (path, name))


def dropcaches() -> Operation:
    return Operation(OpKind.DROPCACHES, ())


def fsync(path: str) -> Operation:
    return Operation(OpKind.FSYNC, (path,))


def fdatasync(path: str) -> Operation:
    return Operation(OpKind.FDATASYNC, (path,))


def msync(path: str, offset: int = 0, length: Optional[int] = None) -> Operation:
    if length is None:
        return Operation(OpKind.MSYNC, (path,))
    return Operation(OpKind.MSYNC, (path, offset, length))


def sync() -> Operation:
    return Operation(OpKind.SYNC, ())
