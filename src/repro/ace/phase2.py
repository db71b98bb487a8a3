"""ACE phase 2: select parameters.

For every skeleton from phase 1, phase 2 exhaustively chooses the arguments of
each operation from the bounded file set, and the write-range class for data
operations.  It also eliminates *symmetrical* workloads: ``link(foo, bar)``
and ``link(bar, foo)`` exercise the same behaviour when neither file has been
used earlier in the workload, so only one of the pair is kept (paper §5.2).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..workload.operations import Operation, OpKind, WriteRange
from .bounds import Bounds
from .fileset import FileSet
from .phase1 import Skeleton

#: Base file size (bytes) assumed by the overwrite ranges; the dependency
#: phase writes this much data into files that data operations overwrite.
BASE_FILE_SIZE = 8192
#: Size of each generated write.
WRITE_SIZE = 4096

#: (offset, length) for each write-range class, against a BASE_FILE_SIZE file.
RANGES: Dict[str, Tuple[int, int]] = {
    WriteRange.APPEND: (BASE_FILE_SIZE, WRITE_SIZE),
    WriteRange.OVERLAP_START: (0, WRITE_SIZE),
    WriteRange.OVERLAP_MIDDLE: (BASE_FILE_SIZE // 4, WRITE_SIZE),
    WriteRange.OVERLAP_END: (BASE_FILE_SIZE - WRITE_SIZE, WRITE_SIZE),
    WriteRange.OVERLAP_EXTEND: (BASE_FILE_SIZE - WRITE_SIZE // 2, WRITE_SIZE),
}


#: Operations taking two paths, whose argument orders can be symmetric.
TWO_PATH_OPS = frozenset((OpKind.LINK, OpKind.RENAME, OpKind.SYMLINK))


def range_for(range_name: str) -> Tuple[int, int]:
    return RANGES[range_name]


def parameter_choices(op_name: str, fileset: FileSet, bounds: Bounds) -> List[Operation]:
    """All parameterizations of one operation within the bounds."""
    files = fileset.files
    choices: List[Operation] = []

    if op_name == OpKind.CREAT:
        choices = [Operation(OpKind.CREAT, (path,)) for path in files]
    elif op_name == OpKind.MKDIR:
        choices = [Operation(OpKind.MKDIR, (path,)) for path in fileset.new_directories]
    elif op_name == OpKind.RMDIR:
        choices = [Operation(OpKind.RMDIR, (path,)) for path in fileset.directories]
    elif op_name == OpKind.UNLINK:
        choices = [Operation(OpKind.UNLINK, (path,)) for path in files]
    elif op_name == OpKind.REMOVE:
        choices = [Operation(OpKind.REMOVE, (path,)) for path in files]
        choices.extend(Operation(OpKind.REMOVE, (path,)) for path in fileset.directories)
    elif op_name == OpKind.TRUNCATE:
        choices = [Operation(OpKind.TRUNCATE, (path, BASE_FILE_SIZE // 2)) for path in files]
    elif op_name == OpKind.SETXATTR:
        choices = [Operation(OpKind.SETXATTR, (path, "user.attr1", "value1")) for path in files]
    elif op_name == OpKind.REMOVEXATTR:
        choices = [Operation(OpKind.REMOVEXATTR, (path, "user.attr1")) for path in files]
    elif op_name in (OpKind.WRITE, OpKind.DWRITE, OpKind.MWRITE):
        for path in files:
            for range_name in bounds.write_ranges:
                offset, length = range_for(range_name)
                choices.append(Operation(op_name, (path, offset, length)))
    elif op_name == OpKind.FALLOC:
        for path in files:
            for keep_size in (False, True):
                choices.append(
                    Operation(OpKind.FALLOC, (path, BASE_FILE_SIZE, WRITE_SIZE),
                              (("keep_size", keep_size),))
                )
    elif op_name == OpKind.FZERO:
        for path in files:
            for keep_size in (False, True):
                choices.append(
                    Operation(OpKind.FZERO, (path, BASE_FILE_SIZE, WRITE_SIZE),
                              (("keep_size", keep_size),))
                )
    elif op_name == OpKind.FPUNCH:
        for path in files:
            choices.append(Operation(OpKind.FPUNCH, (path, WRITE_SIZE, WRITE_SIZE)))
    elif op_name in TWO_PATH_OPS:
        for src, dst in itertools.permutations(files, 2):
            choices.append(Operation(op_name, (src, dst)))
    else:
        raise ValueError(f"phase 2 does not know how to parameterize {op_name!r}")
    return choices


def op_paths(op: Operation) -> FrozenSet[str]:
    """The paths one operation names (xattr names are not paths)."""
    return frozenset(
        arg for arg in op.args if isinstance(arg, str) and not arg.startswith("user.")
    )


def _used_paths(ops: Sequence[Operation]) -> set:
    used = set()
    for op in ops:
        for arg in op.args:
            if isinstance(arg, str) and not arg.startswith("user."):
                used.add(arg)
    return used


def is_symmetric_half(op: Operation, used) -> bool:
    """True for the discarded half of a symmetric pair (paper's link example).

    For two-path operations whose arguments are not among ``used`` — the
    paths earlier operations of the workload named — the two argument orders
    are equivalent; only the lexicographically ordered one is kept.
    """
    if op.op not in TWO_PATH_OPS:
        return False
    src, dst = str(op.args[0]), str(op.args[1])
    if src in used or dst in used:
        return False
    return src > dst


def _is_symmetric_duplicate(op: Operation, earlier: Sequence[Operation]) -> bool:
    """:func:`is_symmetric_half` against the paths ``earlier`` used."""
    if op.op not in TWO_PATH_OPS:  # the generator's hot path: skip collecting paths
        return False
    return is_symmetric_half(op, _used_paths(earlier))


def parameterize(skeleton: Skeleton, fileset: FileSet, bounds: Bounds) -> Iterator[List[Operation]]:
    """Yield every parameterized operation sequence for one skeleton."""
    per_position = [parameter_choices(op_name, fileset, bounds) for op_name in skeleton]
    for combination in itertools.product(*per_position):
        ops = list(combination)
        symmetric = False
        for index, op in enumerate(ops):
            if _is_symmetric_duplicate(op, ops[:index]):
                symmetric = True
                break
        if symmetric:
            continue
        yield ops


def count_parameterizations(skeleton: Skeleton, fileset: FileSet, bounds: Bounds,
                            exact: bool = False) -> int:
    """Number of phase-2 workloads for a skeleton.

    With ``exact=False`` the count is the plain product of per-position
    choices (no symmetry elimination) — cheap, and what the scaling analysis
    in §5.2 uses.  With ``exact=True`` the generator is consumed.
    """
    if exact:
        return sum(1 for _ in parameterize(skeleton, fileset, bounds))
    total = 1
    for op_name in skeleton:
        total *= len(parameter_choices(op_name, fileset, bounds))
    return total
