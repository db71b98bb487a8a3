"""High-level workload language.

ACE represents workloads "in a high-level language, similar to the one
depicted in Figure 4" before handing them to the CrashMonkey adapter.  This
module provides a textual form of that language — one operation per line,
``op arg1 arg2 ...`` — with a parser and a printer, so workloads can be stored
in files, diffed, and fed to the CLI.

Example::

    mkdir A
    creat A/foo
    write A/foo 0 4096
    fsync A/foo

Comments start with ``#``; a line consisting of ``crash`` is accepted (and
ignored) so appendix-style listings can be pasted directly.
"""

from __future__ import annotations

from typing import Optional

from ..errors import WorkloadError
from .operations import OPERATIONS, Operation
from .workload import Workload

_BOOL_TRUE = {"1", "true", "yes", "keep", "keep_size", "-k"}
_BOOL_FALSE = {"0", "false", "no", "none", "nokeep", "no_keep_size"}


def _parse_bool(token: str, line_no: int = 0) -> bool:
    """Parse an explicit boolean token; typos must not silently mean False."""
    lowered = token.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise WorkloadError(
        f"line {line_no}: expected a boolean token "
        f"({'/'.join(sorted(_BOOL_TRUE))} or {'/'.join(sorted(_BOOL_FALSE))}), got {token!r}"
    )


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise WorkloadError(f"line {line_no}: expected an integer, got {token!r}") from None


#: every spelling of every operation kind
_SPELLINGS = {spelling: spec for spec in OPERATIONS.values() for spelling in spec.spellings}
#: flags, printed by name when set
_FLAGS = {flag.role for spec in OPERATIONS.values() for flag in spec.flags}


def parse_line(line: str, line_no: int = 0) -> Optional[Operation]:
    """Parse one line of the workload language into an :class:`Operation`.

    Positional tokens fill the kind's arguments in order, left-out ones take
    their defaults, and the token after them sets its flag.
    """
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    tokens = stripped.replace(",", " ").split()
    op = tokens[0].lower()
    args = tokens[1:]
    if op in ("crash", "---crash---", "--crash--"):
        return None
    spec = _SPELLINGS.get(op)
    if spec is None:
        raise WorkloadError(f"line {line_no}: unknown operation {op!r}")
    if len(args) < spec.min_args:
        raise WorkloadError(
            f"line {line_no}: {op} needs at least {spec.min_args} argument(s), got {len(args)}"
        )
    flags = args[len(spec.positional):]
    kwargs = tuple((flag.role, _parse_bool(flags[n], line_no) if n < len(flags) else flag.default)
                   for n, flag in enumerate(spec.flags))
    used = spec.arity(len(args))
    values = [_parse_int(token, line_no) if arg.type is int else token
              for arg, token in zip(spec.positional[:used], args)]
    values.extend(arg.default for arg in spec.positional[used:] if arg.default is not None)
    return Operation(spec.kind, tuple(values), kwargs)


def parse_workload(text: str, name: str = "", source: str = "language") -> Workload:
    """Parse a multi-line workload description."""
    ops = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        op = parse_line(line, line_no)
        if op is not None:
            ops.append(op)
    if not ops:
        raise WorkloadError("workload text contains no operations")
    return Workload(ops=ops, name=name, source=source)


def format_workload(workload: Workload) -> str:
    """Render a workload back into the language (inverse of ``parse_workload``)."""
    lines = []
    for op in workload.ops:
        parts = [op.op]
        parts.extend(str(arg) for arg in op.args)
        for key, value in op.kwargs:
            if key not in _FLAGS:
                parts.append(str(value))
            elif value:
                parts.append(key)
        lines.append(" ".join(parts))
    return "\n".join(lines)
