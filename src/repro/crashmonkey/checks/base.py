"""Check-pipeline building blocks.

A *check* is one independent consistency oracle: given a
:class:`CheckContext` (the profiled workload, the recovered crash state, the
matching oracle and the frozen tracker view) it returns the list of
:class:`~repro.crashmonkey.report.Mismatch` objects it found.  Checks are
registered in a :class:`CheckRegistry`, which fixes their execution order and
lets callers select subsets by name (``--checks`` / ``--skip-checks`` on the
CLI, ``checks=`` on :class:`~repro.crashmonkey.harness.CrashMonkey`).

Adding a new notion of "what counts as a crash-consistency bug" means
writing one class and decorating it with :func:`register` — no edits to the
pipeline or any construction site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, runtime_checkable

from ...fs.inode import FileState
from ..oracle import Oracle
from ..recorder import WorkloadProfile
from ..verdicts import CrashState
from ..report import Mismatch
from ..tracker import TrackerView


#: "not looked up yet", as distinct from "looked up: no such path" (``None``)
_UNRESOLVED = object()


@dataclass
class CheckContext:
    """Everything a check may inspect for one crash point.

    The context bundles the three pieces of information the paper's
    automatic checker works from: which files were explicitly persisted (the
    tracker view), their expected state (the oracle), and their actual state
    (the mounted crash state).

    The read-only checks ask the context, not the file system, what the
    recovered tree holds: :meth:`lookup` and :meth:`names_of` resolve each
    path, and walk the tree, once per crash state however many checks ask.
    That is sound because nothing changes the tree before the last reader is
    done — the one check that does (``write``) is pinned last and works on
    :attr:`fs` itself.
    """

    profile: WorkloadProfile
    crash_state: CrashState
    oracle: Oracle
    view: TrackerView
    _states: Dict[str, Optional[FileState]] = field(default_factory=dict, repr=False)
    _names: Optional[Dict[int, List[str]]] = field(default=None, repr=False)

    @property
    def fs(self):
        """The mounted crash-state file system (None when unmountable)."""
        return self.crash_state.fs

    def lookup(self, path: str) -> Optional[FileState]:
        """``fs.lookup_state(path)`` as the crash state was recovered."""
        state = self._states.get(path, _UNRESOLVED)
        if state is _UNRESOLVED:
            state = self._states[path] = self.crash_state.fs.lookup_state(path)
        return state

    def names_of(self, ino: int) -> List[str]:
        """Every recovered path bound to ``ino`` (``fs.paths_of_inode`` by number)."""
        if self._names is None:
            self._names = self.crash_state.fs.paths_by_inode()
        return self._names.get(ino, [])


@runtime_checkable
class Check(Protocol):
    """One pluggable consistency check."""

    #: stable identifier used for selection, timing attribution and reports
    name: str
    #: True when the check needs a mounted crash state; such checks are
    #: skipped (not failed) when recovery could not mount the state
    requires_mount: bool
    #: one-line human description (shown by ``repro-b3 list-checks``)
    description: str

    def run(self, ctx: CheckContext) -> List[Mismatch]:
        """Return every mismatch this check finds in the crash state."""
        ...


class CheckRegistry:
    """Ordered, name-keyed registry of checks.

    Registration order is execution order, which keeps the pipeline's output
    deterministic and lets the five legacy checks reproduce the original
    monolithic checker's mismatch ordering exactly.
    """

    def __init__(self) -> None:
        self._checks: Dict[str, Check] = {}

    # ------------------------------------------------------------------ registration

    def register(self, check: Callable[[], Check]) -> Callable[[], Check]:
        """Class decorator: instantiate and register a check.

        Usage::

            @REGISTRY.register
            class MyCheck:
                name = "my-check"
                requires_mount = True
                description = "..."
                def run(self, ctx): ...
        """
        instance = check()
        if not isinstance(instance, Check):
            raise TypeError(f"{check!r} does not implement the Check protocol")
        if instance.name in self._checks:
            raise ValueError(f"check {instance.name!r} is already registered")
        self._checks[instance.name] = instance
        return check

    # ------------------------------------------------------------------ queries

    def names(self) -> List[str]:
        return list(self._checks)

    def get(self, name: str) -> Check:
        try:
            return self._checks[name]
        except KeyError:
            raise KeyError(
                f"unknown check {name!r}; registered checks: {', '.join(self._checks)}"
            ) from None

    def __iter__(self):
        return iter(self._checks.values())

    def __contains__(self, name: str) -> bool:
        return name in self._checks

    def __len__(self) -> int:
        return len(self._checks)

    def select(self, include: Optional[Sequence[str]] = None,
               exclude: Iterable[str] = ()) -> List[Check]:
        """Resolve a selection to checks in registry order.

        Args:
            include: check names to run (None = every registered check).
            exclude: check names to skip (applied after ``include``).

        Unknown names in either set raise ``KeyError`` — a typo must never
        silently turn a check off.
        """
        wanted = set(self.names()) if include is None else set(include)
        skipped = set(exclude)
        for name in sorted(wanted | skipped):
            if name not in self._checks:
                raise KeyError(
                    f"unknown check {name!r}; registered checks: {', '.join(self._checks)}"
                )
        return [check for check in self._checks.values()
                if check.name in wanted and check.name not in skipped]

    def describe(self) -> str:
        """One line per registered check (the ``repro-b3 list-checks`` output)."""
        lines = []
        for check in self._checks.values():
            mount = "requires mount" if check.requires_mount else "runs unmounted"
            lines.append(f"{check.name:<12} {mount:<14} {check.description}")
        return "\n".join(lines)


#: The default registry every pipeline uses unless given its own.  The
#: built-in check modules register themselves here on import (see
#: ``repro.crashmonkey.checks.__init__``).
DEFAULT_REGISTRY = CheckRegistry()


def register(check: Callable[[], Check]) -> Callable[[], Check]:
    """Register a check with the default registry (decorator)."""
    return DEFAULT_REGISTRY.register(check)
