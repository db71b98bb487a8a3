"""Workload container.

A :class:`Workload` is an ordered list of operations plus bookkeeping that
the rest of the pipeline relies on:

* the *skeleton* — the sequence of core (non-dependency, non-persistence)
  operation names, used by the Figure-5 post-processing to group bug reports,
* persistence-point positions — the crash points CrashMonkey simulates,
* a stable identifier used to deduplicate and to name reports,
* *prefix keys* — content-derived identifiers of every operation prefix,
  which the prefix-shared recorder uses to recognise that two ACE sibling
  workloads start with the same operations and need that prefix recorded
  only once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .operations import Operation, spec_of


#: canonical payload per operation, keyed on the ``repr`` of its fields.
#: ``repr`` rather than the operation itself: ``1``, ``1.0`` and ``True``
#: compare (and hash) equal but serialize to different JSON, so ``==``-equal
#: operations must not share an entry.  ACE draws every workload from a few
#: hundred distinct operations, so sibling families hit this on every op.
_OPERATION_PAYLOADS: Dict[str, bytes] = {}
#: entries kept before the memo starts over (bounds a process fed arbitrary
#: hand-written workloads; an ACE campaign stays far below it)
_OPERATION_PAYLOAD_LIMIT = 1 << 14


def _operation_payload(op: Operation) -> bytes:
    """One operation's canonical JSON, length-framed, serialized once.

    The length prefix keeps operation boundaries unambiguous, so
    concatenations that merely *render* the same can never collide.
    """
    key = repr((op.op, op.args, op.kwargs, op.dependency))
    payload = _OPERATION_PAYLOADS.get(key)
    if payload is None:
        body = json.dumps(op.to_json(), sort_keys=True).encode("utf-8")
        payload = f"{len(body)}:".encode("ascii") + body
        if len(_OPERATION_PAYLOADS) >= _OPERATION_PAYLOAD_LIMIT:
            _OPERATION_PAYLOADS.clear()
        _OPERATION_PAYLOADS[key] = payload
    return payload


def _hash_operation(hasher, op: Operation) -> None:
    """Feed one operation's framed canonical JSON into an incremental digest."""
    hasher.update(_operation_payload(op))


@dataclass
class Workload:
    """An ordered sequence of file-system operations."""

    ops: List[Operation] = field(default_factory=list)
    name: str = ""
    #: Sequence length ACE aimed for (number of core operations), if known.
    seq_length: Optional[int] = None
    #: Free-form provenance label, e.g. "ace:seq-2" or "known-bug-5".
    source: str = ""

    # -- basic container behaviour ------------------------------------------------

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: Operation) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[Operation]) -> None:
        self.ops.extend(ops)

    # -- derived views -------------------------------------------------------------

    def core_ops(self) -> List[Operation]:
        """Core operations: not persistence points and not dependency setup."""
        return [op for op in self.ops if not op.is_persistence and not op.dependency]

    def skeleton(self) -> Tuple[str, ...]:
        """The phase-1 skeleton: the ordered core operation names."""
        return tuple(op.op for op in self.core_ops())

    def persistence_points(self) -> List[int]:
        """Indices of persistence operations (in execution order)."""
        return [index for index, op in enumerate(self.ops) if op.is_persistence]

    def num_persistence_points(self) -> int:
        return len(self.persistence_points())

    def operations_used(self) -> Tuple[str, ...]:
        return tuple(sorted({op.op for op in self.core_ops()}))

    def ends_with_persistence(self) -> bool:
        return bool(self.ops) and self.ops[-1].is_persistence

    def paths_touched(self) -> Tuple[str, ...]:
        paths = set()
        for op in self.ops:
            for arg in op.args:
                if isinstance(arg, str) and not arg.startswith("user."):
                    paths.add(arg)
        return tuple(sorted(paths))

    # -- identity --------------------------------------------------------------------

    def workload_id(self) -> str:
        """Stable content-derived identifier."""
        digest = hashlib.sha1(
            json.dumps([op.to_json() for op in self.ops], sort_keys=True).encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def prefix_key(self, length: Optional[int] = None) -> str:
        """Content-derived identifier of the first ``length`` operations.

        Two workloads with equal ``prefix_key(k)`` have byte-identical first
        ``k`` operations (op name, every argument, kwargs, dependency flag) —
        the property the prefix-shared recorder relies on to resume a sibling
        from a cached recording instead of re-running the prefix.  A key
        collision between *different* prefixes would silently corrupt the
        workload trie, so the key digests the full canonical JSON of every
        operation, not just the names.  ``length=None`` keys the whole
        workload.
        """
        if length is None:
            length = len(self.ops)
        hasher = hashlib.sha1()
        for op in self.ops[:length]:
            _hash_operation(hasher, op)
        return hasher.hexdigest()[:16]

    def prefix_keys(self) -> Tuple[str, ...]:
        """``prefix_key`` of every prefix, from 0 ops to the full workload.

        Computed in one incremental pass, so ``prefix_keys()[k] ==
        prefix_key(k)`` without re-hashing each prefix from scratch.
        """
        hasher = hashlib.sha1()
        keys = [hasher.hexdigest()[:16]]
        for op in self.ops:
            _hash_operation(hasher, op)
            keys.append(hasher.hexdigest()[:16])
        return tuple(keys)

    def family_key(self) -> str:
        """Identity of the workload's non-persistence operations.

        ACE's phase 3 emits *sibling families*: workloads with identical core
        and dependency operations that differ only in where persistence
        points sit.  Those siblings share the longest recording prefixes, so
        the engine's prefix-affine chunking keeps workloads with equal
        ``family_key`` in one chunk (one worker, one warm prefix cache).
        """
        hasher = hashlib.sha1()
        for op in self.ops:
            if not op.is_persistence:
                _hash_operation(hasher, op)
        return hasher.hexdigest()[:16]

    def display_name(self) -> str:
        return self.name or f"workload-{self.workload_id()}"

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on structural problems.

        Every operation must be of a declared kind and carry at least the
        arguments that kind needs.  B3 requires at least one persistence
        point (otherwise there is no crash point to test) and that the final
        operation is a persistence point (otherwise the trailing operations
        can never affect any tested crash state — ACE's phase 3 enforces the
        same rule).
        """
        if not self.ops:
            raise WorkloadError("workload has no operations")
        for index, op in enumerate(self.ops):
            try:
                spec_of(op)
            except WorkloadError as exc:
                raise WorkloadError(
                    f"workload {self.display_name()}, operation {index}: {exc}") from None
        if not any(op.is_persistence for op in self.ops):
            raise WorkloadError(
                f"workload {self.display_name()} has no persistence point; "
                "B3 only crashes after persistence operations"
            )
        if not self.ends_with_persistence():
            raise WorkloadError(
                f"workload {self.display_name()} does not end with a persistence point"
            )

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seq_length": self.seq_length,
            "source": self.source,
            "ops": [op.to_json() for op in self.ops],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Workload":
        return cls(
            ops=[Operation.from_json(op) for op in payload.get("ops", [])],
            name=payload.get("name", ""),
            seq_length=payload.get("seq_length"),
            source=payload.get("source", ""),
        )

    def describe(self) -> str:
        """Multi-line, Figure-4 style rendering."""
        lines = [f"# {self.display_name()} (source={self.source or 'manual'})"]
        for index, op in enumerate(self.ops, start=1):
            lines.append(f"{index:>2} {op.describe()}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def make_workload(ops: Sequence[Operation], name: str = "", seq_length: Optional[int] = None,
                  source: str = "") -> Workload:
    """Convenience constructor used by ACE and the known-bug database."""
    return Workload(ops=list(ops), name=name, seq_length=seq_length, source=source)
