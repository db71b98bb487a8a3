"""Workload executor.

Maps workload operations onto the simulated file-system API.  This is the
equivalent of the C++ test program ACE's adapter generates for CrashMonkey:
it performs each operation and gives the harness a hook right after every
persistence operation (where CrashMonkey inserts its checkpoint request).

How each operation kind runs is declared in
:data:`repro.workload.operations.OPERATIONS`, which also synthesizes the
deterministic data payloads of writes, so that file contents are
distinguishable (and content comparisons meaningful) without the workload
having to carry literal bytes around.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import FileSystemError
from .operations import Operation, spec_of
from .workload import Workload

#: Callback invoked right after a persistence operation completes.
#: Receives the operation and its index within the workload.
PersistenceCallback = Callable[[Operation, int], None]
#: Callback invoked right before any operation executes.
OperationCallback = Callable[[Operation, int], None]


class WorkloadExecutor:
    """Executes workloads against a mounted simulated file system."""

    def __init__(self, fs, *, strict: bool = False):
        """
        Args:
            fs: a mounted file system instance (any ``AbstractFileSystem``).
            strict: if True, file-system errors abort execution; if False
                (the default, matching CrashMonkey's behaviour for generated
                workloads) an operation that fails with a POSIX-style error is
                skipped and counted.
        """
        self.fs = fs
        self.strict = strict
        self.executed = 0
        self.skipped = 0
        self.persistence_count = 0

    # -- single operations --------------------------------------------------------

    def run_operation(self, op: Operation, index: int = 0) -> bool:
        """Execute one operation.  Returns True if it ran, False if skipped."""
        spec = spec_of(op)
        try:
            spec.run(self.fs, spec.bind(op), index)
        except FileSystemError:
            if self.strict:
                raise
            self.skipped += 1
            return False
        self.executed += 1
        return True

    # -- whole workloads -------------------------------------------------------------

    def run(self, workload: Workload,
            on_persistence: Optional[PersistenceCallback] = None,
            before_operation: Optional[OperationCallback] = None,
            after_operation: Optional[OperationCallback] = None,
            start_index: int = 0) -> None:
        """Execute a workload, invoking ``on_persistence`` after each persistence op.

        ``start_index`` skips the first operations (the prefix-shared
        recorder resumes mid-workload from a cached snapshot — operation
        indices stay absolute so payloads and callbacks are identical to a
        full run).  ``after_operation`` fires after each operation completes,
        after any ``on_persistence`` for it.  Both recording paths go through
        this one loop, so the executor's protocol (callback ordering, skip
        and persistence accounting) cannot diverge between them.
        """
        for index, op in enumerate(workload.ops[start_index:], start=start_index):
            if before_operation is not None:
                before_operation(op, index)
            ran = self.run_operation(op, index)
            if ran and op.is_persistence:
                self.persistence_count += 1
                if on_persistence is not None:
                    on_persistence(op, index)
            if after_operation is not None:
                after_operation(op, index)
