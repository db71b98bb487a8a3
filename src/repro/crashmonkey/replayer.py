"""Crash-state generator (CrashMonkey phase 2).

A crash state is a storage state a crash could leave behind at a persistence
point: the base disk image plus some crash-plan-chosen portion of the recorded
write stream.  Mounting the crash state runs the file system's own recovery
code (log/journal replay); if that fails, the crash state is un-mountable and
``fsck`` is consulted, exactly as in the paper.

Construction starts from what recording left behind: the recording device
forked its copy-on-write target at every flush barrier and at every
checkpoint marker, and kept the writes issued since the last barrier
(:class:`~.verdicts._CheckpointRecord`, one per persistence point, on the
profile).  Each crash state then mounts on a private fork of those, so no
recorded write is applied twice to reach a checkpoint: a state re-applies
only the in-flight window writes its scenario keeps.

Which states exist at a checkpoint is decided by the pluggable crash plan
(:mod:`repro.crashmonkey.crashplan`): the ``prefix`` plan reproduces the
classic one-state-per-checkpoint model byte for byte, while the ``reorder``
plan additionally explores crashes that lose bounded subsets of the in-flight
(post-last-flush, non-FUA) writes.  The generator enumerates the plan the
planner returns for its profile (:meth:`CrashPlanner.for_profile`) and knows
nothing of what that plan needs or counts.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..clock import span
from ..errors import HarnessError, UnmountableError
from ..fs import fsck
from ..fs.registry import get_fs_class
from ..storage.cow_device import CowDevice, ReadLog
from .crashplan import CrashPlanner, CrashScenario, PrefixPlanner
from .recorder import WorkloadProfile
from .tracker import TrackerView
from .verdicts import CrashState, CrashVerdict, _CheckpointRecord


def _normalized_tracker_view(view: TrackerView) -> Tuple:
    """Tracker view with the checkpoint numbering stripped, for equivalence."""
    files = {ino: replace(f, last_checkpoint=0) for ino, f in view.files.items()}
    dirs = {ino: replace(d, last_checkpoint=0) for ino, d in view.dirs.items()}
    return (files, dirs, view.renames)


class CrashStateGenerator:
    """Builds and mounts crash states from a workload profile."""

    def __init__(self, profile: WorkloadProfile, run_fsck_on_failure: bool = True,
                 planner: Optional[CrashPlanner] = None,
                 dedup_scenarios: bool = True):
        self.profile = profile
        self.fs_class = get_fs_class(profile.fs_name)
        self.run_fsck_on_failure = run_fsck_on_failure
        self.planner = planner if planner is not None else PrefixPlanner()
        #: ``planner.for_profile(profile)``, taken by the build: what the
        #: checkpoints' scenarios are enumerated from
        self.plan: Optional[CrashPlanner] = None
        #: skip constructing/checking a checkpoint's scenarios when an earlier
        #: checkpoint provably yields the same states and expectations
        self.dedup_scenarios = dedup_scenarios
        # Counters the harness gathers by name; each is documented where it is
        # declared, on the ``CrashTestResult`` field of the same name.
        self.replayed_write_requests = 0
        self.deduped_scenarios = 0
        #: wall-clock seconds spent before the first crash state: taking the
        #: profile's records and its plan (a mechanism plan analyses the stream)
        self.build_seconds = 0.0
        self._records: Optional[Dict[int, _CheckpointRecord]] = None

    # ------------------------------------------------------------------ records

    def _ensure_built(self) -> Dict[int, _CheckpointRecord]:
        """The profile's checkpoint records, and :attr:`plan`.

        The records are what the recording run captured (the recording
        device's fork at each marker, its fork at the last flush barrier and
        the writes since), so nothing here walks the stream to build a
        device.
        """
        if self._records is not None:
            return self._records
        with span(self, "build_seconds"):
            self.plan = self.planner.for_profile(self.profile)
            self._records = self.profile.records
        return self._records

    def _record_for(self, checkpoint_id: int) -> _CheckpointRecord:
        record = self._ensure_built().get(checkpoint_id)
        log = self.profile.io_log
        if (record is None or record.marker >= len(log)
                or log[record.marker].checkpoint_id != checkpoint_id):
            # A recorded stream that promises a persistence point (the oracle
            # exists) but carries no marker where its record says is
            # truncated or corrupt: that is a harness failure to surface,
            # never a checkpoint to skip.
            raise HarnessError(f"recorded stream has no checkpoint {checkpoint_id}")
        return record

    # ------------------------------------------------------------------ state construction

    def _scenario_device(self, record: _CheckpointRecord,
                         scenario: Optional[CrashScenario]) -> CowDevice:
        """Fork the device realizing ``scenario`` at ``record``'s checkpoint."""
        if scenario is None or scenario.is_baseline:
            return record.baseline.snapshot(name=f"crash-{record.checkpoint_id}")
        device = record.stable.snapshot(
            name=f"crash-{record.checkpoint_id}-{scenario.scenario_id}"
        )
        dropped = set(scenario.dropped_seqs)
        torn = dict(scenario.torn)
        for request in record.window:
            if not request.is_write or request.seq in dropped:
                continue
            sectors = torn.get(request.seq)
            if sectors is None:
                device.write_block(request.block, request.data)
            else:
                # Torn write: only the first `sectors` sectors of the payload
                # landed; the rest of the block keeps its prior content (the
                # stable state plus any earlier surviving window writes).
                device.write_sectors(request.block, request.data, sectors)
            self.replayed_write_requests += 1
        return device

    def _construct(self, record: _CheckpointRecord,
                   scenario: Optional[CrashScenario],
                   fresh: Optional[Set[CrashVerdict]] = None) -> CrashState:
        """Build ``scenario``'s device and mount it — unless ``record.memo``
        already holds the verdict of a state recovery cannot tell from it, in
        which case the state comes back as that verdict's twin: no device, no
        mount.  The only mount site.

        ``fresh`` is the calling pass's set of verdicts it has produced or
        taken so far (``None`` = always mount).  A verdict in it belongs to a
        state of this pass; one outside it was left by an earlier workload
        and is taken only once its findings are filed — a representative
        nobody checked is mounted and checked again, never trusted.
        """
        oracle = self.profile.oracles.get(record.checkpoint_id)
        crash_point = oracle.crash_point if oracle else f"checkpoint {record.checkpoint_id}"

        state = CrashState(
            checkpoint_id=record.checkpoint_id,
            crash_point=crash_point,
            build_device=partial(self._scenario_device, record, scenario),
            scenario=scenario,
        )
        with span(state, "replay_seconds"):
            key, state.overlay_bytes = record.memo.fold(scenario)

        reads = None
        if fresh is not None:
            verdicts = record.memo.verdicts_under(
                oracle, self.profile.tracker_views.get(record.checkpoint_id))
            known = verdicts.find(key, fresh)
            if known is not None:
                state.verdict, state.is_twin = known, True
                state.inherited = known not in fresh
                fresh.add(known)
                return state
            reads = ReadLog(record.memo.positions)

        with span(state, "replay_seconds"):
            device = state.device
            device.read_log = reads
        with span(state, "mount_seconds"):
            fs = self.fs_class(device, self.profile.bugs)
            try:
                fs.mount(inspect=True)
                state.fs = fs
            except UnmountableError as exc:
                # Without its traceback: that holds this frame, whose ``state``
                # holds the error — a cycle that keeps the record, the device
                # and the half-mounted fs alive until the collector happens by.
                state.mount_error = exc.with_traceback(None)
        if state.mount_error is not None and self.run_fsck_on_failure:
            with span(state, "fsck_seconds"):
                state.fsck_recovered_fs, state.fsck_report = fsck.repair(
                    self.fs_class, device, self.profile.bugs)
        state.verdict = CrashVerdict(mountable=state.fs is not None, reads=reads)
        if fresh is not None:
            verdicts.file(key, state.verdict)
            fresh.add(state.verdict)
        return state

    # ------------------------------------------------------------------ public API

    def generate(self, checkpoint_id: int) -> CrashState:
        """Construct, mount and (if necessary) fsck one prefix crash state."""
        return self._construct(self._record_for(checkpoint_id), None)

    def generate_all(self) -> Iterator[CrashState]:
        """Yield the prefix crash state per persistence point, in order."""
        for checkpoint_id in self.profile.checkpoints():
            yield self.generate(checkpoint_id)

    def generate_scenarios(
        self, checkpoint_ids: Optional[Sequence[int]] = None
    ) -> Iterator[CrashState]:
        """Yield a crash state per planner scenario per persistence point.

        With ``dedup_scenarios`` enabled, a checkpoint that provably repeats
        an earlier one is skipped entirely: when no flush and no write
        intervene, both share the same stable fork and in-flight window, so
        every ``(stable, dropped, torn)`` state the planner enumerates is
        byte-identical to one already constructed — and when the oracle and
        tracker expectations also match, re-mounting and re-checking it can
        only double-count the same bug reports.  Skipped scenarios are
        counted in :attr:`deduped_scenarios`.

        Within one checkpoint, scenarios recovery cannot tell apart — the
        same bytes (a tear inside the zero padding of a short log entry
        equals the baseline), or bytes that differ only in blocks neither
        recovery nor a check read (a lost segment summary) — are mounted
        once: the first is the representative, each later one is yielded as
        its twin (``is_twin``, own scenario and ``overlay_bytes``, no device
        until someone reads it, zero mount and fsck seconds) sharing the
        representative's :class:`CrashVerdict`.  Twins are still yielded —
        they count as tested and report under their own scenario id — so
        nothing downstream changes.  A representative stands for states that
        are not byte-identical to it only once the consumer has filed its
        findings (``state.verdict.mismatches = ...``), which seals its read
        log.

        The verdicts are kept on the checkpoint record, so a sibling
        workload whose recording resumed past the checkpoint — it shares the
        record, the oracle and the tracker view objects — gets its states
        back as twins too (``inherited``), provided the earlier workload's
        consumer filed what it found.
        """
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        tested: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            scenarios = self.plan.scenarios(checkpoint_id, record.window)
            if self.dedup_scenarios:
                key = (id(record.stable), tuple(r.seq for r in record.window))
                twin = tested.get(key)
                if twin is not None and self._checkpoints_equivalent(twin, checkpoint_id):
                    self.deduped_scenarios += sum(1 for _ in scenarios)
                    continue
                # Remember the *latest* checkpoint tested for this fork/window:
                # expectations drift monotonically with the workload, so the
                # nearest earlier twin is the one a later repeat can match.
                tested[key] = checkpoint_id
            fresh: Set[CrashVerdict] = set()
            for scenario in scenarios:
                yield self._construct(record, scenario, fresh)

    def _checkpoints_equivalent(self, tested_id: int, candidate_id: int) -> bool:
        """Whether checking ``candidate_id`` could find anything new.

        Called only for checkpoints that already share their stable fork and
        window (identical reachable crash states); what remains is whether the
        *expectations* agree: same oracle state and same tracker view (modulo
        checkpoint numbering).  A persistence point that promised new data
        without writing anything (a buggy no-op fsync path) changes the
        oracle, and its states must still be checked against it.
        """
        oracle_a = self.profile.oracles.get(tested_id)
        oracle_b = self.profile.oracles.get(candidate_id)
        if oracle_a is None or oracle_b is None or oracle_a.state != oracle_b.state:
            return False
        view_a = self.profile.tracker_views.get(tested_id)
        view_b = self.profile.tracker_views.get(candidate_id)
        if (view_a is None) != (view_b is None):
            return False
        if view_a is None:
            return True
        return _normalized_tracker_view(view_a) == _normalized_tracker_view(view_b)

    def scenario_plan(
        self, checkpoint_ids: Optional[Sequence[int]] = None
    ) -> Iterator[CrashScenario]:
        """Enumerate the planner's scenarios without constructing any state."""
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            yield from self.plan.scenarios(checkpoint_id, record.window)
