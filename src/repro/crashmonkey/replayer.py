"""Crash-state generator (CrashMonkey phase 2).

A crash state is a storage state a crash could leave behind at a persistence
point: the base disk image plus some crash-plan-chosen portion of the recorded
write stream.  Mounting the crash state runs the file system's own recovery
code (log/journal replay); if that fails, the crash state is un-mountable and
``fsck`` is consulted, exactly as in the paper.

Construction is *incremental*: one cursor walks the recorded stream exactly
once, applying every write to a chained-overlay :class:`CowDevice` and forking
an O(1) snapshot at each flush barrier and checkpoint marker.  Each crash
state then mounts on a private fork, so generating all states of a workload
replays each recorded write once — linear in the log length — instead of
re-scanning the prefix per checkpoint.

Which states exist at a checkpoint is decided by the pluggable crash plan
(:mod:`repro.crashmonkey.crashplan`): the ``prefix`` plan reproduces the
classic one-state-per-checkpoint model byte for byte, while the ``reorder``
plan additionally explores crashes that lose bounded subsets of the in-flight
(post-last-flush, non-FUA) writes.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..analysis.audit import audit_report
from ..analysis.mechanisms import MechanismReport
from ..clock import span
from ..errors import HarnessError, UnmountableError
from ..fs import fsck
from ..fs.registry import get_fs_class
from ..storage.cow_device import CowDevice, ReadLog
from ..storage.io_request import IORequest
from .crashplan import CrashPlanner, CrashScenario, PrefixPlanner
from .recorder import WorkloadProfile
from .replay_cache import SharedReplayCache, _CheckpointRecord, _ReplayNode
from .tracker import TrackerView
from .verdicts import CrashState, CrashVerdict


def _normalized_tracker_view(view: TrackerView) -> Tuple:
    """Tracker view with the checkpoint numbering stripped, for equivalence."""
    files = {ino: replace(f, last_checkpoint=0) for ino, f in view.files.items()}
    dirs = {ino: replace(d, last_checkpoint=0) for ino, d in view.dirs.items()}
    return (files, dirs, view.renames)


class CrashStateGenerator:
    """Builds and mounts crash states from a workload profile."""

    def __init__(self, profile: WorkloadProfile, run_fsck_on_failure: bool = True,
                 planner: Optional[CrashPlanner] = None,
                 dedup_scenarios: bool = True,
                 replay_cache: Optional[SharedReplayCache] = None,
                 analyze: Optional[bool] = None):
        self.profile = profile
        self.fs_class = get_fs_class(profile.fs_name)
        self.run_fsck_on_failure = run_fsck_on_failure
        self.planner = planner if planner is not None else PrefixPlanner()
        #: run the static mechanism analysis during the one-pass build.
        #: ``None`` = auto: on exactly when the planner consumes reports;
        #: an explicit flag forces it either way (the overhead benchmark and
        #: the ``analyze`` path use this).
        self.analyze = analyze if analyze is not None else self.planner.consumes_report
        #: the inferred mechanism report (populated by the build when
        #: :attr:`analyze` is on)
        self.mechanism_report: Optional[MechanismReport] = None
        #: skip constructing/checking a checkpoint's scenarios when an earlier
        #: checkpoint provably yields the same states and expectations
        self.dedup_scenarios = dedup_scenarios
        #: replay-trie spine resuming the one-pass build from the deepest
        #: cursor fork on the recorded stream's shared sibling prefix
        self.replay_cache = replay_cache
        # Counters the harness gathers by name; each is documented where it is
        # declared, on the ``CrashTestResult`` field of the same name.
        self.mechanism_checkpoints = 0
        self.mechanism_fallback_checkpoints = 0
        self.mechanism_demoted_checkpoints = 0
        self.audit_demotions = 0
        self.replayed_write_requests = 0
        self.replay_shared = False
        self.replay_writes_reused = 0
        self.replay_seconds_saved = 0.0
        self.deduped_scenarios = 0
        #: wall-clock seconds of the one-pass incremental build
        self.build_seconds = 0.0
        self._records: Optional[Dict[int, _CheckpointRecord]] = None

    # ------------------------------------------------------------------ one-pass build

    def _ensure_built(self) -> Dict[int, _CheckpointRecord]:
        """Walk the recorded stream once, forking a snapshot per checkpoint.

        With a :class:`SharedReplayCache` attached, the walk resumes from the
        deepest cached cursor fork on the stream's shared sibling prefix:
        checkpoint records inside the prefix are inherited as-is (they are
        the same frozen forks the sibling's build produced) and only the
        suffix's requests are applied.  Either way the records — and every
        crash state derived from them — are byte-for-byte what a from-scratch
        walk produces.
        """
        if self._records is not None:
            return self._records
        with span(self, "build_seconds") as clock:
            cache = self.replay_cache
            log = self.profile.io_log
            walk = cache.begin(self.profile, self.analyze) if cache is not None else None
            if walk is None:
                walk = _ReplayNode.root(self.profile, self.analyze)
            else:
                self.replay_shared = True
                self.replay_writes_reused = walk.replayed_writes
                self.replay_seconds_saved = walk.elapsed
            base_elapsed = walk.elapsed
            # The walk owns these three for good; everything else it rebinds.
            cursor, records, analysis = walk.cursor, walk.records, walk.analysis

            def freeze(fork: CowDevice) -> None:
                # ``fork`` *is* a frozen cursor fork (the stable state or the
                # checkpoint baseline): staging it costs no extra device work,
                # and the next sibling's ``begin`` decides whether it is kept.
                walk.index = index + 1
                walk.elapsed = base_elapsed + clock.seconds
                cache.freeze(walk, fork)

            for index in range(walk.index, len(log)):
                request = log[index]
                if analysis is not None:
                    analysis.feed(request)
                if request.is_write:
                    if request.block is None or request.data is None:
                        raise HarnessError(
                            f"malformed write request in recorded stream: {request!r}"
                        )
                    cursor.write_block(request.block, request.data)
                    self.replayed_write_requests += 1
                    walk.replayed_writes += 1
                    walk.window += (request,)
                elif request.is_flush:
                    # Everything before the barrier is durable: fork the stable
                    # state and start a fresh in-flight window.
                    walk.stable = cursor.snapshot(name="replay-stable")
                    walk.window = ()
                    if cache is not None:
                        freeze(walk.stable)
                elif request.is_checkpoint and request.checkpoint_id is not None:
                    baseline = cursor.snapshot(name=f"crash-{request.checkpoint_id}")
                    records[request.checkpoint_id] = _CheckpointRecord(
                        checkpoint_id=request.checkpoint_id,
                        baseline=baseline,
                        stable=walk.stable,
                        window=walk.window,
                    )
                    if cache is not None:
                        freeze(baseline)
            self._records = records
            if analysis is not None:
                # Second static pass: the contract auditor re-checks every claim
                # against the stream's actual fence/FUA edges and the cursor the
                # walk has just finished, and demotes violated ones before any
                # planner consumes the report.
                report = analysis.finish(self.profile.fs_name)
                self.mechanism_report = audit_report(report, self.profile.io_log, analysis)
                self.audit_demotions = self.mechanism_report.demotions
        return records

    def _attach_planner_report(self) -> None:
        """Hand the inferred report to the planner.

        Must run after the build and before enumeration.  The harness tests
        workloads sequentially, so re-attaching per workload keeps one shared
        planner instance correct across a campaign.
        """
        self.planner.attach_report(self.mechanism_report)

    def _count_mechanism_window(self, window: Tuple[IORequest, ...]) -> Optional[tuple]:
        """Classify ``window`` once: count its kind, and return what the
        planner's ``scenarios`` enumerates from (``None`` for planners that
        do not classify)."""
        classified = self.planner.classified(window)
        if classified is None:
            return None
        kind = classified[0]
        if kind == "demoted":
            # Audit-driven fallback: exhaustive coverage, attributed to the
            # auditor rather than to a failure of attribution.
            self.mechanism_fallback_checkpoints += 1
            self.mechanism_demoted_checkpoints += 1
        elif kind == "exhaustive":
            self.mechanism_fallback_checkpoints += 1
        elif kind != "empty":
            self.mechanism_checkpoints += 1
        return classified

    def _record_for(self, checkpoint_id: int) -> _CheckpointRecord:
        record = self._ensure_built().get(checkpoint_id)
        if record is None:
            # A recorded stream that promises a persistence point (the oracle
            # exists) but carries no marker is truncated or corrupt: that is
            # a harness failure to surface, never a checkpoint to skip.
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
        workload that resumed the replay trail and re-reaches the same
        record under the same oracle and tracker view objects gets its
        states back as twins too (``inherited``) — provided the earlier
        workload's consumer filed what it found.
        """
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        self._attach_planner_report()
        tested: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            classified = self._count_mechanism_window(record.window)
            # ``scenarios`` arguments; a planner that classifies takes its answer back
            plan = (checkpoint_id, record.window) + ((classified,) if classified else ())
            if self.dedup_scenarios:
                key = (id(record.stable), tuple(r.seq for r in record.window))
                twin = tested.get(key)
                if twin is not None and self._checkpoints_equivalent(twin, checkpoint_id):
                    self.deduped_scenarios += sum(1 for _ in self.planner.scenarios(*plan))
                    continue
                # Remember the *latest* checkpoint tested for this fork/window:
                # expectations drift monotonically with the workload, so the
                # nearest earlier twin is the one a later repeat can match.
                tested[key] = checkpoint_id
            fresh: Set[CrashVerdict] = set()
            for scenario in self.planner.scenarios(*plan):
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
        self._attach_planner_report()
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            yield from self.planner.scenarios(checkpoint_id, record.window)

    def window_kinds(self) -> Dict[str, int]:
        """Classify every persistence point's in-flight window, kind → count.

        Empty for planners that do not classify (prefix, reorder, torn).  Like :meth:`scenario_plan`, no crash state is constructed —
        this is the attribution view the ``analyze`` subcommand prints.
        """
        self._ensure_built()
        self._attach_planner_report()
        kinds: Dict[str, int] = {}
        for checkpoint_id in self.profile.checkpoints():
            kind = self.planner.classify_window(self._record_for(checkpoint_id).window)
            if kind is not None:
                kinds[kind] = kinds.get(kind, 0) + 1
        return kinds
