"""CrashMonkey — the end-to-end crash-testing harness.

Given a workload and a target file system, :class:`CrashMonkey`:

1. profiles the workload (records block I/O, oracles and the persisted set),
2. constructs a crash state per persistence point by replaying the recorded
   I/O onto a snapshot of the initial image,
3. mounts each crash state (running the file system's recovery) and runs the
   AutoChecker against the matching oracle,
4. emits a bug report for every crash point whose checks fail.

The harness is black box with respect to the file system: it only uses the
POSIX-ish API and the block-device write stream.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Iterable, Iterator, List, Optional, Sequence

from ..analysis.mechanisms import MechanismReport
from ..errors import HarnessError
from ..fs.bugs import BugConfig
from ..fs.registry import models, resolve_fs_name
from ..storage.block import DEFAULT_DEVICE_BLOCKS
from ..storage.spill import SpineStore
from ..workload.workload import Workload
from .checker import CheckPipeline
from .crashplan import (
    CrossWorkloadCache,
    GlobalDedupCache,
    ScopedDedupCache,
    make_planner,
)
from .recorder import WorkloadProfile, WorkloadRecorder
from .replayer import CrashStateGenerator, SharedReplayCache, default_share_replay
from .report import HARNESS_ERROR, BugReport, CrashTestResult, Mismatch


class CrashMonkey:
    """Crash-test workloads against one simulated file system."""

    def __init__(self, fs_name: str, bugs: Optional[BugConfig] = None,
                 device_blocks: int = DEFAULT_DEVICE_BLOCKS,
                 only_last_checkpoint: bool = False,
                 run_write_checks: bool = True,
                 checks: Optional[Sequence[str]] = None,
                 skip_checks: Iterable[str] = (),
                 crash_plan: str = "prefix",
                 reorder_bound: int = 2,
                 torn_bound: int = 2,
                 dedup_scenarios: bool = True,
                 share_prefixes: Optional[bool] = None,
                 share_replay: Optional[bool] = None,
                 cross_workload_dedup: bool = False,
                 global_dedup_cache: Optional[str] = None,
                 dedup_scope: Optional[str] = None,
                 analyze_mechanisms: Optional[bool] = None,
                 spine_memory_budget: Optional[int] = None,
                 spine_spill_dir: Optional[str] = None,
                 kernel_version: str = "4.16"):
        """
        Args:
            fs_name: simulator or real file-system name ("logfs" or "btrfs", ...).
            bugs: bug configuration for the simulated file system.  Defaults to
                every mechanism applicable to the file system (the unpatched
                kernels the paper tested).
            only_last_checkpoint: when True, only the final persistence point
                is crash-tested.  This mirrors the paper's testing strategy of
                running seq-1 before seq-2 before seq-3, which makes earlier
                crash points redundant.
            run_write_checks: legacy toggle for the write checks; equivalent
                to putting ``"write"`` in ``skip_checks``.
            checks: names of registered checks to run (None = all).
            skip_checks: names of registered checks to skip.
            crash_plan: crash-scenario plan per persistence point: "prefix"
                (one fully-persisted state, the classic model), "reorder"
                (additionally drop bounded subsets of in-flight writes), or
                "torn" (reorder plus sector-granular torn in-flight writes).
            reorder_bound: for the reorder/torn plans, the maximum number of
                blocks whose content may deviate from the baseline per
                scenario.
            torn_bound: for the torn plan, the maximum number of in-flight
                writes (metadata-tagged blocks first) torn per checkpoint.
            dedup_scenarios: skip constructing/checking crash states at a
                checkpoint that provably repeats an earlier one (same stable
                fork, window, and expectations — recurs whenever no flush or
                write intervenes between persistence points).
            share_prefixes: record shared ACE-sibling operation prefixes once
                and resume each sibling's profile from an O(1) snapshot fork
                (profiles stay byte-for-byte identical to from-scratch
                recording; this only changes how fast they are produced).
                ``None`` follows the recorder's default (on, unless the
                ``REPRO_NO_SHARE_PREFIXES`` environment variable is set).
            share_replay: resume each workload's one-pass crash-state build
                from the deepest cached cursor fork on its recorded stream's
                shared sibling prefix, instead of re-applying every shared
                write (crash states stay byte-for-byte identical to
                from-scratch construction; this only changes how fast they
                are built).  ``None`` follows :func:`default_share_replay`
                (on, unless the ``REPRO_NO_SHARE_REPLAY`` environment
                variable is set).
            cross_workload_dedup: additionally skip crash states at
                checkpoints whose states *and* expectations are byte-identical
                to ones already tested by an earlier workload of this
                harness's lifetime (ACE siblings re-reaching the shared
                prefix's persistence points).  Identical recurring states are
                then counted once — raw report counts drop accordingly.
            global_dedup_cache: path to a disk-backed (sqlite) sighting cache
                shared by every harness pointed at it.  With
                ``cross_workload_dedup`` enabled this promotes the dedup
                scope from harness-lifetime (per pool worker) to
                campaign-global: a checkpoint first tested by *any* worker is
                skipped by all of them.  Ignored when ``cross_workload_dedup``
                is off.
            dedup_scope: campaign identifier scoping the disk-backed sighting
                cache.  When given alongside ``global_dedup_cache`` the
                sightings are kept in a durable, campaign-scoped table (the
                campaign state database), so a resumed campaign sees exactly
                the sightings its own completed chunks produced — resumable
                ``cross_workload_dedup`` stops being history-dependent.
                Ignored without ``global_dedup_cache``.
            analyze_mechanisms: run the static mechanism analysis over each
                recorded stream (journal-commit / checkpoint-generation
                inference) while building crash states.  ``None`` enables it
                exactly when the crash planner consumes the report (the
                ``mechanism`` plan); forcing ``True`` on an exhaustive plan
                measures analysis overhead without changing the plan.
            spine_memory_budget: resident-byte budget shared by both trie
                spines (the recorder's prefix cache and the replay trail).
                Frozen nodes beyond the budget spill to disk and rehydrate
                transparently; results are byte-for-byte identical either
                way.  ``None`` follows
                :func:`~repro.storage.spill.default_spine_memory_budget`
                (generous — seq-1/seq-2 campaigns never spill unless the
                ``REPRO_SPINE_BUDGET`` environment variable lowers it).
            spine_spill_dir: directory for spilled spine nodes.  ``None``
                uses a private temporary directory; campaigns pass a
                per-campaign directory (the durable runner keeps it beside
                the state database) so every worker spills to one place.
            kernel_version: label attached to bug reports.
        """
        self.fs_name = resolve_fs_name(fs_name)
        self.fs_model = models(self.fs_name)
        self.bugs = bugs if bugs is not None else BugConfig.all_for(self.fs_name)
        self.only_last_checkpoint = only_last_checkpoint
        self.crash_plan = crash_plan
        self.reorder_bound = reorder_bound
        self.torn_bound = torn_bound
        self.dedup_scenarios = dedup_scenarios
        self.cross_workload_dedup = cross_workload_dedup
        self.analyze_mechanisms = analyze_mechanisms
        #: mechanism report inferred for the most recently tested workload
        #: (None until a workload ran with analysis enabled)
        self.last_mechanism_report: Optional[MechanismReport] = None
        # One planner instance serves every workload: prefix/reorder/torn are
        # stateless, and the mechanism planner's only state (the attached
        # report) is re-attached by the generator before each workload's
        # scenarios are enumerated.  Building it here fails fast on a bad
        # plan name or bound.
        self.planner = make_planner(crash_plan, reorder_bound, torn_bound)
        self.kernel_version = kernel_version
        #: one budgeted spill store serves both trie spines, so "resident
        #: spine bytes" is a single number the budget actually bounds
        self.spine_store = SpineStore(memory_budget=spine_memory_budget,
                                      spill_dir=spine_spill_dir,
                                      name=self.fs_name)
        self.recorder = WorkloadRecorder(self.fs_name, self.bugs, device_blocks=device_blocks,
                                         share_prefixes=share_prefixes,
                                         spine_store=self.spine_store)
        #: resolved value (the recorder applies the None -> default rule)
        self.share_prefixes = self.recorder.share_prefixes
        #: resolved value for shared crash-state replay
        self.share_replay = (default_share_replay() if share_replay is None
                             else share_replay)
        #: replay-trie spine shared by every workload this harness tests
        self.replay_cache = (SharedReplayCache(spine_store=self.spine_store)
                             if self.share_replay else None)
        #: cache of (crash states, expectations) keys; harness-lifetime and
        #: in-memory by default, campaign-global and disk-backed when a
        #: ``global_dedup_cache`` path is given.  One fixed fs/bugs/planner
        #: per harness (and per campaign) keeps its sightings sound.
        self.global_dedup_cache = global_dedup_cache if cross_workload_dedup else None
        self.dedup_scope = (dedup_scope if cross_workload_dedup
                            and global_dedup_cache is not None else None)
        if not cross_workload_dedup:
            self.cross_cache = None
        elif global_dedup_cache is not None and dedup_scope is not None:
            self.cross_cache = ScopedDedupCache(global_dedup_cache, dedup_scope)
        elif global_dedup_cache is not None:
            self.cross_cache = GlobalDedupCache(global_dedup_cache)
        else:
            self.cross_cache = CrossWorkloadCache()
        self.checker = CheckPipeline(checks=checks, skip_checks=skip_checks,
                                     run_write_checks=run_write_checks)

    # ------------------------------------------------------------------ public API

    def begin_chunk(self, index: int) -> None:
        """Tell the durable sighting cache which engine chunk is running.

        Sightings are stamped with the chunk that produced them so crash
        recovery can discard the ones from chunks that never completed
        (:meth:`~repro.service.statedb.CampaignStateDB.recover_from_crash`).
        A no-op for the in-memory and unscoped caches.
        """
        set_chunk = getattr(self.cross_cache, "set_chunk", None)
        if set_chunk is not None:
            set_chunk(index)

    def profile(self, workload: Workload) -> WorkloadProfile:
        """Phase 1 only: profile the workload and return the recording."""
        workload.validate()
        return self.recorder.profile(workload)

    def analyze(self, workload: Workload) -> MechanismReport:
        """Profile the workload and statically analyze its recorded stream.

        No crash state is constructed, mounted or checked — this is the pure
        static pass behind the ``analyze`` CLI subcommand.
        """
        from ..analysis.audit import audit_report
        from ..analysis.mechanisms import analyze_io_log

        profile = self.profile(workload)
        report = audit_report(
            analyze_io_log(profile.io_log, fs_name=self.fs_name),
            profile.io_log,
        )
        self.last_mechanism_report = report
        return report

    def test_workload(self, workload: Workload,
                      upcoming: Optional[Workload] = None) -> CrashTestResult:
        """Run the full record → replay → check pipeline on one workload.

        ``upcoming`` is the workload tested next, when the caller knows it
        (:meth:`test_stream` does); the recorder uses it to freeze only the
        prefix snapshots that workload can resume from.  Results do not
        depend on it.
        """
        workload.validate()
        result = CrashTestResult(
            workload=workload, fs_type=self.fs_name, fs_model=self.fs_model
        )
        store = self.spine_store
        spills_before = store.spills
        spilled_bytes_before = store.spilled_bytes
        rehydrations_before = store.rehydrations

        profile = self.recorder.profile(workload, upcoming=upcoming)
        result.profile_seconds = profile.profile_seconds
        result.recorded_requests = len(profile.io_log)
        result.recorded_bytes = profile.recorded_bytes
        result.executed_ops = profile.executed_ops
        result.skipped_ops = profile.skipped_ops
        result.prefix_shared = profile.prefix_shared
        result.prefix_ops_reused = profile.prefix_ops_reused
        result.prefix_writes_reused = profile.prefix_writes_reused
        result.prefix_seconds_saved = profile.prefix_seconds_saved

        checkpoints = profile.checkpoints()
        if self.only_last_checkpoint and checkpoints:
            checkpoints = [checkpoints[-1]]

        generator = CrashStateGenerator(profile, planner=self.planner,
                                        dedup_scenarios=self.dedup_scenarios,
                                        cross_cache=self.cross_cache,
                                        replay_cache=self.replay_cache,
                                        analyze=self.analyze_mechanisms)
        result.checkpoints_tested = len(checkpoints)
        scenario_iter = generator.generate_scenarios(checkpoints)
        while True:
            try:
                crash_state = next(scenario_iter)
            except StopIteration:
                break
            except HarnessError as exc:
                # A truncated or internally inconsistent recorded stream must
                # surface as a harness-error report (nothing the checker said
                # about this workload is trustworthy), never as a pass.
                result.bug_reports.append(self._harness_error_report(workload, exc))
                break
            result.replay_seconds += crash_state.replay_seconds
            result.mount_seconds += crash_state.mount_seconds
            result.fsck_seconds += crash_state.fsck_seconds
            result.crash_state_overlay_bytes = max(
                result.crash_state_overlay_bytes, crash_state.overlay_bytes
            )

            if crash_state.is_twin:
                # Byte-identical to a state of this checkpoint already
                # checked against the same oracle and tracker view: its
                # verdict is this state's verdict.
                mismatches = crash_state.verdict.mismatches
                if crash_state.inherited:
                    result.inherited_verdicts += 1
                else:
                    result.memoized_scenarios += 1
            else:
                check_start = time.perf_counter()
                mismatches, check_timings = self.checker.check_timed(profile, crash_state)
                result.check_seconds += time.perf_counter() - check_start
                for name, seconds in check_timings.items():
                    result.check_timings[name] = (
                        result.check_timings.get(name, 0.0) + seconds)
                crash_state.verdict.mismatches = mismatches
            result.scenarios_tested += 1

            if mismatches:
                scenario_id = crash_state.scenario_id
                result.bug_reports.append(
                    BugReport(
                        workload=workload,
                        fs_type=self.fs_name,
                        fs_model=self.fs_model,
                        checkpoint_id=crash_state.checkpoint_id,
                        crash_point=crash_state.crash_point,
                        mismatches=[replace(m, scenario=scenario_id) for m in mismatches],
                        kernel_version=self.kernel_version,
                        scenario=scenario_id,
                    )
                )
        # The one-pass incremental build is replay work shared by every state.
        result.replay_seconds += generator.build_seconds
        result.replayed_write_requests = generator.replayed_write_requests
        result.deduped_scenarios = generator.deduped_scenarios
        result.cross_deduped_scenarios = generator.cross_deduped_scenarios
        result.replay_shared = generator.replay_shared
        result.replay_writes_reused = generator.replay_writes_reused
        result.replay_seconds_saved = generator.replay_seconds_saved
        result.mechanism_checkpoints = generator.mechanism_checkpoints
        result.mechanism_fallback_checkpoints = generator.mechanism_fallback_checkpoints
        result.mechanism_demoted_checkpoints = generator.mechanism_demoted_checkpoints
        result.audit_demotions = generator.audit_demotions
        # Spine-spill telemetry: gauges read the store's current/high-water
        # state, the counters are this workload's deltas.
        result.spine_resident_bytes = store.resident_bytes
        result.spine_peak_resident_bytes = store.peak_resident_bytes
        result.spine_spilled_bytes = store.spilled_bytes - spilled_bytes_before
        result.spine_spills = store.spills - spills_before
        result.spine_rehydrations = store.rehydrations - rehydrations_before
        if generator.mechanism_report is not None:
            self.last_mechanism_report = generator.mechanism_report
        return result

    def _harness_error_report(self, workload: Workload, exc: Exception) -> BugReport:
        mismatch = Mismatch(
            check="harness",
            consequence=HARNESS_ERROR,
            path="",
            expected="recorded stream replayable at every selected persistence point",
            actual=str(exc),
            scenario=self.crash_plan,
        )
        return BugReport(
            workload=workload,
            fs_type=self.fs_name,
            fs_model=self.fs_model,
            checkpoint_id=-1,
            crash_point="crash-state generation failed",
            mismatches=[mismatch],
            kernel_version=self.kernel_version,
            scenario=self.crash_plan,
        )

    def test_stream(self, workloads) -> "Iterator[CrashTestResult]":
        """Lazily test a stream of workloads, yielding one result per workload.

        The harness is safe to reuse across arbitrarily many workloads: each
        profile run copies the recorder's pristine image (the re-mkfs step),
        so no state leaks between workloads.  This is what the execution
        engine's long-lived per-worker harnesses rely on.

        The stream is read one workload ahead: each workload is tested
        knowing its successor, which is what lets the recorder skip the
        prefix snapshots the successor would drop unread.
        """
        current, ahead = itertools.tee(workloads)
        next(ahead, None)
        for workload, upcoming in itertools.zip_longest(current, ahead):
            yield self.test_workload(workload, upcoming=upcoming)

    def test_workloads(self, workloads) -> List[CrashTestResult]:
        """Test a batch of workloads, returning one result per workload."""
        return list(self.test_stream(workloads))
