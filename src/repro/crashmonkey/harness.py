"""CrashMonkey — the end-to-end crash-testing harness.

Given a workload and a target file system, :class:`CrashMonkey`:

1. profiles the workload (records block I/O, oracles and the persisted set),
2. constructs a crash state per persistence point from the forks recording
   took of the device at that point (plus the in-flight writes a crash plan
   keeps),
3. mounts each crash state (running the file system's recovery) and runs the
   check pipeline against the matching oracle,
4. emits a bug report for every crash point whose checks fail.

The harness is black box with respect to the file system: it only uses the
POSIX-ish API and the block-device write stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, List, Optional

from ..errors import HarnessError
from ..fs.bugs import BugConfig
from ..fs.registry import models, resolve_fs_name
from ..options import HarnessSpec
from ..storage.spill import SpineStore
from ..workload.workload import Workload
from .checker import CheckPipeline
from .crashplan import MechanismPlanner, MechanismReport, make_planner
from .recorder import PlanStep, WorkloadProfile, WorkloadRecorder, plan_spine
from .replayer import CrashStateGenerator
from .report import GENERATOR, HARNESS_ERROR, PLAN, PROFILE, BugReport, CrashTestResult, Mismatch


class CrashMonkey:
    """Crash-test workloads against one simulated file system."""

    def __init__(self, fs_name: Optional[str] = None, bugs: Optional[BugConfig] = None, *,
                 spec: Optional[HarnessSpec] = None, **options):
        """Build the harness ``spec`` describes, with ``options`` replaced.

        The options are the fields of :class:`~repro.options.HarnessSpec`
        (each documents itself there); ``CrashMonkey("logfs", torn_bound=1)``
        is shorthand for ``replace(HarnessSpec(), fs_name="logfs",
        torn_bound=1)``, and a name that is no field raises ``TypeError``.
        """
        if fs_name is not None:
            options["fs_name"] = fs_name
        if bugs is not None:
            options["bugs"] = bugs
        spec = replace(spec if spec is not None else HarnessSpec(), **options)
        #: the options this harness was built from — the one place they live
        self.spec = spec
        self.fs_name = resolve_fs_name(spec.fs_name)
        self.fs_model = models(self.fs_name)
        self.bugs = spec.bugs if spec.bugs is not None else BugConfig.all_for(self.fs_name)
        # One planner serves every workload: each workload's generator
        # enumerates ``planner.for_profile(profile)``, which is the planner
        # itself for prefix/reorder/torn and a fresh plan bound to the
        # workload's analysis for mechanism.  Building it here fails fast on a
        # bad plan name or bound.
        self.planner = make_planner(spec.crash_plan, spec.reorder_bound, spec.torn_bound)
        #: the budgeted spill store of the recorder's spine
        self.spine_store = SpineStore(memory_budget=spec.spine_memory_budget,
                                      spill_dir=spec.spine_spill_dir,
                                      name=self.fs_name)
        self.recorder = WorkloadRecorder(self.fs_name, self.bugs,
                                         device_blocks=spec.device_blocks,
                                         share_prefixes=spec.share_prefixes,
                                         spine_store=self.spine_store)
        self.checker = CheckPipeline(checks=spec.checks, skip_checks=spec.skip_checks)

    # ------------------------------------------------------------------ public API

    def profile(self, workload: Workload) -> WorkloadProfile:
        """Phase 1 only: profile the workload and return the recording."""
        workload.validate()
        return self.recorder.profile(workload)

    def analyze(self, workload: Workload) -> MechanismReport:
        """Profile the workload and return the audited report a mechanism
        plan of it is bound to.

        No crash state is constructed, mounted or checked.
        """
        return MechanismPlanner().for_profile(self.profile(workload)).report

    def test_workload(self, workload: Workload,
                      step: Optional[PlanStep] = None) -> CrashTestResult:
        """Run the full record → replay → check pipeline on one workload.

        ``step`` is the workload's entry of the spine plan of the stream it
        is tested in, when the caller knows that stream (:meth:`test_stream`
        does); the spine then keeps only the nodes later workloads resume
        from.  Results do not depend on it.
        """
        workload.validate()
        result = CrashTestResult(
            workload=workload, fs_type=self.fs_name, fs_model=self.fs_model
        )
        store = self.spine_store
        spills_before = store.spills
        spilled_bytes_before = store.spilled_bytes
        rehydrations_before = store.rehydrations

        profile = self.recorder.profile(workload, step=step)
        for name in CrashTestResult.GATHERED[PROFILE]:
            setattr(result, name, getattr(profile, name))
        result.recorded_requests = len(profile.io_log)

        checkpoints = profile.checkpoints()
        if self.spec.only_last_checkpoint and checkpoints:
            checkpoints = [checkpoints[-1]]

        generator = CrashStateGenerator(profile, planner=self.planner,
                                        dedup_scenarios=self.spec.dedup_scenarios)
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
                # Recovery cannot tell it from a state of this checkpoint
                # already checked against the same oracle and tracker view:
                # that state's verdict is this state's verdict.
                mismatches = crash_state.verdict.mismatches
                if crash_state.inherited:
                    result.inherited_verdicts += 1
                else:
                    result.memoized_scenarios += 1
            else:
                mismatches, check_timings = self.checker.check_timed(profile, crash_state)
                result.check_seconds += sum(check_timings.values())
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
                        scenario=scenario_id,
                    )
                )
        # Taking the records and the plan (a mechanism plan analyses the
        # stream) is replay work shared by every state.
        result.replay_seconds += generator.build_seconds
        for name in CrashTestResult.GATHERED[GENERATOR]:
            setattr(result, name, getattr(generator, name))
        for name in CrashTestResult.GATHERED[PLAN]:
            # A plan that keeps no such counter counted nothing.
            setattr(result, name, getattr(generator.plan, name, 0))
        # Spine-spill telemetry: gauges read the store's current/high-water
        # state, the counters are this workload's deltas.
        result.spine_resident_bytes = store.resident_bytes
        result.spine_peak_resident_bytes = store.peak_resident_bytes
        result.spine_spilled_bytes = store.spilled_bytes - spilled_bytes_before
        result.spine_spills = store.spills - spills_before
        result.spine_rehydrations = store.rehydrations - rehydrations_before
        return result

    def _harness_error_report(self, workload: Workload, exc: Exception) -> BugReport:
        mismatch = Mismatch(
            check="harness",
            consequence=HARNESS_ERROR,
            path="",
            expected="recorded stream replayable at every selected persistence point",
            actual=str(exc),
            scenario=self.spec.crash_plan,
        )
        return BugReport(
            workload=workload,
            fs_type=self.fs_name,
            fs_model=self.fs_model,
            checkpoint_id=-1,
            crash_point="crash-state generation failed",
            mismatches=[mismatch],
            scenario=self.spec.crash_plan,
        )

    def test_stream(self, workloads) -> "Iterator[CrashTestResult]":
        """Test a stream of workloads, yielding each result as it is tested.

        The harness is safe to reuse across arbitrarily many workloads: each
        profile run copies the recorder's pristine image (the re-mkfs step),
        so no state leaks between workloads.  This is what the execution
        engine's long-lived per-worker harnesses rely on.

        The stream is read whole before its first workload is tested (the
        engine hands over one chunk): :func:`~.recorder.plan_spine` works out
        from every workload's prefix keys which spine nodes a later workload
        resumes from, and only those are kept — bar the trie root and the
        last workload's nodes, which the next stream may resume from.
        """
        for step in plan_spine(tuple(workloads)):
            yield self.test_workload(step.workload, step=step)

    def test_workloads(self, workloads) -> List[CrashTestResult]:
        """Test a batch of workloads, returning one result per workload."""
        return list(self.test_stream(workloads))
