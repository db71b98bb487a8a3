"""The check pipeline (CrashMonkey phase 3).

The paper's automatic checker, as a pipeline over the pluggable check
registry (:mod:`repro.crashmonkey.checks`): it resolves a selection of named
checks against a registry, runs them in registry order against each crash
state, and attributes wall-clock time to every check it ran.  The five legacy
checks produce byte-for-byte the mismatches of the original monolithic
checker, in the same order, followed by whatever the newer checks find.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..clock import now
from .checks import DEFAULT_REGISTRY, CheckContext, CheckRegistry
from .recorder import WorkloadProfile
from .report import HARNESS_ERROR, Mismatch
from .verdicts import CrashState


class CheckPipeline:
    """Runs a selection of registered checks against crash states.

    Args:
        checks: names of checks to run, in registry order (None = all).
        skip_checks: names of checks to skip (applied after ``checks``).
        registry: the registry to resolve names against (defaults to the
            process-wide :data:`DEFAULT_REGISTRY`).

    Unknown names raise ``KeyError`` at construction time, so a typo can
    never silently disable checking.
    """

    def __init__(self, checks: Optional[Sequence[str]] = None,
                 skip_checks: Iterable[str] = (),
                 registry: Optional[CheckRegistry] = None):
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.checks = self.registry.select(checks, skip_checks)
        # Pre-resolved dispatch plan for the hot loop: one attribute lookup
        # per pipeline instead of three per check per crash state.
        self._plan = [(check.run, check.name, check.requires_mount)
                      for check in self.checks]

    @property
    def check_names(self) -> Tuple[str, ...]:
        """Names of the checks this pipeline runs, in execution order."""
        return tuple(check.name for check in self.checks)

    # ------------------------------------------------------------------ entry points

    def check(self, profile: WorkloadProfile, crash_state: CrashState) -> List[Mismatch]:
        """Run the selected checks; return every mismatch in pipeline order."""
        mismatches, _ = self.check_timed(profile, crash_state)
        return mismatches

    def check_timed(self, profile: WorkloadProfile,
                    crash_state: CrashState) -> Tuple[List[Mismatch], Dict[str, float]]:
        """Like :meth:`check`, but also return per-check wall-clock seconds.

        The seconds add up to the whole call: the first check run is charged
        from entry, so the context set-up is attributed too.
        """
        prev = now()
        oracle = profile.oracles.get(crash_state.checkpoint_id)
        view = profile.tracker_views.get(crash_state.checkpoint_id)
        if oracle is None or view is None:
            # A recording bug must never masquerade as a passing crash state:
            # report the missing reference data as an explicit harness error.
            missing = []
            if oracle is None:
                missing.append("oracle")
            if view is None:
                missing.append("tracker view")
            return [
                Mismatch(
                    check="pipeline",
                    consequence=HARNESS_ERROR,
                    path="",
                    expected=(
                        "profile provides an oracle and a tracker view for "
                        f"checkpoint {crash_state.checkpoint_id}"
                    ),
                    actual=(
                        f"missing {' and '.join(missing)} for checkpoint "
                        f"{crash_state.checkpoint_id} (recorded checkpoints: "
                        f"{sorted(profile.oracles)})"
                    ),
                )
            ], {}

        ctx = CheckContext(profile=profile, crash_state=crash_state, oracle=oracle, view=view)
        mismatches: List[Mismatch] = []
        timings: Dict[str, float] = {}
        # Hot loop: runs once per crash state for every workload of a
        # campaign, and the simulated checks themselves only take a few µs,
        # so the bookkeeping is kept to one clock read per check (fencepost
        # style: each check is charged from the previous clock read to its
        # own, which folds the µs-scale loop overhead into the attribution
        # rather than paying a second read to exclude it).
        mountable = crash_state.mountable
        for run, name, requires_mount in self._plan:
            if requires_mount and not mountable:
                continue
            found = run(ctx)
            tick = now()
            timings[name] = tick - prev
            prev = tick
            if found:
                mismatches.extend(found)
        return mismatches, timings
