"""Cost-of-computation model (paper §6.2).

The paper argues that the computation needed to crash-test a file system is
affordable: renting 780 ``t2.small`` instances for 48 hours at $0.023/hour
costs $861.12, and scaling to the full 25M seq-3 workload set multiplies that
by 7.5x for roughly $6.4K per file system.  This module reproduces those
arithmetic projections from measured per-workload latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheduler import ClusterSpec, estimate_campaign_hours


@dataclass(frozen=True)
class CostModel:
    """Cloud-rental cost model."""

    instance_hourly_rate: float = 0.023      #: $/hour for a t2.small on-demand instance
    instances: int = 780

    def campaign_cost(self, hours: float) -> float:
        """Cost of running the fleet for ``hours`` wall-clock hours."""
        return self.instances * hours * self.instance_hourly_rate

    def paper_48h_cost(self) -> float:
        """The paper's headline figure: 780 instances for 48 hours."""
        return self.campaign_cost(48.0)

    def full_space_cost(self, scale_factor: float = 25_000_000 / 3_370_000) -> float:
        """Projected cost for the complete seq-3 space (25M workloads)."""
        return self.paper_48h_cost() * scale_factor

    def cost_for_workloads(self, num_workloads: int, seconds_per_workload: float,
                           spec: ClusterSpec = ClusterSpec()) -> float:
        """Cost of testing a workload set given a measured per-workload latency."""
        return self.campaign_cost(
            estimate_campaign_hours(num_workloads, seconds_per_workload, spec))

    def pruned_campaign_cost(self, hours: float, scenario_reduction: float) -> float:
        """Fleet cost after mechanism pruning cuts the crash-state count.

        ``scenario_reduction`` is the exhaustive-to-pruned scenario ratio
        (e.g. 3.0 for the mechanism planner's asserted ≥3x seq-2 reduction).
        Crash-state testing dominates campaign wall clock, so the projected
        cost scales inversely with the ratio.
        """
        if scenario_reduction <= 0:
            raise ValueError("scenario_reduction must be positive")
        return self.campaign_cost(hours / scenario_reduction)
