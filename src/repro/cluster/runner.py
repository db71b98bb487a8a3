"""Parallel campaign execution.

Runs workload batches the way the paper's cluster does — many independent
CrashMonkey instances, each with its own devices and file-system instance:
the scheduler's :func:`partition` produces one batch per simulated VM, the engine
dispatches those batches onto a serial or process-pool backend (one long-lived
harness per worker), and each VM's ``seconds`` is the wall clock measured
inside the worker that ran its batch — not a uniform share of the pool's
elapsed time.  Results merge into a single :class:`CampaignResult` plus
per-VM statistics that feed the cluster-scale projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.results import CampaignResult
from ..engine.backends import make_backend
from ..engine.engine import CampaignEngine, ChunkStats
from ..options import HarnessSpec
from ..workload.workload import Workload
from .scheduler import ClusterSpec, estimate_campaign_hours, partition


@dataclass
class ClusterRunResult:
    """Outcome of a (simulated) cluster run."""

    campaign: CampaignResult
    #: one entry per simulated VM's batch, ``index`` being the VM
    vm_stats: List[ChunkStats] = field(default_factory=list)
    spec: ClusterSpec = field(default_factory=ClusterSpec)

    @property
    def wall_clock_seconds(self) -> float:
        """Wall clock if the batches had actually run in parallel."""
        return max((stats.seconds for stats in self.vm_stats), default=0.0)

    def projected_hours_on_cluster(self, num_workloads: Optional[int] = None) -> float:
        """Project the paper-scale run time from the measured per-workload latency."""
        tested = self.campaign.workloads_tested
        if tested == 0:
            return 0.0
        per_workload = self.campaign.testing_seconds / tested
        return estimate_campaign_hours(num_workloads or tested, per_workload, self.spec)

    def summary(self) -> str:
        return (
            f"{self.campaign.summary()}; simulated {len(self.vm_stats)} VM batches, "
            f"parallel wall clock {self.wall_clock_seconds:.2f}s"
        )


def run_on_cluster(spec: HarnessSpec, workloads: Sequence[Workload],
                   cluster: ClusterSpec = ClusterSpec(), *, processes: int = 1,
                   num_vms: Optional[int] = None, label: str = "") -> ClusterRunResult:
    """Test ``workloads`` under ``spec``, partitioned into VM-sized batches.

    ``processes=1`` runs the batches sequentially in-process, which is the
    most portable mode; larger values use the engine's process-pool backend.
    """
    if num_vms is None:
        num_vms = min(cluster.total_vms, max(len(workloads), 1))
    engine = CampaignEngine(spec, backend=make_backend(max(1, processes)))
    run = engine.run_indexed(enumerate(partition(workloads, num_vms)), label=label)
    return ClusterRunResult(campaign=run.result, vm_stats=run.chunks, spec=cluster)
