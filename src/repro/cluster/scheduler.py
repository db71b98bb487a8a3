"""The test cluster's shape and its time models.

The paper deploys CrashMonkey on 65 Chameleon Cloud nodes running 12 virtual
machines each — 780 VMs testing workloads in parallel (§6.1).  The cluster
itself only contributes embarrassing parallelism plus deployment time.  The
parallelism is the engine's: a campaign's family-affine chunks are its
independent batches, each timed inside the worker that ran it (the
engine's :class:`~repro.engine.ChunkRecord` of it, in
``B3Campaign(...).last_run.chunks``).  What is left here is a model of how
long deployment and testing take at the paper's scale (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the test cluster (defaults are the paper's Chameleon setup)."""

    nodes: int = 65
    vms_per_node: int = 12
    #: seconds to copy one workload from the build host to a node (derived
    #: from the paper's 199 minutes for 3.37M workloads)
    copy_seconds_per_workload: float = 199 * 60 / 3_370_000
    #: seconds to group/assign one workload to a VM (34 minutes total in the paper)
    grouping_seconds_per_workload: float = 34 * 60 / 3_370_000
    #: seconds to copy one workload from a node to its VM (4 minutes total)
    vm_copy_seconds_per_workload: float = 4 * 60 / 3_370_000

    @property
    def total_vms(self) -> int:
        return self.nodes * self.vms_per_node

    def describe(self) -> str:
        return f"{self.nodes} nodes x {self.vms_per_node} VMs = {self.total_vms} VMs"


@dataclass
class DeploymentEstimate:
    """Time to group, copy and deploy a workload set (paper §6.4)."""

    grouping_seconds: float
    node_copy_seconds: float
    vm_copy_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.grouping_seconds + self.node_copy_seconds + self.vm_copy_seconds

    def describe(self) -> str:
        return (
            f"deployment: {self.grouping_seconds / 60:.1f} min grouping + "
            f"{self.node_copy_seconds / 60:.1f} min node copy + "
            f"{self.vm_copy_seconds / 60:.1f} min VM copy = {self.total_seconds / 60:.1f} min"
        )


def estimate_deployment(num_workloads: int, spec: ClusterSpec = ClusterSpec()) -> DeploymentEstimate:
    """Model the deployment phase for ``num_workloads`` workloads."""
    return DeploymentEstimate(
        grouping_seconds=num_workloads * spec.grouping_seconds_per_workload,
        node_copy_seconds=num_workloads * spec.copy_seconds_per_workload,
        vm_copy_seconds=num_workloads * spec.vm_copy_seconds_per_workload,
    )


def estimate_campaign_hours(num_workloads: int, seconds_per_workload: float,
                            spec: ClusterSpec = ClusterSpec()) -> float:
    """Wall-clock hours to test a workload set on the cluster.

    Workloads are spread evenly over the VMs; the slowest VM determines the
    wall clock.  ``seconds_per_workload`` is the measured single-workload
    test latency (4.6 s in the paper; milliseconds for the simulator).
    """
    per_vm = -(-num_workloads // spec.total_vms)  # ceiling division
    return per_vm * seconds_per_workload / 3600.0
