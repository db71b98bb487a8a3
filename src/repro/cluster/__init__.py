"""Test-cluster simulation: scheduling, parallel execution, and cost models."""

from .cost import CostModel
from .runner import ClusterRunResult, run_on_cluster
from .scheduler import (
    ClusterSpec,
    DeploymentEstimate,
    FairScheduler,
    estimate_campaign_hours,
    estimate_deployment,
    partition,
)

__all__ = [
    "ClusterSpec",
    "FairScheduler",
    "partition",
    "DeploymentEstimate",
    "estimate_deployment",
    "estimate_campaign_hours",
    "run_on_cluster",
    "ClusterRunResult",
    "CostModel",
]
