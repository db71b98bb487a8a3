"""Test-cluster simulation: scheduling, parallel execution, and cost models."""

from .cost import CostModel
from .runner import ClusterRunner, ClusterRunResult
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
    "ClusterRunner",
    "ClusterRunResult",
    "CostModel",
]
