"""Test-cluster models: deployment, testing time and cost at the paper's
scale, and tenant-fair scheduling.  The batches themselves are a campaign's
chunks (``B3Campaign(...).last_run.chunks``)."""

from .cost import CostModel
from .scheduler import (
    ClusterSpec,
    DeploymentEstimate,
    FairScheduler,
    estimate_campaign_hours,
    estimate_deployment,
)

__all__ = [
    "ClusterSpec",
    "FairScheduler",
    "DeploymentEstimate",
    "estimate_deployment",
    "estimate_campaign_hours",
    "CostModel",
]
