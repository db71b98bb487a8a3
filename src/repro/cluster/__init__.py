"""Test-cluster models: deployment, testing time and cost at the paper's
scale.  The batches themselves are a campaign's chunks: the engine keeps a
:class:`~repro.engine.ChunkRecord` of each (``B3Campaign(...).last_run.chunks``)."""

from .cost import CostModel
from .scheduler import (
    ClusterSpec,
    DeploymentEstimate,
    estimate_campaign_hours,
    estimate_deployment,
)

__all__ = [
    "ClusterSpec",
    "DeploymentEstimate",
    "estimate_deployment",
    "estimate_campaign_hours",
    "CostModel",
]
