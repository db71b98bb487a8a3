"""The streaming, parallel campaign execution engine.

Single execution path shared by campaigns, the cluster runner and the CLI:
workloads stream from the synthesizer through chunked dispatch onto an
:class:`ExecutionBackend` (serial or process pool, one long-lived harness per
worker) and aggregate incrementally into a :class:`CampaignResult`.
"""

from ..options import HarnessSpec
from .backends import (
    ChunkOutcome,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from .engine import (
    DEFAULT_CHUNK_SIZE,
    CampaignEngine,
    ChunkStats,
    EngineRun,
    ProgressEvent,
    run_campaign,
)
from .stream import TimedIterator, chunked_affine

__all__ = [
    "HarnessSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ChunkOutcome",
    "make_backend",
    "CampaignEngine",
    "EngineRun",
    "ChunkStats",
    "ProgressEvent",
    "run_campaign",
    "DEFAULT_CHUNK_SIZE",
    "TimedIterator",
    "chunked_affine",
]
