"""The streaming, parallel campaign execution engine.

The one execution path behind every campaign: workloads stream from the
synthesizer through family-affine chunks onto an :class:`ExecutionBackend`
(serial or process pool, one long-lived harness per worker) and aggregate
incrementally into a :class:`CampaignResult`.  Engines are built by
:class:`~repro.core.campaign.B3Campaign`, which both the CLI and the durable
runner drive; a chunk's :class:`ChunkStats` (or, when a sink owns the
chunks, its :class:`ChunkRecord`) are the paper's per-VM batch.
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
    ChunkRecord,
    ChunkStats,
    EngineRun,
    ProgressEvent,
    family_chunks,
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
    "ChunkRecord",
    "ProgressEvent",
    "family_chunks",
    "DEFAULT_CHUNK_SIZE",
    "TimedIterator",
    "chunked_affine",
]
