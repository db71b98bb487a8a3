"""The streaming, parallel campaign execution engine.

The one execution path behind every campaign: workloads stream from the
synthesizer through family-affine chunks onto an :class:`ExecutionBackend`
(serial or process pool, one long-lived harness per worker), and each
chunk's :class:`ChunkOutcome` goes to the run's sink, which owns it: a plain
campaign's collector or the durable runner's state store.  The engine keeps
one :class:`ChunkRecord` per chunk, the paper's per-VM batch, and imports
nothing from the layers above it.  Engines are built by
:class:`~repro.core.campaign.B3Campaign`, which both the CLI and the durable
runner drive.
"""

from ..options import HarnessSpec
from .backends import (
    ChunkOutcome,
    ChunkRecord,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from .engine import (
    DEFAULT_CHUNK_SIZE,
    CampaignEngine,
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
    "ChunkRecord",
    "ProgressEvent",
    "family_chunks",
    "DEFAULT_CHUNK_SIZE",
    "TimedIterator",
    "chunked_affine",
]
