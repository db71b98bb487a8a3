"""repro — a pure-Python reproduction of B3 bounded black-box crash testing.

The package reimplements the system from "Finding Crash-Consistency Bugs with
Bounded Black-Box Crash Testing" (OSDI 2018): the CrashMonkey record/replay
crash-testing harness, the ACE bounded workload generator, simulated file
systems carrying the paper's bug classes, and the campaign/cluster layers used
to reproduce the paper's evaluation.
"""

__version__ = "1.0.0"

from . import errors, storage
from . import fs as filesystems  # re-exported under a readable name
from .crashmonkey.harness import CrashMonkey
from .engine import CampaignEngine, HarnessSpec, ProcessPoolBackend, SerialBackend
from .workload.language import parse_workload

__all__ = [
    "errors",
    "storage",
    "filesystems",
    "quick_campaign",
    "CrashMonkey",
    "CampaignEngine",
    "HarnessSpec",
    "SerialBackend",
    "ProcessPoolBackend",
    "parse_workload",
    "__version__",
]


def __getattr__(name: str):
    """``quick_campaign`` is imported on first use, so importing a layer below
    ``repro.core`` (a pool worker importing the engine) does not load it."""
    if name == "quick_campaign":
        from .core.campaign import quick_campaign
        return quick_campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
