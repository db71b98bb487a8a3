"""CrashMonkey — record/replay crash testing with automatic checking."""

from .checker import CheckPipeline
from .checks import (
    DEFAULT_REGISTRY,
    LEGACY_CHECKS,
    Check,
    CheckContext,
    CheckRegistry,
    register,
)
from .crashplan import (
    PLAN_NAMES,
    CrashPlanner,
    CrashScenario,
    MechanismPlanner,
    PrefixPlanner,
    ReorderPlanner,
    TornWritePlanner,
    describe_planners,
    make_planner,
)
from .harness import CrashMonkey
from .oracle import Oracle
from .recorder import WorkloadProfile, WorkloadRecorder
from .replay_cache import SharedReplayCache
from .replayer import CrashStateGenerator
from .report import BugReport, CrashTestResult, Mismatch, Severity
from .tracker import PersistenceTracker, TrackedDir, TrackedFile, TrackerView
from .verdicts import CrashState, CrashVerdict

__all__ = [
    "CrashMonkey",
    "CheckPipeline",
    "Check",
    "CheckContext",
    "CheckRegistry",
    "DEFAULT_REGISTRY",
    "LEGACY_CHECKS",
    "register",
    "Oracle",
    "WorkloadProfile",
    "WorkloadRecorder",
    "CrashState",
    "CrashStateGenerator",
    "CrashVerdict",
    "SharedReplayCache",
    "CrashPlanner",
    "CrashScenario",
    "MechanismPlanner",
    "PrefixPlanner",
    "ReorderPlanner",
    "TornWritePlanner",
    "PLAN_NAMES",
    "describe_planners",
    "make_planner",
    "BugReport",
    "CrashTestResult",
    "Mismatch",
    "Severity",
    "PersistenceTracker",
    "TrackedFile",
    "TrackedDir",
    "TrackerView",
]
