"""Oracles.

At each persistence point the profiler captures a reference — the *oracle*:
the state the file system would reach if every in-memory change so far were
durably persisted.  The paper's CrashMonkey gets it from a safe unmount; for
the simulated file systems the logical state of the mounted file system at
that moment is exactly that reference, so the oracle is a snapshot of
``fs.logical_state()`` (plus the inode → paths index the checker uses to
follow renames) and the recording run is never unmounted.  The recorder walks
the tree once per persistence point and hands the same dict to the tracker
and to the oracle, which adopts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fs.inode import FileState


@dataclass
class Oracle:
    """Reference (expected) file-system state at one persistence point."""

    checkpoint_id: int
    crash_point: str                        #: description of the persistence op
    state: Dict[str, FileState] = field(default_factory=dict)

    @classmethod
    def capture(cls, fs, checkpoint_id: int, crash_point: str) -> "Oracle":
        return cls(checkpoint_id=checkpoint_id, crash_point=crash_point, state=fs.logical_state())

    # -- queries -------------------------------------------------------------------

    def lookup(self, path: str) -> Optional[FileState]:
        return self.state.get(path)

    def exists(self, path: str) -> bool:
        return path in self.state

    def paths_of_ino(self, ino: int) -> List[str]:
        """All paths the oracle binds to inode ``ino`` (follows renames/links)."""
        return sorted(path for path, state in self.state.items() if state.ino == ino and path != "")

    def files(self) -> Dict[str, FileState]:
        return {path: state for path, state in self.state.items() if state.ftype == "file"}

    def directories(self) -> Dict[str, FileState]:
        return {path: state for path, state in self.state.items() if state.ftype == "dir"}

    def describe(self) -> str:
        lines = [f"oracle @ checkpoint {self.checkpoint_id} ({self.crash_point})"]
        for path, state in sorted(self.state.items()):
            if path == "":
                continue
            lines.append("  " + state.describe())
        return "\n".join(lines)
