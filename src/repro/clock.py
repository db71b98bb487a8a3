"""The one clock every reported duration is read from.

Each timing field — a profile's ``profile_seconds``, a crash state's
``replay_seconds`` / ``mount_seconds`` / ``fsck_seconds``, a chunk's
``seconds``, an engine run's ``wall_clock_seconds`` — is measured by a
:class:`span` around the block it times, so which clock is read and
whether a raising block is charged is decided here, once.  This is the only
module under ``repro`` that imports :mod:`time`.
"""

from __future__ import annotations

import time
from typing import Any, Optional

#: the clock: monotonic seconds from an arbitrary origin
now = time.perf_counter


class span:
    """Time a ``with`` block; on exit add its seconds to ``owner.<name>``.

    The block is charged also when it raises.  Without an owner the span
    only measures: :attr:`seconds` reads the time since entry, inside the
    block or after it.
    """

    __slots__ = ("owner", "name", "start")

    def __init__(self, owner: Any = None, name: Optional[str] = None):
        self.owner = owner
        self.name = name

    def __enter__(self) -> "span":
        self.start = now()
        return self

    @property
    def seconds(self) -> float:
        return now() - self.start

    def __exit__(self, exc_type, exc, traceback) -> None:
        owner = self.owner
        if owner is not None:
            setattr(owner, self.name, getattr(owner, self.name) + (now() - self.start))
