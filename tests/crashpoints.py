"""SIGKILL a durable campaign at its k-th persistence point.

A durable session persists through a handful of calls: the store's writes
(:data:`STORE_WRITES`) and, under a spine budget, each spine node written to
a spill file (a ``SpineStore.put`` that spilled).  B3 crashes a file system
only at its persistence points and tries every one of a bounded workload;
this helper does the same to the campaign runner:

* :func:`count` records the points an uninterrupted session passes;
* :func:`crash_at` forks a child that runs a durable campaign (a callable,
  or ``campaign`` CLI argv) and SIGKILLs it — its pool workers first, as
  they would die with their host — right after its k-th point;
  :func:`crash_each` does so at every k of a range, one child ahead.

Run as a script it kills a real CLI process in place, so a shell sees the
exit status 137::

    PYTHONPATH=src python tests/crashpoints.py --after 3 --at ingest_outcome -- \\
        campaign --state-db state.sqlite --campaign-id smoke --preset seq-2 --limit 60
"""

from __future__ import annotations

import argparse
import contextlib
import multiprocessing
import os
import signal
import sys
import traceback
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.service.statedb import CampaignStateDB
from repro.storage.spill import SpineStore

#: the store's writes: every call is a persistence point
STORE_WRITES = ("create_campaign", "recover_from_crash", "register_chunks",
                "claim_chunk", "ingest_outcome", "finish_census")
#: a spine node written to a spill file
SPILL = "SpineStore.put"
POINTS = (*STORE_WRITES, SPILL)

Campaign = Union[Callable[[], object], Sequence[str]]


@contextlib.contextmanager
def _wrapped(point: Callable[[str], None], at: Sequence[str]) -> Iterator[None]:
    """Call ``point(name)`` right after each call of a point in ``at`` that
    this process makes (a forked pool worker inherits the wrappers, not the
    count)."""
    owner = os.getpid()
    originals = [(CampaignStateDB, name, getattr(CampaignStateDB, name))
                 for name in STORE_WRITES if name in at]

    def store_write(name, original):
        def write(self, *args, **kwargs):
            value = original(self, *args, **kwargs)
            if os.getpid() == owner:
                point(name)
            return value
        return write

    for cls, name, original in originals:
        setattr(cls, name, store_write(name, original))
    if SPILL in at:
        put = SpineStore.put
        originals.append((SpineStore, "put", put))

        def spilling_put(self, node, nbytes):
            spills = self.spills
            key = put(self, node, nbytes)
            if self.spills > spills and os.getpid() == owner:
                point(SPILL)
            return key

        SpineStore.put = spilling_put
    try:
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


@contextlib.contextmanager
def count(at: Sequence[str] = POINTS) -> Iterator[List[str]]:
    """The names of the points passed inside the block, in order."""
    passed: List[str] = []
    with _wrapped(passed.append, at):
        yield passed


def _kill_after(after: int, at: Sequence[str]) -> contextlib.AbstractContextManager:
    """SIGKILL this process right after its ``after``-th point; the pool
    workers it started die first."""
    inherited = set(multiprocessing.active_children())
    passed = 0

    def point(name: str) -> None:
        nonlocal passed
        passed += 1
        if passed == after:
            for worker in multiprocessing.active_children():
                if worker not in inherited:
                    worker.kill()
            os.kill(os.getpid(), signal.SIGKILL)

    return _wrapped(point, at)


def _run(campaign: Campaign) -> int:
    if callable(campaign):
        campaign()
        return 0
    from repro.cli.main import main

    return main(list(campaign))


def _fork(after: int, campaign: Campaign, at: Sequence[str]) -> int:
    """Start ``campaign`` in a child killed right after its ``after``-th point."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child leaves through os._exit
        code = 1
        try:
            with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet), \
                    _kill_after(after, at):
                code = _run(campaign)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    return pid


def _reap(pid: int) -> int:
    """The child's return code as ``subprocess`` gives it (``-SIGKILL``: killed)."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def crash_at(after: int, campaign: Campaign, at: Sequence[str] = POINTS) -> int:
    """Run ``campaign`` in a forked child killed right after its
    ``after``-th point in ``at``; the child's return code."""
    return _reap(_fork(after, campaign, at))


def crash_each(points: Iterable[int], campaign: Callable[[int], Campaign],
               at: Sequence[str] = POINTS) -> Iterator[Tuple[int, int]]:
    """``(k, crash_at(k, campaign(k), at))`` for each k of ``points``; the
    child for the next k runs while the caller handles this one."""
    ahead = iter(points)
    k = next(ahead, None)
    child = None if k is None else _fork(k, campaign(k), at)
    try:
        while child is not None:
            code, child = _reap(child), None
            following = next(ahead, None)
            if following is not None:
                child = _fork(following, campaign(following), at)
            yield k, code
            k = following
    finally:
        if child is not None:
            _reap(child)


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--after", type=int, required=True,
                        help="SIGKILL right after this many points")
    parser.add_argument("--at", nargs="+", choices=POINTS, default=POINTS,
                        help="the points counted (default: all)")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the CLI command to run, after `--`")
    args = parser.parse_args(argv)
    command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    with _kill_after(args.after, args.at):
        return _run(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
