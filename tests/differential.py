"""One differential harness: the seq-1 space, shared references, seeded-unsound variants.

Every optimisation is admitted the way B3 admits a bounded space: the full
seq-1 space of all four simulated file systems is tested with and without it,
the answers must agree, and a deliberately unsound variant must make that
comparison fail (README, "Differential harnesses").  A variant is a function
of a ``pytest.MonkeyPatch`` that installs patches; an observer is a generator
function of one that installs patches, yields what they fill and may finish it
after the run.  Inside :func:`patched`, :func:`run` is the variant's side,
computed fresh, while :func:`reference` is served as if nothing were installed.
Patch through these, never with a test's own ``monkeypatch`` around
:func:`run`: a run no variant touches is served from the session's cache.
"""

import contextlib
import functools
import itertools
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.ace import AceSynthesizer, group_siblings, seq1_bounds, seq2_bounds, seq3_data_bounds
from repro.ace.adapter import CrashMonkeyAdapter
from repro.core import B3Campaign, CampaignConfig, CampaignResult
from repro.crashmonkey.recorder import WorkloadRecorder
from repro.crashmonkey.report import CrashTestResult
from repro.engine import ChunkOutcome, EngineRun, HarnessSpec
from repro.fs import resolve_fs_name
from repro.storage import CowDevice, RecordingDevice
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS, make_mounted_fs

ALL_FS = ("logfs", "seqfs", "flashfs", "verifs")

SPACES = {
    "seq-1": lambda: AceSynthesizer(seq1_bounds()).stream(),
    #: a contiguous run of the seq-2 space: a few whole sibling families
    "seq-2": lambda: AceSynthesizer(seq2_bounds()).stream(limit=150),
    "seq-1+seq-2": lambda: space("seq-1") + space("seq-2"),
    "seq-2-sample": lambda: AceSynthesizer(seq2_bounds()).sample(20),
    #: the first sibling family of seq-3-data (18 workloads)
    "seq-3-data-family": lambda: next(group_siblings(
        AceSynthesizer(seq3_data_bounds()).stream(limit=64))),
    #: siblings parting after one shared prefix in a namespace operation, so
    #: each resumes from the very node the one before it resumed from
    "namespace-siblings": lambda: tuple(
        parse_workload("creat foo\nwrite foo 0 4096\nfsync foo\n" + suffix, name=suffix)
        for suffix in ("mkdir d\nsync", "link foo bar\nsync", "rename foo baz\nsync",
                       "unlink foo\nsync")),
}


def space(name: str = "seq-1", limit: Optional[int] = None) -> tuple:
    """The workloads of ``name`` (its first ``limit``), built once per session."""
    return _space(name)[:limit]


@functools.lru_cache(maxsize=None)
def _space(name: str) -> tuple:
    return tuple(SPACES[name]())


@dataclass
class Run:
    """One harness's results over a space, and what its observer saw."""

    results: List[CrashTestResult]
    observer: Optional[Callable] = None
    seen: Any = None

    def total(self, counter: str):
        return sum(getattr(result, counter) for result in self.results)


#: (spec, test, stream, space, limit) -> the session's shared run
_RUNS: Dict[tuple, Run] = {}
#: (monkeypatch, variant) of every variant :func:`patched` installed
_INSTALLED: List[tuple] = []


@contextlib.contextmanager
def patched(variant: Callable):
    """Install ``variant`` for the block: :func:`run` inside is its side."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        variant(monkeypatch)
        _INSTALLED.append((monkeypatch, variant))
        try:
            yield
        finally:
            _INSTALLED.pop()


def recording_fork_sharing(attribute: str) -> Callable:
    """A variant: ``RecordingDevice.fork`` hands its twin its own ``attribute``
    (``_log`` or ``_window``), so a resumed sibling inherits what the run it
    was frozen from recorded after the freeze."""
    def variant(patch):
        real_fork = RecordingDevice.fork

        def fork(device):
            twin = real_fork(device)
            setattr(twin, attribute, getattr(device, attribute))
            return twin

        patch.setattr(RecordingDevice, "fork", fork)

    return variant


def rejects(variant: Callable, check: Callable, *args, match: Optional[str] = None):
    """A seeded-unsound ``variant``: ``check(*args)`` must fail while it is installed."""
    with patched(variant), pytest.raises(AssertionError, match=match):
        check(*args)


def run(fs_name: str, variant: Optional[Callable] = None, **spec) -> Run:
    """The side under test: a space tested under ``spec`` with ``variant`` installed.

    ``spec`` holds :class:`~repro.options.HarnessSpec` fields plus ``test`` (how
    one workload is tested: ``harness.test_workload`` unless given), ``stream``
    (test the space as one ``harness.test_stream``, which plans the spine),
    ``observe``, ``space`` and ``limit``.
    """
    if variant is not None:
        with patched(variant):
            return run(fs_name, **spec)
    if _INSTALLED:
        return _execute(*_key(fs_name, **spec))
    return reference(fs_name, **spec)


def reference(fs_name: str, **spec) -> Run:
    """What a variant is compared against: the session's unpatched run of ``spec``."""
    key, observe = _key(fs_name, **spec)
    shared = _RUNS.get(key)
    if shared is None or observe not in (None, shared.observer):
        with _uninstalled():
            shared = _RUNS[key] = _execute(key, observe)
    return shared


def _key(fs_name, *, test=None, stream=False, observe=None, space="seq-1", limit=None,
         **options):
    spec = HarnessSpec(fs_name=resolve_fs_name(fs_name), device_blocks=SMALL_DEVICE_BLOCKS,
                       **options)
    return (spec, test, stream, space, limit), observe


def _execute(key, observe) -> Run:
    spec, test, stream, space_name, limit = key
    harness = spec.build()
    workloads = space(space_name, limit)
    with pytest.MonkeyPatch.context() as monkeypatch:
        with (contextlib.contextmanager(observe)(monkeypatch) if observe is not None
              else contextlib.nullcontext()) as seen:
            if stream:
                results = harness.test_workloads(workloads)
            else:
                results = [harness.test_workload(workload) if test is None
                           else test(harness, workload) for workload in workloads]
    return Run(results, observe, seen)


@contextlib.contextmanager
def _uninstalled():
    """Lift every installed variant for the block, then put each back."""
    for monkeypatch, _ in reversed(_INSTALLED):
        monkeypatch.undo()
    try:
        yield
    finally:
        for monkeypatch, variant in _INSTALLED:
            variant(monkeypatch)


def assert_same(actual: Run, expected: Run, project=CrashTestResult.canonical_dict):
    """``project`` of every result agrees; a failure names the first workload that does not."""
    assert len(actual.results) == len(expected.results)
    for mine, theirs in zip(actual.results, expected.results):
        assert project(mine) == project(theirs), mine.workload.display_name()


# --------------------------------------------------------------- one layer down


def recorder(fs_name: str, bugs=None, **options) -> WorkloadRecorder:
    return WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS, **options)


def profiles(fs_name: str, bugs=None):
    """``(workload, profile)`` for every seq-1 workload, from one recorder."""
    recording = recorder(fs_name, bugs)
    for workload in space():
        yield workload, recording.profile(workload)


def executions(fs_name: str, bugs=None):
    """``(workload, fs, recording device)``: a freshly mounted ``fs_name`` per seq-1 workload."""
    for workload in space():
        fs, recording, _ = make_mounted_fs(fs_name, bugs)
        yield workload, fs, recording


def assert_profiles_equal(actual, expected, context=""):
    assert actual.io_log == expected.io_log, f"io_log {context}"
    assert actual.checkpoints() == expected.checkpoints(), context
    assert actual.oracles == expected.oracles, f"oracles {context}"
    assert actual.tracker_views == expected.tracker_views, f"views {context}"
    assert actual.num_checkpoints == expected.num_checkpoints, context
    assert actual.executed_ops == expected.executed_ops, context
    assert actual.skipped_ops == expected.skipped_ops, context
    assert actual.recorded_bytes == expected.recorded_bytes, context
    assert actual.workload_overlay_bytes == expected.workload_overlay_bytes, context


def assert_profiles_match(recording: WorkloadRecorder, fs_name: str, bugs=None,
                          space_name: str = "seq-1", plan: Optional[Callable] = None):
    """Every profile ``recording`` records over the space is the from-scratch one;
    ``plan(workloads)`` is the spine plan the caller hands over, one step per workload."""
    workloads = space(space_name)
    steps = plan(workloads) if plan is not None else [None] * len(workloads)
    for workload, step, expected in zip(workloads, steps,
                                        _from_scratch(fs_name, bugs, space_name)):
        assert_profiles_equal(recording.profile(workload, step=step), expected,
                              context=f"{fs_name} {workload.display_name()}")


def walked_records(profile) -> Dict[int, tuple]:
    """What the recording run's checkpoint records must equal, the slow way.

    One cursor walks ``profile.io_log`` from the base image, applying every
    write; the stable state is forked at each flush barrier, where the
    in-flight window starts over.  Checkpoint id -> ``(marker, baseline,
    stable, window)``: the marker's log index, the cursor forked there, the
    stable fork and the writes since it.
    """
    cursor = CowDevice(profile.base_image, name="walk")
    stable, window, records = cursor.snapshot(), (), {}
    for index, request in enumerate(profile.io_log):
        if request.is_write:
            cursor.write_block(request.block, request.data)
            window += (request,)
        elif request.is_flush:
            stable, window = cursor.snapshot(), ()
        elif request.is_checkpoint:
            records[request.checkpoint_id] = (index, cursor.snapshot(), stable, window)
    return records


def records_mismatch(profile) -> Optional[str]:
    """Where ``profile.records`` first differs from :func:`walked_records`, or ``None``."""
    walked = walked_records(profile)
    if profile.records.keys() != walked.keys():
        return f"checkpoints {sorted(profile.records)} != {sorted(walked)}"
    for checkpoint_id, record in sorted(profile.records.items()):
        marker, baseline, stable, window = walked[checkpoint_id]
        for part, mine, theirs in (
                ("marker", record.marker, marker),
                ("baseline", record.baseline.overlay_delta(), baseline.overlay_delta()),
                ("stable", record.stable.overlay_delta(), stable.overlay_delta()),
                ("window", record.window, window)):
            if mine != theirs:
                return f"{part} @ checkpoint {checkpoint_id}"
    return None


@functools.lru_cache(maxsize=1)
def _from_scratch(fs_name: str, bugs, space_name: str) -> tuple:
    """The space's from-scratch profiles, recorded unpatched; the last asked for stays."""
    scratch = recorder(fs_name, bugs, share_prefixes=False)
    with _uninstalled():
        profiles = tuple(map(scratch.profile, space(space_name)))
    assert scratch.prefix_hits == 0
    return profiles


# --------------------------------------------------------------- one layer up


def engine_run(config: CampaignConfig, workloads,
               **execution) -> Tuple[CampaignResult, EngineRun]:
    """``workloads`` tested as a campaign of ``config`` with ``execution``
    options replaced: its result, and its engine run (one :class:`ChunkRecord`
    per chunk)."""
    campaign = B3Campaign(replace(config, **execution))
    return campaign.run(workloads), campaign.last_run


def chunk_outcomes(config: CampaignConfig, workloads, **execution) -> List[ChunkOutcome]:
    """``workloads``, adapted, through the engine of a campaign of ``config``
    with ``execution`` options replaced: each chunk's outcome, in stream order
    (what :meth:`B3Campaign.run` collects into its result)."""
    campaign = B3Campaign(replace(config, **execution))
    outcomes: List[ChunkOutcome] = []
    campaign.engine().run(CrashMonkeyAdapter(campaign.fs_name).adapt_stream(workloads),
                          lambda outcome, _: outcomes.append(outcome))
    return sorted(outcomes, key=attrgetter("record.index"))


#: campaign config -> the session's result and engine run
_CAMPAIGNS: Dict[CampaignConfig, Tuple[CampaignResult, EngineRun]] = {}


def campaign(processes: int = 1, **options) -> Tuple[CampaignResult, EngineRun]:
    """The full seq-1 space as a campaign on ``btrfs``: one run per config and
    process count per session."""
    config = CampaignConfig(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                            chunk_size=32, processes=processes, **options)
    if config not in _CAMPAIGNS:
        _CAMPAIGNS[config] = engine_run(config, space())
    return _CAMPAIGNS[config]


def assert_campaigns_agree(option: str, values) -> dict:
    """Under each value of ``option``, serial and pooled: every campaign's
    ``canonical_dict()`` is the first's.  Results by (value, processes)."""
    results = {(value, processes): campaign(processes, **{option: value})[0]
               for value, processes in itertools.product(values, (1, 2))}
    expected = next(iter(results.values())).canonical_dict()
    assert expected["derived"]["raw_reports"] > 0, "the buggy seq-1 space must produce reports"
    for key, result in results.items():
        assert result.canonical_dict() == expected, f"{option},processes={key}"
    return results
