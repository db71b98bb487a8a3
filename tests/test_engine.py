"""The streaming, parallel campaign execution engine."""

import os
import subprocess
import sys

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.cluster import estimate_campaign_hours
from repro.core import B3Campaign, CampaignConfig, quick_campaign
from repro.crashmonkey import CrashMonkey
from repro.core.results import CampaignResult
from repro.engine import (
    CampaignEngine,
    ChunkRecord,
    HarnessSpec,
    ProcessPoolBackend,
    SerialBackend,
    TimedIterator,
    family_chunks,
    make_backend,
)

import differential
from conftest import SMALL_DEVICE_BLOCKS


def _spec(**kwargs) -> HarnessSpec:
    kwargs.setdefault("fs_name", "btrfs")
    kwargs.setdefault("device_blocks", SMALL_DEVICE_BLOCKS)
    return HarnessSpec(**kwargs)


def _config(**kwargs) -> CampaignConfig:
    kwargs.setdefault("fs_name", "btrfs")
    kwargs.setdefault("device_blocks", SMALL_DEVICE_BLOCKS)
    return CampaignConfig(bounds=seq1_bounds(), **kwargs)


def _fingerprint(result):
    """Everything that identifies one workload's findings."""
    return (
        result.workload.name,
        result.workload.workload_id(),
        result.passed,
        result.checkpoints_tested,
        tuple(
            (report.checkpoint_id, report.consequence, len(report.mismatches))
            for report in result.bug_reports
        ),
    )


class TestStreamHelpers:
    def test_timed_iterator_counts_and_times(self):
        timed = TimedIterator(iter(range(5)))
        assert list(timed) == [0, 1, 2, 3, 4]
        assert timed.count == 5
        assert timed.seconds >= 0.0


class TestSerialEngine:
    def test_full_seq1_space_matches_direct_harness_run(self):
        workloads = differential.space()
        result, run = differential.campaign()
        direct = differential.reference("btrfs").results
        assert [_fingerprint(r) for r in result.results] == \
            [_fingerprint(r) for r in direct]
        assert result.workloads_tested == len(workloads)
        assert result.testing_seconds == run.testing_seconds > 0
        assert result.generation_seconds == run.generation_seconds >= 0

    def test_generation_is_streamed_not_materialized(self):
        total = AceSynthesizer(seq1_bounds()).count()
        pulled_at_event = []

        pulled = 0

        def counting_source():
            nonlocal pulled
            for workload in AceSynthesizer(seq1_bounds()).generate():
                pulled += 1
                yield workload

        def on_progress(event):
            pulled_at_event.append((pulled, event.workloads_done))

        engine = CampaignEngine(_spec(), backend=SerialBackend(), chunk_size=32,
                                progress=on_progress)
        engine.run(counting_source(), lambda outcome, seconds: None)

        # At the first completed chunk, the generator must not be exhausted:
        first_pulled, first_done = pulled_at_event[0]
        assert first_done == 32
        assert first_pulled < total
        # The serial backend never runs ahead of testing by more than a chunk.
        for pulled_count, done in pulled_at_event:
            assert pulled_count <= done + 32

    def test_progress_events_accumulate(self):
        events = []
        engine = CampaignEngine(_spec(), chunk_size=10, progress=events.append)
        workloads = AceSynthesizer(seq1_bounds()).sample(25)
        outcomes = []
        run = engine.run(iter(workloads), lambda outcome, _: outcomes.append(outcome))
        assert [event.chunks_done for event in events] == [1, 2, 3]
        assert [event.workloads_done for event in events] == [10, 20, 25]
        assert events[-1].failing_workloads == \
            sum(outcome.record.failing_workloads for outcome in outcomes)
        assert all(event.chunk.seconds > 0 for event in events)
        # Each event carries the record the run keeps of its chunk.
        assert [event.chunk for event in events] == run.chunks

    def test_a_backend_built_with_a_harness_runs_the_spec_it_is_handed(self):
        harness = CrashMonkey(spec=_spec(fs_name="logfs"))
        chunks = [(0, list(differential.space(limit=3)))]
        (outcome,) = SerialBackend(harness=harness).execute(_spec(fs_name="seqfs"), chunks)
        assert {result.fs_type for result in outcome.results} == {"seqfs"}
        backend = SerialBackend(harness=harness)
        list(backend.execute(_spec(fs_name="logfs"), chunks))
        assert backend._harness is harness

    def test_empty_stream_yields_empty_result(self):
        result, run = differential.engine_run(_config(), iter(()))
        assert result.workloads_tested == 0
        assert run.chunks == []
        assert run.max_chunk_seconds == 0.0
        assert run.testing_seconds == 0.0


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize("entry", ["run", "run_indexed"])
def test_the_sink_gets_every_chunk_once_and_all_the_testing_seconds(entry, processes):
    """Whichever entry and backend: each chunk's outcome reaches the sink once,
    with seconds that sum to the run's testing time."""
    workloads = AceSynthesizer(seq1_bounds()).sample(24)
    engine = CampaignEngine(_spec(), backend=make_backend(processes), chunk_size=4)
    sunk = []

    def sink(outcome, seconds):
        sunk.append((outcome, seconds))

    if entry == "run":
        run = engine.run(iter(workloads), sink)
    else:
        timed = TimedIterator(workloads)
        run = engine.run_indexed(enumerate(family_chunks(timed, 4)), sink, timed)
        assert run.generation_seconds == timed.seconds
    assert run.generation_seconds > 0.0
    expected = [len(chunk) for chunk in family_chunks(workloads, 4)]
    assert sorted(outcome.record.index for outcome, _ in sunk) == list(range(len(expected)))
    assert run.chunks == sorted((outcome.record for outcome, _ in sunk),
                                key=lambda record: record.index)
    assert [record.workloads for record in run.chunks] == expected
    # ``run`` hands results over as tested, ``run_indexed`` packed for a store.
    packed = entry == "run_indexed"
    assert all((outcome.rows is not None, outcome.results == []) == (packed, packed)
               for outcome, _ in sunk)
    seconds = [seconds for _, seconds in sunk]
    assert all(second >= 0.0 for second in seconds)
    assert sum(seconds) == run.testing_seconds > 0.0
    assert run.testing_seconds <= run.wall_clock_seconds


def test_a_plain_run_reads_as_the_results_it_collected():
    """The collected outcomes' merged roll-ups and partials read exactly as the
    same results rolled up and grouped whole, and as one harness's results."""
    result, _ = differential.campaign()

    def whole(results):
        return CampaignResult(result.fs_name, result.fs_model, label=result.label,
                              results=list(results),
                              generation_seconds=result.generation_seconds,
                              testing_seconds=result.testing_seconds)

    assert len(result.grouped_reports()) > 1
    assert result.describe() == whole(result.results).describe()
    assert result.canonical_dict() == whole(result.results).canonical_dict() == \
        whole(differential.reference("btrfs").results).canonical_dict()


class TestProcessPoolEngine:
    def test_pool_and_serial_find_identical_bugs_on_full_seq1_space(self):
        serial, _ = differential.campaign()
        pooled, run = differential.engine_run(_config(), AceSynthesizer(seq1_bounds()).generate(),
                                              processes=2, chunk_size=48)
        assert serial.workloads_tested == pooled.workloads_tested
        # Identical findings in identical (sorted) order.
        assert [_fingerprint(r) for r in serial.results] == \
            [_fingerprint(r) for r in pooled.results]
        assert serial.failing_workloads == pooled.failing_workloads
        assert len(serial.grouped_reports()) == len(pooled.grouped_reports())
        # Real per-chunk timing measured inside the workers.
        assert all(record.seconds > 0 for record in run.chunks)
        assert any(record.worker.startswith("pid-") for record in run.chunks)

    def test_pool_consumes_the_stream_lazily(self):
        total = AceSynthesizer(seq1_bounds()).count()
        chunk_size, processes = 16, 2
        backend = ProcessPoolBackend(processes=processes)
        pulled = 0
        high_water = []

        def counting_source():
            nonlocal pulled
            for workload in AceSynthesizer(seq1_bounds()).generate():
                pulled += 1
                yield workload

        def on_progress(event):
            high_water.append((pulled, event.workloads_done))

        engine = CampaignEngine(_spec(), backend=backend, chunk_size=chunk_size,
                                progress=on_progress)
        run = engine.run(counting_source(), lambda outcome, seconds: None)
        assert sum(record.workloads for record in run.chunks) == total
        first_pulled, _ = high_water[0]
        assert first_pulled < total
        # The submission window (two chunks per worker) bounds how far
        # generation runs ahead of testing.
        for pulled_count, done in high_water:
            assert pulled_count <= done + chunk_size * (2 * processes + 1)

    def test_check_selection_propagates_to_pool_workers(self):
        """Workers rebuild identical pipelines from the pickled spec."""
        workloads = list(AceSynthesizer(seq1_bounds()).sample(40))
        mount_only = _config(checks=("mount",))
        serial, _ = differential.engine_run(mount_only, iter(workloads))
        pooled, _ = differential.engine_run(mount_only, iter(workloads), processes=2,
                                            chunk_size=8)
        assert [_fingerprint(r) for r in serial.results] == \
            [_fingerprint(r) for r in pooled.results]
        # Every surviving mismatch came from the one selected check, and the
        # per-check attribution only mentions it.
        for result in pooled.results:
            assert set(result.check_timings) <= {"mount"}
            for report in result.bug_reports:
                assert {m.check for m in report.mismatches} == {"mount"}

    def test_skip_checks_spec_changes_findings(self):
        workloads = list(AceSynthesizer(seq1_bounds()).sample(40))
        full, _ = differential.engine_run(_config(), iter(workloads))
        skipped, _ = differential.engine_run(_config(skip_checks=("write", "read", "directory")),
                                             iter(workloads))
        skipped_checks = {m.check
                          for result in skipped.results
                          for report in result.bug_reports
                          for m in report.mismatches}
        assert "write" not in skipped_checks
        assert "read" not in skipped_checks
        assert skipped.failing_workloads <= full.failing_workloads


class TestCampaignFacade:
    def test_campaign_runs_through_the_engine(self):
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(),
                                max_workloads=40, device_blocks=SMALL_DEVICE_BLOCKS)
        campaign = B3Campaign(config)
        result = campaign.run()
        assert result.workloads_tested == 40
        assert campaign.last_run is not None
        assert result.testing_seconds == campaign.last_run.testing_seconds
        assert sum(record.workloads for record in campaign.last_run.chunks) == 40

    def test_parallel_campaign_matches_serial_findings(self):
        serial = quick_campaign("btrfs", seq_length=1, max_workloads=100)
        pooled = quick_campaign("btrfs", seq_length=1, max_workloads=100, processes=2)
        assert [_fingerprint(r) for r in serial.results] == \
            [_fingerprint(r) for r in pooled.results]

    def test_supplied_workloads_keep_input_order(self):
        # Result order must correspond positionally to the supplied workloads,
        # even when names do not sort lexicographically (w10 < w2) and even
        # through the unordered pool backend.
        workloads = AceSynthesizer(seq1_bounds()).sample(12)
        for index, workload in enumerate(workloads):
            workload.name = f"w{12 - index}"
        config = CampaignConfig(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                                chunk_size=3)
        result = B3Campaign(config).run(list(workloads))
        assert [r.workload.name for r in result.results] == \
            [w.name for w in workloads]
        pooled_config = CampaignConfig(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                                       chunk_size=3, processes=2)
        pooled = B3Campaign(pooled_config).run(list(workloads))
        assert [r.workload.name for r in pooled.results] == \
            [w.name for w in workloads]

    def test_iter_workloads_is_lazy(self):
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(),
                                device_blocks=SMALL_DEVICE_BLOCKS)
        supply = B3Campaign(config).iter_workloads()
        # An iterator, not a list — pulling one item does not build the space.
        assert iter(supply) is iter(supply)
        first = next(supply)
        assert first.name.endswith("0000001")


class TestCampaignChunksAreTheClusterBatches:
    """A campaign's chunks are the paper's VM batches: each with its own
    in-worker seconds, worker and roll-ups."""

    def test_empty_workload_set_has_no_phantom_batches(self):
        campaign = B3Campaign(_config())
        result = campaign.run([])
        assert result.workloads_tested == 0
        assert campaign.last_run.chunks == []
        assert campaign.last_run.max_chunk_seconds == 0.0

    def test_batch_seconds_are_measured_per_chunk_not_uniform(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(24)
        campaign = B3Campaign(_config(processes=2, chunk_size=6))
        campaign.run(workloads)
        chunks = campaign.last_run.chunks
        assert len(chunks) == 4
        assert all(type(record) is ChunkRecord for record in chunks)
        assert all(record.seconds > 0 for record in chunks)
        # Real measurements from a pool are wall clocks of distinct batches,
        # not one elapsed time divided evenly.
        assert len({round(record.seconds, 9) for record in chunks}) > 1
        assert all(record.worker.startswith("pid-") for record in chunks)
        assert campaign.last_run.max_chunk_seconds == max(record.seconds for record in chunks)

    def test_batch_roll_ups_sum_to_the_campaign(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(30)
        outcomes = differential.chunk_outcomes(_config(), workloads, processes=2, chunk_size=8)
        # The campaign of the same results, rolled up from the results themselves.
        result = CampaignResult("btrfs", "btrfs",
                                results=[test for outcome in outcomes for test in outcome.results])
        assert sum(outcome.record.workloads for outcome in outcomes) == \
            result.workloads_tested == 30
        assert sum(outcome.record.failing_workloads for outcome in outcomes) == \
            result.failing_workloads
        for name in ("crash_points_tested", "scenarios_tested"):
            assert sum(getattr(outcome, name) for outcome in outcomes) == getattr(result, name)
        assert result.crash_points_tested > 0

    def test_pooled_batches_match_serial_campaign_findings(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(30)
        pooled = B3Campaign(_config(processes=2, chunk_size=10)).run(workloads)
        direct = B3Campaign(_config()).run(workloads)
        # Chunks never reorder the stream, so findings line up one for one.
        assert [_fingerprint(r) for r in pooled.results] == \
            [_fingerprint(r) for r in direct.results]

    def test_projection_to_cluster_scale(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(10)
        result = B3Campaign(_config()).run(workloads)
        per_workload = result.testing_seconds / result.workloads_tested
        assert estimate_campaign_hours(780, per_workload) == \
            pytest.approx(per_workload / 3600.0)
        assert estimate_campaign_hours(3_370_000, per_workload) > 0


def test_importing_the_engine_loads_nothing_from_core():
    """The engine sits below ``repro.core``: a pool worker that imports it
    pays for no campaign, result or known-bug module, and the package root
    still offers ``quick_campaign``."""
    code = ("import sys, repro.engine.backends; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.core'))); "
            "import repro; print(repro.quick_campaign.__module__)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split("\n")[:2] == ["[]", "repro.core.campaign"]
