"""The streaming, parallel campaign execution engine."""

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.cluster import estimate_campaign_hours
from repro.core import B3Campaign, CampaignConfig, quick_campaign
from repro.crashmonkey import CrashMonkey
from repro.engine import (
    CampaignEngine,
    ChunkStats,
    HarnessSpec,
    ProcessPoolBackend,
    SerialBackend,
    TimedIterator,
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
        run = differential.campaign()
        direct = differential.reference("btrfs").results
        assert [_fingerprint(r) for r in run.result.results] == \
            [_fingerprint(r) for r in direct]
        assert run.result.workloads_tested == len(workloads)
        assert run.result.testing_seconds > 0
        assert run.result.generation_seconds >= 0

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
        engine.run(counting_source(), label="seq-1")

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
        run = engine.run(iter(workloads))
        assert [event.chunks_done for event in events] == [1, 2, 3]
        assert [event.workloads_done for event in events] == [10, 20, 25]
        assert events[-1].failing_workloads == run.result.failing_workloads
        assert all(event.chunk.seconds > 0 for event in events)

    def test_a_backend_built_with_a_harness_runs_the_spec_it_is_handed(self):
        harness = CrashMonkey(spec=_spec(fs_name="logfs"))
        chunks = [(0, list(differential.space(limit=3)))]
        (outcome,) = SerialBackend(harness=harness).execute(_spec(fs_name="seqfs"), chunks)
        assert {result.fs_type for result in outcome.results} == {"seqfs"}
        backend = SerialBackend(harness=harness)
        list(backend.execute(_spec(fs_name="logfs"), chunks))
        assert backend._harness is harness

    def test_empty_stream_yields_empty_result(self):
        run = differential.engine_run(_config(), iter(()))
        assert run.result.workloads_tested == 0
        assert run.chunks == []
        assert run.max_chunk_seconds == 0.0


class TestProcessPoolEngine:
    def test_pool_and_serial_find_identical_bugs_on_full_seq1_space(self):
        serial = differential.campaign()
        pooled = differential.engine_run(_config(), AceSynthesizer(seq1_bounds()).generate(),
                                         processes=2, chunk_size=48)
        assert serial.result.workloads_tested == pooled.result.workloads_tested
        # Identical findings in identical (sorted) order.
        assert [_fingerprint(r) for r in serial.result.results] == \
            [_fingerprint(r) for r in pooled.result.results]
        assert serial.result.failing_workloads == pooled.result.failing_workloads
        assert len(serial.result.grouped_reports()) == len(pooled.result.grouped_reports())
        # Real per-chunk timing measured inside the workers.
        assert all(stats.seconds > 0 for stats in pooled.chunks)
        assert any(stats.worker.startswith("pid-") for stats in pooled.chunks)

    def test_pool_consumes_the_stream_lazily(self):
        total = AceSynthesizer(seq1_bounds()).count()
        chunk_size, max_inflight = 16, 3
        backend = ProcessPoolBackend(processes=2, max_inflight=max_inflight)
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
        run = engine.run(counting_source(), label="seq-1")
        assert run.result.workloads_tested == total
        first_pulled, _ = high_water[0]
        assert first_pulled < total
        # The submission window bounds how far generation runs ahead of testing.
        for pulled_count, done in high_water:
            assert pulled_count <= done + chunk_size * (max_inflight + 1)

    def test_backend_requires_sane_inflight_window(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(processes=2, max_inflight=0)

    def test_check_selection_propagates_to_pool_workers(self):
        """Workers rebuild identical pipelines from the pickled spec."""
        workloads = list(AceSynthesizer(seq1_bounds()).sample(40))
        mount_only = _config(checks=("mount",))
        serial = differential.engine_run(mount_only, iter(workloads))
        pooled = differential.engine_run(mount_only, iter(workloads), processes=2, chunk_size=8)
        assert [_fingerprint(r) for r in serial.result.results] == \
            [_fingerprint(r) for r in pooled.result.results]
        # Every surviving mismatch came from the one selected check, and the
        # per-check attribution only mentions it.
        for result in pooled.result.results:
            assert set(result.check_timings) <= {"mount"}
            for report in result.bug_reports:
                assert {m.check for m in report.mismatches} == {"mount"}

    def test_skip_checks_spec_changes_findings(self):
        workloads = list(AceSynthesizer(seq1_bounds()).sample(40))
        full = differential.engine_run(_config(), iter(workloads))
        skipped = differential.engine_run(_config(skip_checks=("write", "read", "directory")),
                                          iter(workloads))
        skipped_checks = {m.check
                          for result in skipped.result.results
                          for report in result.bug_reports
                          for m in report.mismatches}
        assert "write" not in skipped_checks
        assert "read" not in skipped_checks
        assert skipped.result.failing_workloads <= full.result.failing_workloads


class TestCampaignFacade:
    def test_campaign_runs_through_the_engine(self):
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(),
                                max_workloads=40, device_blocks=SMALL_DEVICE_BLOCKS)
        campaign = B3Campaign(config)
        result = campaign.run()
        assert result.workloads_tested == 40
        assert campaign.last_run is not None
        assert campaign.last_run.result is result
        assert sum(stats.workloads for stats in campaign.last_run.chunks) == 40

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
        assert all(isinstance(stats, ChunkStats) for stats in chunks)
        assert all(stats.seconds > 0 for stats in chunks)
        # Real measurements from a pool are wall clocks of distinct batches,
        # not one elapsed time divided evenly.
        assert len({round(stats.seconds, 9) for stats in chunks}) > 1
        assert all(stats.worker.startswith("pid-") for stats in chunks)
        assert campaign.last_run.max_chunk_seconds == max(stats.seconds for stats in chunks)

    def test_batch_roll_ups_sum_to_the_campaign(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(30)
        campaign = B3Campaign(_config(processes=2, chunk_size=8))
        result = campaign.run(workloads)
        chunks = campaign.last_run.chunks
        assert sum(stats.workloads for stats in chunks) == result.workloads_tested == 30
        for name in ("failing_workloads", "crash_points_tested", "scenarios_tested"):
            assert sum(getattr(stats, name) for stats in chunks) == getattr(result, name)
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
