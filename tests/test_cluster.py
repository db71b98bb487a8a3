"""Cluster models, and a campaign's chunks as the cluster's VM batches."""

from dataclasses import replace

import pytest

from repro.ace import AceSynthesizer, CrashMonkeyAdapter, seq1_bounds
from repro.cluster import (
    ClusterSpec,
    CostModel,
    estimate_campaign_hours,
    estimate_deployment,
)
from repro.core import B3Campaign, CampaignConfig
from repro.engine import ChunkRecord
from repro.fs import BugConfig

import differential
from conftest import SMALL_DEVICE_BLOCKS


class TestScheduler:
    def test_default_spec_matches_the_paper(self):
        spec = ClusterSpec()
        assert spec.nodes == 65
        assert spec.vms_per_node == 12
        assert spec.total_vms == 780

    def test_batches_are_whole_sibling_families_of_about_chunk_size(self):
        campaign = B3Campaign(CampaignConfig(bounds=seq1_bounds(), max_workloads=50,
                                             chunk_size=7))
        batches, _ = campaign.chunk_stream(CrashMonkeyAdapter())
        batches = list(batches)
        assert [w.name for batch in batches for w in batch] == \
            [w.name for w in campaign.iter_workloads()]
        assert all(len(batch) >= 7 for batch in batches[:-1])
        # No sibling family is scattered over two VMs.
        families = [{w.family_key() for w in batch} for batch in batches]
        assert all(not (a & b) for a, b in zip(families, families[1:]))

    def test_batch_layout_depends_on_the_stream_and_chunk_size_alone(self):
        def layout(**execution):
            campaign = B3Campaign(CampaignConfig(bounds=seq1_bounds(), max_workloads=40,
                                                 chunk_size=5, **execution))
            batches, _ = campaign.chunk_stream(CrashMonkeyAdapter())
            return [[w.name for w in batch] for batch in batches]
        assert layout() == layout(processes=2) == layout(share_prefixes=False)

    def test_chunk_size_must_be_positive(self):
        campaign = B3Campaign(CampaignConfig(bounds=seq1_bounds(), chunk_size=0))
        batches, _ = campaign.chunk_stream(CrashMonkeyAdapter())
        with pytest.raises(ValueError):
            next(batches)

    def test_deployment_estimate_scales_linearly(self):
        small = estimate_deployment(10_000)
        large = estimate_deployment(1_000_000)
        assert large.total_seconds > small.total_seconds
        assert large.total_seconds == pytest.approx(small.total_seconds * 100, rel=0.01)

    def test_deployment_estimate_matches_paper_scale(self):
        # 3.37M workloads took ~237 minutes to group and deploy in the paper.
        estimate = estimate_deployment(3_370_000)
        assert 200 * 60 <= estimate.total_seconds <= 260 * 60

    def test_campaign_hours_estimate(self):
        # 3.37M workloads at 4.6 s each on 780 VMs is roughly 5.5 hours of
        # pure testing time (the paper's 2-day figure includes everything else).
        hours = estimate_campaign_hours(3_370_000, 4.6)
        assert 4.0 <= hours <= 8.0


class TestCostModel:
    def test_paper_headline_figure(self):
        assert CostModel().paper_48h_cost() == pytest.approx(861.12, rel=1e-6)

    def test_full_space_projection_is_about_6400_dollars(self):
        assert 6000 <= CostModel().full_space_cost() <= 7000

    def test_cost_for_workloads_uses_measured_latency(self):
        cost = CostModel().cost_for_workloads(3_370_000, seconds_per_workload=4.6)
        assert 50 <= cost <= 200  # pure testing time is a fraction of the 48 h rental


PATCHED = CampaignConfig(fs_name="btrfs", bugs=BugConfig.none(),
                         device_blocks=SMALL_DEVICE_BLOCKS)
BUGGY = CampaignConfig(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS)


def _batches(config, workloads, chunk_size):
    """Test ``workloads`` as a campaign; its result and engine run, one chunk per VM batch."""
    campaign = B3Campaign(replace(config, chunk_size=chunk_size))
    return campaign.run(workloads), campaign.last_run


class TestCampaignBatches:
    def test_serial_run_matches_direct_testing(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(12)
        result, run = _batches(PATCHED, workloads, chunk_size=3)
        assert result.workloads_tested == 12
        assert len(run.chunks) == 4
        assert all(type(record) is ChunkRecord for record in run.chunks)
        assert [record.index for record in run.chunks] == [0, 1, 2, 3]
        assert sum(record.workloads for record in run.chunks) == 12
        assert run.max_chunk_seconds > 0
        assert result.failing_workloads == 0

    def test_buggy_fs_failures_surface_in_each_batch(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(40)
        result, run = _batches(BUGGY, workloads, chunk_size=20)
        assert sum(record.failing_workloads for record in run.chunks) == \
            result.failing_workloads > 0
        # A batch's statistics are its chunk's outcome's: every roll-up, not a hand-picked few.
        outcomes = differential.chunk_outcomes(BUGGY, workloads, chunk_size=20)
        assert [outcome.record.workloads for outcome in outcomes] == \
            [record.workloads for record in run.chunks]
        assert sum(outcome.crash_points_tested for outcome in outcomes) == \
            result.crash_points_tested > 0

    def test_every_harness_option_reaches_the_batches(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(10)
        prefix, _ = _batches(BUGGY, workloads, chunk_size=5)
        torn, _ = _batches(replace(BUGGY, crash_plan="torn", skip_checks=("write",)),
                           workloads, chunk_size=5)
        assert torn.scenarios_tested > prefix.scenarios_tested
        assert "write" not in torn.check_timings()

    def test_projection_to_cluster_scale(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(10)
        result, _ = _batches(PATCHED, workloads, chunk_size=5)
        per_workload = result.testing_seconds / result.workloads_tested
        projected = estimate_campaign_hours(3_370_000, per_workload)
        assert projected > 0
        # 4 321 workloads on each of 780 VMs, one after the other.
        assert projected == pytest.approx(4321 * per_workload / 3600.0)
