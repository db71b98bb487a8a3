"""Cluster scheduling, parallel runner, and cost model."""

from dataclasses import replace

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.cluster import (
    ClusterSpec,
    CostModel,
    estimate_campaign_hours,
    estimate_deployment,
    partition,
    run_on_cluster,
)
from repro.engine import ChunkStats, HarnessSpec
from repro.fs import BugConfig

from conftest import SMALL_DEVICE_BLOCKS


class TestScheduler:
    def test_default_spec_matches_the_paper(self):
        spec = ClusterSpec()
        assert spec.nodes == 65
        assert spec.vms_per_node == 12
        assert spec.total_vms == 780

    def test_partition_balances_workloads(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(50)
        batches = partition(workloads, 7)
        assert sum(len(batch) for batch in batches) == 50
        assert max(len(batch) for batch in batches) - min(len(batch) for batch in batches) <= 1

    def test_partition_with_more_vms_than_workloads(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(3)
        batches = partition(workloads, 10)
        assert len(batches) == 3

    def test_partition_requires_positive_count(self):
        with pytest.raises(ValueError):
            partition([], 0)

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


PATCHED = HarnessSpec(fs_name="btrfs", bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
BUGGY = HarnessSpec(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS)


class TestRunOnCluster:
    def test_serial_run_matches_direct_testing(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(12)
        result = run_on_cluster(PATCHED, workloads, num_vms=4, label="seq-1-sample")
        assert result.campaign.workloads_tested == 12
        assert len(result.vm_stats) == 4
        assert all(isinstance(stats, ChunkStats) for stats in result.vm_stats)
        assert [stats.index for stats in result.vm_stats] == [0, 1, 2, 3]
        assert sum(stats.workloads for stats in result.vm_stats) == 12
        assert result.wall_clock_seconds > 0
        assert result.campaign.failing_workloads == 0

    def test_buggy_fs_failures_surface_in_vm_stats(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(40)
        result = run_on_cluster(BUGGY, workloads, num_vms=2)
        assert sum(stats.failing_workloads for stats in result.vm_stats) == \
            result.campaign.failing_workloads
        # A VM's statistics are its chunk's: every roll-up, not a hand-picked few.
        assert sum(stats.crash_points_tested for stats in result.vm_stats) == \
            result.campaign.crash_points_tested > 0

    def test_every_harness_option_reaches_the_vms(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(10)
        prefix = run_on_cluster(BUGGY, workloads, num_vms=2)
        torn = run_on_cluster(replace(BUGGY, crash_plan="torn", skip_checks=("write",)),
                              workloads, num_vms=2)
        assert torn.campaign.scenarios_tested > prefix.campaign.scenarios_tested
        assert "write" not in torn.campaign.check_timings()

    def test_projection_to_cluster_scale(self):
        workloads = AceSynthesizer(seq1_bounds()).sample(10)
        result = run_on_cluster(PATCHED, workloads, num_vms=2)
        projected = result.projected_hours_on_cluster(num_workloads=3_370_000)
        assert projected > 0
        assert "VM batches" in result.summary()
