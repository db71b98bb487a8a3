"""ACE synthesizer: exhaustive generation, counting, sampling, adapter."""

import pytest

from repro.ace import (
    AceSynthesizer,
    CrashMonkeyAdapter,
    generate_workloads,
    paper_workload_groups,
    seq1_bounds,
    seq2_bounds,
    seq3_metadata_bounds,
)
from repro.core import B3Campaign, CampaignConfig
from repro.errors import WorkloadError
from repro.workload import OpKind, Workload, parse_workload


class TestSeq1Generation:
    @pytest.fixture(scope="class")
    def seq1(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        return synthesizer, list(synthesizer.generate())

    def test_every_workload_is_valid(self, seq1):
        _, workloads = seq1
        for workload in workloads:
            workload.validate()

    def test_every_workload_has_exactly_one_core_operation(self, seq1):
        _, workloads = seq1
        assert all(len(workload.core_ops()) == 1 for workload in workloads)

    def test_workload_count_matches_paper_order_of_magnitude(self, seq1):
        # The paper tests 300 seq-1 workloads; our bounds give the same order.
        _, workloads = seq1
        assert 200 <= len(workloads) <= 900

    def test_all_fourteen_operations_are_covered(self, seq1):
        _, workloads = seq1
        covered = {workload.skeleton()[0] for workload in workloads}
        assert covered == set(seq1_bounds().operations)

    def test_names_are_unique(self, seq1):
        _, workloads = seq1
        names = [workload.display_name() for workload in workloads]
        assert len(names) == len(set(names))

    def test_generation_stats_funnel(self, seq1):
        synthesizer, workloads = seq1
        stats = synthesizer.stats
        assert stats.skeletons == 14
        assert stats.parameterized >= stats.skeletons
        assert stats.with_persistence >= stats.parameterized
        assert stats.final == len(workloads)
        assert stats.final + stats.discarded_invalid == stats.with_persistence


class TestCountingAndSampling:
    def test_limit_truncates_generation(self):
        workloads = generate_workloads(seq2_bounds(), limit=50)
        assert len(workloads) == 50

    def test_estimate_count_is_fast_and_large_for_seq2(self):
        estimate = AceSynthesizer(seq2_bounds()).estimate_count()
        # The paper reports 254K seq-2 workloads; the estimate must be in the
        # same order of magnitude.
        assert 100_000 <= estimate <= 600_000

    def test_estimate_grows_rapidly_with_sequence_length(self):
        seq2 = AceSynthesizer(seq2_bounds()).estimate_count()
        seq3 = AceSynthesizer(seq3_metadata_bounds()).estimate_count()
        assert seq3 > seq2

    def test_sample_is_deterministic_and_spread(self):
        synthesizer = AceSynthesizer(seq2_bounds())
        first = synthesizer.sample(25)
        second = AceSynthesizer(seq2_bounds()).sample(25)
        assert [w.workload_id() for w in first] == [w.workload_id() for w in second]
        skeletons = {workload.skeleton() for workload in first}
        assert len(skeletons) > 5  # not just a prefix of the space

    def test_sample_zero_returns_empty(self):
        assert AceSynthesizer(seq1_bounds()).sample(0) == []

    @pytest.mark.parametrize("sample", [False, True], ids=["prefix", "sample"])
    def test_a_limit_of_zero_tests_nothing(self, sample):
        synthesizer = AceSynthesizer(seq1_bounds())
        assert list(synthesizer.stream(0, sample)) == []
        assert synthesizer.stream_size(0, sample) == 0
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(), max_workloads=0,
                                sample=sample)
        assert B3Campaign(config).run().workloads_tested == 0

    def test_exact_count_matches_generation_for_seq1(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        assert synthesizer.count() == len(list(synthesizer.generate()))

    def test_phase_counts_report_the_funnel(self):
        counts = AceSynthesizer(seq1_bounds()).phase_counts()
        assert counts["phase1_skeletons"] == 14
        assert counts["phase2_parameterized"] > 14
        assert counts["phase3_with_persistence"] >= counts["phase2_parameterized"]


class TestPaperWorkloadGroups:
    def test_five_groups_with_expected_labels(self):
        labels = [bounds.label for bounds in paper_workload_groups()]
        assert labels == ["seq-1", "seq-2", "seq-3-data", "seq-3-metadata", "seq-3-nested"]

    def test_seq3_groups_narrow_the_operation_set(self):
        groups = {bounds.label: bounds for bounds in paper_workload_groups()}
        assert set(groups["seq-3-data"].operations) == {
            OpKind.WRITE, OpKind.MWRITE, OpKind.DWRITE, OpKind.FALLOC,
        }
        assert set(groups["seq-3-metadata"].operations) == {
            OpKind.WRITE, OpKind.LINK, OpKind.UNLINK, OpKind.RENAME,
        }
        assert groups["seq-3-nested"].nested


class TestAdapter:
    def test_adapt_validates(self):
        adapter = CrashMonkeyAdapter()
        workload = parse_workload("creat foo\nfsync foo")
        assert adapter.adapt(workload) is workload
        with pytest.raises(WorkloadError):
            adapter.adapt(parse_workload("creat foo\nfsync foo\ncreat bar"))

    def test_adapt_all_drops_invalid(self):
        adapter = CrashMonkeyAdapter()
        good = parse_workload("creat foo\nfsync foo")
        bad = Workload(ops=list(parse_workload("creat foo\nfsync foo").ops)[:-1])
        assert adapter.adapt_all([good, bad]) == [good]

    def test_test_program_is_valid_python(self):
        adapter = CrashMonkeyAdapter("btrfs")
        workload = parse_workload("creat foo\nfsync foo", name="demo")
        program = adapter.to_test_program(workload)
        compile(program, "<generated>", "exec")
        assert "CrashMonkey('btrfs')" in program
        assert "creat foo" in program
