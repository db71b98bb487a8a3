"""The ACE space index agrees with the generator it replaces for sampling.

``generate()`` is the enumeration oracle: every claim about ``count()``,
``workload_at()`` and ``sample_stream()`` is checked against one pass over it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.ace import (
    AceSynthesizer,
    Bounds,
    seq1_bounds,
    seq2_bounds,
    seq3_data_bounds,
    seq3_metadata_bounds,
    seq3_nested_bounds,
)
from repro.workload.operations import OpKind

from conftest import CUSTOM_SEQ3, small_bounds

SEQ2_SPACE = 305_498


def _first_mismatch(bounds: Bounds, limit=None, every: int = 1, required_ops=None):
    """Walk ``generate()``; return (positions walked, first disagreeing position)."""
    index = AceSynthesizer(bounds)
    walked = 0
    for position, workload in enumerate(
            AceSynthesizer(bounds).generate(required_ops, limit=limit)):
        walked += 1
        if position % every == 0 and index.workload_at(position, required_ops) != workload:
            return walked, position
    return walked, None


def _core_and_points(workload):
    return tuple(str(op) for op in workload.ops if not op.dependency)


# --------------------------------------------------------------------- the seq-2 pass


@pytest.fixture(scope="module")
def seq2_pass():
    """One pass over all of seq-2: position parity, size, and strided picks."""
    index = AceSynthesizer(seq2_bounds())
    estimate = index.estimate_count()
    strides = {min(estimate // 25, 2000), estimate // 400, 5000}
    picks = {stride: [] for stride in strides}
    mismatch = None
    total = 0
    for position, workload in enumerate(AceSynthesizer(seq2_bounds()).generate()):
        total += 1
        if mismatch is None and index.workload_at(position) != workload:
            mismatch = position
        for stride in strides:
            if position % stride == 0:
                picks[stride].append(workload)
    return {"mismatch": mismatch, "total": total, "picks": picks}


class TestPositionParity:
    def test_every_position_of_seq1(self):
        assert _first_mismatch(seq1_bounds()) == (465, None)

    def test_every_position_of_seq2(self, seq2_pass):
        assert seq2_pass["mismatch"] is None
        assert seq2_pass["total"] == SEQ2_SPACE

    @pytest.mark.parametrize("bounds", [seq3_data_bounds(), seq3_metadata_bounds(),
                                        seq3_nested_bounds()], ids=lambda b: b.label)
    def test_first_positions_of_each_seq3_preset(self, bounds):
        assert _first_mismatch(bounds, limit=3000) == (3000, None)

    def test_required_ops_rank_within_the_filtered_space(self):
        bounds = CUSTOM_SEQ3["links"]
        walked, mismatch = _first_mismatch(bounds, every=11, required_ops=("unlink",))
        assert mismatch is None
        assert walked == AceSynthesizer(bounds).count(("unlink",)) < AceSynthesizer(bounds).count()

    def test_workloads_carry_the_generators_name_and_source(self):
        workload = AceSynthesizer(seq2_bounds()).workload_at(221_759)
        assert workload.name == "seq-2-0221760"
        assert workload.source == "ace:seq-2"
        assert workload.seq_length == 2
        workload.validate()


class TestExactCount:
    def test_seq1_and_seq2(self, seq2_pass):
        assert AceSynthesizer(seq1_bounds()).count() == 465
        assert AceSynthesizer(seq2_bounds()).count() == seq2_pass["total"]

    @pytest.mark.parametrize("name", list(CUSTOM_SEQ3))
    def test_custom_seq3_spaces_against_enumeration(self, name):
        bounds = CUSTOM_SEQ3[name]
        walked, mismatch = _first_mismatch(bounds, every=13)
        assert mismatch is None
        assert walked <= 250_000
        assert AceSynthesizer(bounds).count() == walked

    def test_a_persistence_point_can_invalidate_what_follows(self):
        # unlink(A/foo); fsync(A/foo) makes phase 4 re-create A/foo, so the
        # link onto it is discarded; with sync the name stays free.
        bounds = replace(CUSTOM_SEQ3["links"], seq_length=2)
        shapes = {_core_and_points(w)[:3] for w in AceSynthesizer(bounds).generate()}
        assert ("unlink(A/foo)", "sync()", "link(bar, A/foo)") in shapes
        assert ("unlink(A/foo)", "fsync(A/foo)", "link(bar, A/foo)") not in shapes

    def test_count_is_fast_and_does_not_generate(self, monkeypatch):
        synthesizer = AceSynthesizer(seq2_bounds())
        monkeypatch.setattr(AceSynthesizer, "generate",
                            lambda *a, **k: pytest.fail("count() enumerated the space"))
        start = time.perf_counter()
        assert synthesizer.count() == SEQ2_SPACE
        assert time.perf_counter() - start < 0.5
        assert synthesizer.count(("link",)) < SEQ2_SPACE

    def test_phase_counts_end_in_the_exact_count(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        counts = synthesizer.phase_counts()
        assert counts["phase4_final"] == 465
        # Phase 3 of the funnel is the stride basis: one analytic product.
        assert counts["phase3_with_persistence"] == synthesizer.estimate_count() == 438

    def test_estimate_count_is_only_the_stride_basis(self):
        # Lower-biased: the representative parameterization (top-level foo)
        # has the fewest fsync targets.  Pinned because the stride derives
        # from it.
        synthesizer = AceSynthesizer(seq3_data_bounds())
        assert synthesizer.estimate_count() == 10_668_672
        assert synthesizer.count() == 21_249_536
        assert synthesizer.phase_counts()["phase3_with_persistence"] == 10_668_672


class TestSampleStream:
    @pytest.mark.parametrize("count", [25, 400])
    def test_default_stride_matches_striding_the_generator(self, seq2_pass, count):
        synthesizer = AceSynthesizer(seq2_bounds())
        stride = min(synthesizer.estimate_count() // count, 2000)  # MAX_SAMPLE_STRIDE caps it
        picked = list(synthesizer.sample_stream(count))
        assert picked == seq2_pass["picks"][stride][:count]
        assert len(picked) == count
        assert synthesizer.stats.final == count

    def test_explicit_stride(self, seq2_pass):
        picked = list(AceSynthesizer(seq2_bounds()).sample_stream(40, stride=5000))
        assert picked == seq2_pass["picks"][5000][:40]

    def test_required_ops(self):
        bounds, required = seq2_bounds(), ("rename", "mkdir")
        synthesizer = AceSynthesizer(bounds)
        stride = max(synthesizer.estimate_count(required) // 30, 1)
        expected = [w for i, w in enumerate(AceSynthesizer(bounds).generate(required))
                    if i % stride == 0][:30]
        assert list(synthesizer.sample_stream(30, required_ops=required)) == expected
        assert synthesizer.stream_size(30, sample=True, required_ops=required) == len(expected)

    def test_asking_for_more_than_fits_yields_what_exists(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        assert len(list(synthesizer.sample_stream(1000))) == 465
        assert len(list(synthesizer.sample_stream(10, stride=100))) == 5
        assert synthesizer.stream_size(1000, sample=True) == 465

    def test_sampling_does_not_generate(self, monkeypatch):
        synthesizer = AceSynthesizer(seq2_bounds())
        monkeypatch.setattr(AceSynthesizer, "generate",
                            lambda *a, **k: pytest.fail("sampling strode the space"))
        assert len(list(synthesizer.stream(limit=20, sample=True))) == 20

    def test_stream_size_matches_stream(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        for limit, sample in ((None, False), (50, False), (5000, False), (40, True)):
            assert synthesizer.stream_size(limit, sample) == \
                sum(1 for _ in synthesizer.stream(limit, sample))


class TestOutOfRange:
    @pytest.mark.parametrize("position", [-1, 465, 10**9])
    def test_workload_at_raises_index_error(self, position):
        with pytest.raises(IndexError):
            AceSynthesizer(seq1_bounds()).workload_at(position)

    def test_an_empty_space_has_no_positions(self):
        # rmdir needs a directory in the argument set; with none the space is empty.
        synthesizer = AceSynthesizer(Bounds(seq_length=1, operations=(OpKind.RMDIR,),
                                            num_dirs=0))
        assert synthesizer.count() == 0
        assert list(synthesizer.sample_stream(5)) == []
        with pytest.raises(IndexError):
            synthesizer.workload_at(0)


# --------------------------------------------------------------------- property


@settings(max_examples=40, deadline=None)
@given(bounds=small_bounds, data=st.data())
def test_rank_workload_name_round_trip(bounds, data):
    """rank -> workload -> name gives the rank back; samples go strictly forward."""
    oracle = list(AceSynthesizer(bounds).generate())
    synthesizer = AceSynthesizer(bounds)
    assert synthesizer.count() == len(oracle)
    if not oracle:
        return
    for position in data.draw(st.lists(st.integers(0, len(oracle) - 1), max_size=8)):
        workload = synthesizer.workload_at(position)
        assert workload == oracle[position]
        assert int(workload.name.rsplit("-", 1)[1]) - 1 == position
    stride = data.draw(st.integers(1, max(len(oracle) // 2, 1)))
    count = data.draw(st.integers(1, 12))
    picked = list(synthesizer.sample_stream(count, stride=stride))
    positions = [int(w.name.rsplit("-", 1)[1]) - 1 for w in picked]
    assert positions == list(itertools.islice(range(0, len(oracle), stride), count))
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert picked == [oracle[position] for position in positions]
