"""ACE generation phases 1-4."""

import itertools

import pytest
from hypothesis import given, settings

from repro.ace import (
    AceSynthesizer,
    GenerationStats,
    build_fileset,
    count_skeletons,
    generate_skeletons,
    parameter_choices,
    parameterize,
    persistence_choices,
    resolve_dependencies,
    seq1_bounds,
    seq2_bounds,
    seq3_nested_bounds,
)
from repro.ace.phase3 import add_persistence_points
from repro.ace.phase4 import DependencyResolver
from repro.workload import OpKind, Workload, ops

from conftest import CUSTOM_SEQ3, small_bounds


class TestPhase1:
    def test_seq1_skeleton_count_equals_operation_count(self):
        bounds = seq1_bounds()
        assert count_skeletons(bounds) == len(bounds.operations) == 14

    def test_seq2_skeletons_are_the_cartesian_square(self):
        bounds = seq2_bounds()
        skeletons = list(generate_skeletons(bounds))
        assert len(skeletons) == 14 * 14
        assert (OpKind.RENAME, OpKind.RENAME) in skeletons

    def test_required_ops_filter(self):
        bounds = seq2_bounds()
        filtered = list(generate_skeletons(bounds, required_ops=[OpKind.FALLOC]))
        assert filtered
        assert all(OpKind.FALLOC in skeleton for skeleton in filtered)
        assert count_skeletons(bounds, required_ops=[OpKind.FALLOC]) == len(filtered)


class TestFileSet:
    def test_default_fileset_matches_table3(self):
        fileset = build_fileset(seq2_bounds())
        # Two top-level files, two directories with two files each.
        assert set(fileset.directories) == {"A", "B"}
        assert set(fileset.files) == {"foo", "bar", "A/foo", "A/bar", "B/foo", "B/bar"}

    def test_nested_bounds_add_a_depth3_directory(self):
        fileset = build_fileset(seq3_nested_bounds())
        assert "A/C" in fileset.directories
        assert "A/C/foo" in fileset.files

    def test_parents_of(self):
        fileset = build_fileset(seq2_bounds())
        assert fileset.parents_of("A/C/foo") == ["A", "A/C"]
        assert fileset.parents_of("foo") == []


class TestPhase2:
    def test_every_core_operation_is_parameterizable(self):
        bounds = seq2_bounds()
        fileset = build_fileset(bounds)
        for op_name in bounds.operations:
            choices = parameter_choices(op_name, fileset, bounds)
            assert choices, op_name
            assert all(choice.op == op_name for choice in choices)

    def test_write_parameters_cover_all_range_classes(self):
        bounds = seq2_bounds()
        fileset = build_fileset(bounds)
        writes = parameter_choices(OpKind.WRITE, fileset, bounds)
        offsets = {op.args[1] for op in writes}
        assert len(offsets) == len(bounds.write_ranges)

    def test_symmetry_elimination_discards_reversed_fresh_pairs(self):
        bounds = seq1_bounds()
        fileset = build_fileset(bounds)
        link_workloads = list(parameterize((OpKind.LINK,), fileset, bounds))
        pairs = {tuple(work[0].args) for work in link_workloads}
        assert ("bar", "foo") in pairs or ("foo", "bar") in pairs
        assert not (("bar", "foo") in pairs and ("foo", "bar") in pairs)

    def test_symmetry_is_kept_when_a_file_was_used_before(self):
        bounds = seq2_bounds()
        fileset = build_fileset(bounds)
        skeleton = (OpKind.CREAT, OpKind.LINK)
        pairs = set()
        for work in parameterize(skeleton, fileset, bounds):
            if work[0].args == ("foo",):
                pairs.add(tuple(work[1].args))
        # With "foo" already used by creat, both orders are meaningful.
        assert ("foo", "bar") in pairs
        assert ("bar", "foo") in pairs

    def test_unknown_operation_rejected(self):
        bounds = seq1_bounds()
        fileset = build_fileset(bounds)
        with pytest.raises(ValueError):
            parameter_choices("warpdrive", fileset, bounds)


class TestPhase3:
    def test_last_operation_always_gets_a_persistence_point(self):
        bounds = seq1_bounds()
        choices = persistence_choices(ops.creat("A/foo"), bounds, final=True)
        assert None not in choices
        assert all(choice.is_persistence for choice in choices)

    def test_non_final_operations_may_stay_unpersisted(self):
        bounds = seq2_bounds()
        choices = persistence_choices(ops.creat("A/foo"), bounds, final=False)
        assert None in choices

    def test_targets_include_file_and_parent_directory(self):
        bounds = seq1_bounds()
        choices = persistence_choices(ops.creat("A/foo"), bounds, final=True)
        targets = {choice.args[0] for choice in choices if choice.op == OpKind.FSYNC}
        assert {"A/foo", "A"} <= targets

    def test_every_variant_ends_with_persistence(self):
        bounds = seq2_bounds()
        core = [ops.creat("A/foo"), ops.rename("A/foo", "B/bar")]
        for variant in add_persistence_points(core, bounds):
            assert variant[-1].is_persistence


class TestPhase4:
    def test_dependencies_create_parents_and_files(self):
        full = resolve_dependencies([ops.rename("A/foo", "B/bar"), ops.sync()])
        dep_ops = [op for op in full if op.dependency]
        assert {op.op for op in dep_ops} == {OpKind.MKDIR, OpKind.CREAT}
        created = {op.args[0] for op in dep_ops}
        assert {"A", "B", "A/foo"} <= created

    def test_overwrite_gets_base_data(self):
        full = resolve_dependencies([ops.write("foo", 2048, 4096), ops.fsync("foo")])
        assert any(op.dependency and op.op == OpKind.WRITE for op in full)

    def test_append_does_not_need_base_data(self):
        full = resolve_dependencies([ops.write("foo", 0, 4096), ops.fsync("foo")])
        assert not any(op.dependency and op.op == OpKind.WRITE for op in full)

    def test_removexattr_gets_a_setxattr_dependency(self):
        full = resolve_dependencies([ops.removexattr("foo"), ops.fsync("foo")])
        assert any(op.dependency and op.op == OpKind.SETXATTR for op in full)

    def test_invalid_link_to_existing_name_is_dropped(self):
        assert resolve_dependencies(
            [ops.creat("foo"), ops.creat("bar"), ops.link("foo", "bar"), ops.sync()]
        ) is None

    def test_double_mkdir_is_dropped(self):
        assert resolve_dependencies([ops.mkdir("C"), ops.mkdir("C"), ops.sync()]) is None

    def test_fsync_of_directory_target_creates_the_directory(self):
        full = resolve_dependencies([ops.creat("foo"), ops.fsync("B")])
        assert any(op.dependency and op.op == OpKind.MKDIR and op.args == ("B",) for op in full)

    def test_dependency_ops_are_marked(self):
        full = resolve_dependencies([ops.unlink("A/foo"), ops.sync()])
        assert any(op.dependency for op in full)
        assert full[-1].op == OpKind.SYNC


# --------------------------------------------------------------------- the pipeline


def _reference(bounds, stats, required_ops=None, prefix_rejections=None):
    """The Figure-4 pipeline candidate by candidate, sharing no table with ``generate()``.

    Phases 1-3 are plain products; phase 4 is a fresh
    ``DependencyResolver().process`` fold over each candidate.  A candidate
    phase 4 rejects before its last core operation appends the number of
    workloads yielded so far to ``prefix_rejections``.
    """
    label = bounds.label or f"seq-{bounds.seq_length}"
    fileset = build_fileset(bounds)
    for skeleton in generate_skeletons(bounds, required_ops):
        stats.skeletons += 1
        for core_ops in parameterize(skeleton, fileset, bounds):
            stats.parameterized += 1
            for candidate in add_persistence_points(core_ops, bounds):
                stats.with_persistence += 1
                resolver = DependencyResolver()
                resolved = [resolver.process(op) for op in candidate]
                if not all(resolved):
                    stats.discarded_invalid += 1
                    # the last core operation is second to last: a point always follows it
                    if prefix_rejections is not None and \
                            resolved.index(False) < len(candidate) - 2:
                        prefix_rejections.append(stats.final)
                    continue
                stats.final += 1
                yield Workload(ops=resolver.dependencies + candidate,
                               name=f"{label}-{stats.final:07d}",
                               seq_length=bounds.seq_length, source=f"ace:{label}")


def _fields(workload):
    return workload.name, workload.ops, workload.seq_length, workload.source


def _assert_generate_is_the_reference(bounds, required_ops=None):
    """Same workloads as the reference, and the same stats at each of them:
    a consumer may stop reading anywhere and then read ``stats``."""
    synthesizer = AceSynthesizer(bounds)
    expected = GenerationStats()
    pairs = itertools.zip_longest(synthesizer.generate(required_ops),
                                  _reference(bounds, expected, required_ops))
    for position, (generated, reference) in enumerate(pairs):
        assert generated is not None and reference is not None, \
            f"{bounds.label}: lengths differ at {position}"
        assert _fields(generated) == _fields(reference), \
            f"{bounds.label}: first difference at {position}"
        assert synthesizer.stats == expected, f"{bounds.label}: stats differ at {position}"
    assert synthesizer.stats == expected


def _assert_stops_like_the_reference(bounds, limit):
    """At ``limit`` workloads, ``generate()`` and a consumer that stops
    reading after as many both leave the reference's partial stats."""
    expected = GenerationStats()
    reference = list(itertools.islice(_reference(bounds, expected), limit))
    synthesizer = AceSynthesizer(bounds)
    assert [_fields(w) for w in synthesizer.generate(limit=limit)] == \
        [_fields(w) for w in reference]
    assert synthesizer.stats == expected
    stream = synthesizer.generate()
    assert [_fields(w) for w in itertools.islice(stream, limit)] == \
        [_fields(w) for w in reference]
    assert synthesizer.stats == expected


class TestPipeline:
    """``generate()``'s memoised walk against the candidate-by-candidate pipeline."""

    def test_seq1(self):
        _assert_generate_is_the_reference(seq1_bounds())

    @pytest.mark.parametrize("name", list(CUSTOM_SEQ3))
    def test_custom_seq3_spaces(self, name):
        # "links" is the space where a persistence point invalidates what follows.
        _assert_generate_is_the_reference(CUSTOM_SEQ3[name])

    @settings(max_examples=40, deadline=None)
    @given(bounds=small_bounds)
    def test_small_bounds(self, bounds):
        _assert_generate_is_the_reference(bounds)

    def test_full_seq2_funnel(self):
        synthesizer = AceSynthesizer(seq2_bounds())
        assert sum(1 for _ in synthesizer.generate()) == 305_498
        assert synthesizer.stats == GenerationStats(
            skeletons=196, parameterized=26_076, with_persistence=319_481,
            final=305_498, discarded_invalid=13_983)

    def test_required_ops(self):
        _assert_generate_is_the_reference(CUSTOM_SEQ3["links"], required_ops=("unlink",))

    def test_a_limit_stops_the_funnel_at_the_last_workload(self):
        _assert_stops_like_the_reference(CUSTOM_SEQ3["links"], 500)

    def test_a_limit_inside_one_last_operations_completions(self):
        # Workloads equal but for their final persistence point are two
        # completions of one (prefix, last operation): stop between them.
        bounds = CUSTOM_SEQ3["links"]
        workloads = list(itertools.islice(_reference(bounds, GenerationStats()), 2000))
        limit = next(position for position in range(100, len(workloads))
                     if workloads[position - 1].ops[:-1] == workloads[position].ops[:-1])
        _assert_stops_like_the_reference(bounds, limit)

    def test_a_limit_just_after_and_before_a_rejected_prefix(self):
        bounds = CUSTOM_SEQ3["links"]
        rejections = []
        for _ in itertools.islice(_reference(bounds, GenerationStats(),
                                             prefix_rejections=rejections), 5000):
            pass
        # a rejection recorded at n falls between the n-th and the next workload
        yielded = next(n for n in rejections if n > 0)
        _assert_stops_like_the_reference(bounds, yielded + 1)
        _assert_stops_like_the_reference(bounds, yielded)
