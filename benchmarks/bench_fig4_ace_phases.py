"""Figure 4 — workload generation in ACE.

Follows the four phases for the paper's example (a seq-2 rename+link
skeleton): select operations, select parameters, add persistence points, add
dependencies — and reports how many candidate workloads each phase yields.
"""

from repro.ace import (
    AceSynthesizer,
    DependencySteps,
    build_fileset,
    parameterize,
    resolve_dependencies,
    seq1_bounds,
    seq2_bounds,
)
from repro.ace.phase3 import add_persistence_points
from repro.workload import OpKind

from conftest import print_table


def test_fig4_phases_for_the_rename_link_skeleton(benchmark):
    bounds = seq2_bounds()
    fileset = build_fileset(bounds)
    skeleton = (OpKind.RENAME, OpKind.LINK)

    def expand():
        parameterized = list(parameterize(skeleton, fileset, bounds))
        with_persistence = []
        for core_ops in parameterized:
            with_persistence.extend(add_persistence_points(core_ops, bounds))
        steps = DependencySteps()  # phase 4's transitions, shared by the candidates
        final = [ops for ops in (resolve_dependencies(candidate, steps)
                                 for candidate in with_persistence)
                 if ops is not None]
        return parameterized, with_persistence, final

    parameterized, with_persistence, final = benchmark(expand)

    print_table(
        "Figure 4: phases for the (rename, link) skeleton",
        [
            ("phase 1: select operations", 1),
            ("phase 2: select parameters", len(parameterized)),
            ("phase 3: add persistence points", len(with_persistence)),
            ("phase 4: add dependencies (valid workloads)", len(final)),
        ],
        ("phase", "candidate workloads"),
    )

    assert len(parameterized) > 1
    assert len(with_persistence) > len(parameterized)
    # Phase 4 only discards invalid combinations; it never adds new ones.
    assert 0 < len(final) <= len(with_persistence)
    # Every final workload gained dependency operations (mkdir/creat setup).
    example = final[0]
    assert any(op.dependency for op in example)
    assert example[-1].is_persistence


def test_fig4_full_funnel_for_seq1(benchmark):
    synthesizer = AceSynthesizer(seq1_bounds())

    def generate_all():
        workloads = list(synthesizer.generate())
        return workloads, synthesizer.stats

    workloads, stats = benchmark(generate_all)
    print_table(
        "ACE generation funnel (seq-1)",
        [
            ("phase 1 skeletons", stats.skeletons),
            ("phase 2 parameterized", stats.parameterized),
            ("phase 3 with persistence points", stats.with_persistence),
            ("phase 4 final workloads", stats.final),
            ("discarded as invalid", stats.discarded_invalid),
        ],
        ("stage", "count"),
    )
    assert stats.skeletons == 14
    assert stats.final == len(workloads)
    assert stats.final + stats.discarded_invalid == stats.with_persistence
