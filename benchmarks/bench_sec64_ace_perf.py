"""§6.4 — ACE performance.

The paper generates 3.37M workloads in 374 minutes (~150 workloads/second)
and spends another ~237 minutes deploying them to the cluster.  This benchmark
measures the synthesizer's generation rate and reproduces the deployment-time
model.
"""

from repro.ace import AceSynthesizer, seq2_bounds
from repro.cluster import ClusterSpec, estimate_deployment
from repro.engine import family_chunks

from conftest import print_table

GENERATION_BATCH = 4000
#: Workloads in the full seq-2 space (``AceSynthesizer(seq2_bounds()).count()``).
SEQ2_SPACE = 305_498
#: The paper's full ACE workload set (§6.4).
PAPER_WORKLOADS = 3_370_000


def test_sec64_generation_rate(benchmark):
    def generate_batch():
        synthesizer = AceSynthesizer(seq2_bounds())
        return list(synthesizer.generate(limit=GENERATION_BATCH))

    workloads = benchmark(generate_batch)
    seconds = benchmark.stats.stats.mean
    rate = len(workloads) / seconds
    print_table(
        "§6.4: ACE workload generation",
        [
            ("workloads generated per second", "~150 /s", f"{rate:,.0f} /s"),
            ("time for the full 3.37M set", "374 min", f"{PAPER_WORKLOADS / rate / 60:.1f} min"),
        ],
        ("quantity", "paper", "measured / projected"),
    )
    assert len(workloads) == GENERATION_BATCH
    # The pure-Python generator must at least match the paper's rate.
    assert rate > 150


def test_sec64_full_seq2_enumeration_rate(benchmark):
    """The whole seq-2 space, every workload built: the rate a campaign's
    input set-up pays, so a slower walk shows here first."""

    def enumerate_space():
        return sum(1 for _ in AceSynthesizer(seq2_bounds()).generate())

    total = benchmark.pedantic(enumerate_space, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.median
    rate = total / seconds
    print_table(
        "§6.4: ACE enumeration of the full seq-2 space",
        [
            ("workloads enumerated", f"{SEQ2_SPACE:,}", f"{total:,}"),
            ("seconds", "", f"{seconds:.2f} s"),
            ("workloads per second", "~150 /s", f"{rate:,.0f} /s"),
            ("time for the full 3.37M set", "374 min",
             f"{PAPER_WORKLOADS / rate / 60:.1f} min"),
        ],
        ("quantity", "paper", "measured / projected"),
    )
    assert total == SEQ2_SPACE
    # Loose floor: ~550 k/s measured on a 2-core x86 box (CPython 3.11).
    assert rate >= 100_000


def test_sec64_generation_is_a_one_time_cost(benchmark):
    """Generated workloads can be reused for every target file system."""

    def generate_twice():
        first = AceSynthesizer(seq2_bounds()).sample(200)
        second = AceSynthesizer(seq2_bounds()).sample(200)
        return first, second

    first, second = benchmark(generate_twice)
    assert [w.workload_id() for w in first] == [w.workload_id() for w in second]


def test_sec64_deployment_model(benchmark):
    spec = ClusterSpec()

    def model():
        estimate = estimate_deployment(3_370_000, spec)
        workloads = AceSynthesizer(seq2_bounds()).sample(780)
        # One batch per VM, sibling families kept whole, as a campaign chunks them.
        batches = list(family_chunks(workloads, -(-len(workloads) // spec.total_vms)))
        return estimate, batches

    estimate, batches = benchmark(model)
    print_table(
        "§6.4: deployment to the 780-VM cluster (modelled)",
        [
            ("group workloads by VM", "34 min", f"{estimate.grouping_seconds / 60:.1f} min"),
            ("copy to Chameleon nodes", "199 min", f"{estimate.node_copy_seconds / 60:.1f} min"),
            ("copy to VMs", "4 min", f"{estimate.vm_copy_seconds / 60:.1f} min"),
            ("total", "237 min", f"{estimate.total_seconds / 60:.1f} min"),
        ],
        ("step", "paper", "model"),
    )
    assert 200 * 60 <= estimate.total_seconds <= 260 * 60
    assert all(batches) and len(batches) <= spec.total_vms
    assert sum(len(batch) for batch in batches) == 780
