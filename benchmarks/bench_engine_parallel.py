"""Engine scaling — serial vs. process-pool execution of a seq-1 campaign.

The paper gets its throughput from embarrassing parallelism: 780 VMs each
running an independent CrashMonkey (§6.1).  The engine's process-pool backend
is that cluster in miniature — one long-lived harness per worker process,
chunks dispatched as workloads stream out of ACE.  This benchmark runs the
exhaustive seq-1 space both ways and compares wall clocks.

The speedup assertion needs real parallel hardware: on a single-CPU host the
workers timeshare one core and the pool can only add overhead, so the
comparison is printed but the assertion is skipped.
"""

import os
import time

import pytest

from repro.ace import seq1_bounds
from repro.core import B3Campaign, CampaignConfig

from conftest import BENCH_DEVICE_BLOCKS, print_table


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run(processes: int) -> float:
    config = CampaignConfig(fs_name="btrfs", device_blocks=BENCH_DEVICE_BLOCKS,
                            bounds=seq1_bounds(), processes=processes, chunk_size=64)
    start = time.perf_counter()
    result = B3Campaign(config).run()
    elapsed = time.perf_counter() - start
    assert result.workloads_tested > 0
    return elapsed


def test_engine_parallel_seq1_campaign(benchmark):
    processes = min(4, max(2, _cpus()))

    def measure():
        serial = _run(1)
        pooled = _run(processes)
        return serial, pooled

    serial, pooled = benchmark.pedantic(measure, iterations=1, rounds=1)
    print_table(
        "Engine scaling: exhaustive seq-1 campaign",
        [
            ("serial", "1", f"{serial:.3f} s", "1.00x"),
            ("process pool", str(processes), f"{pooled:.3f} s",
             f"{serial / pooled:.2f}x"),
        ],
        ("backend", "workers", "wall clock", "speedup"),
    )
    if _cpus() < 2:
        pytest.skip("single-CPU host: pool workers timeshare one core, "
                    "no parallel speedup is possible")
    assert pooled < serial
