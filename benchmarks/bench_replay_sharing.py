"""Shared replay + zero-copy slabs: the PR-6 levers.

Crash-state construction replays each workload's recorded stream onto the
base image.  ACE sibling families share long stream prefixes, so from-scratch
construction re-applies the same prefix writes once per sibling; the shared
replay trail applies them once and forks O(1) snapshots for everyone else.

This benchmark measures a seq-2 ACE sibling family and asserts:

* replayed write requests drop >= 1.5x with replay sharing enabled, with
  per-workload findings byte-for-byte identical,
* slab-backed payload storage returns block reads without per-read copies
  (read-only views of the shared arena) and stays byte-identical to the
  plain-``bytes`` representation, with read throughput printed for both.

Runs on tiny bounds so it doubles as the CI regression smoke next to the
prefix-sharing benchmark.
"""

import time
from itertools import islice

from repro.ace import AceSynthesizer, group_siblings, seq2_bounds
from repro.crashmonkey import CrashMonkey
from repro.storage import BLOCK_SIZE, BlockDevice, CowDevice, pad_block

from conftest import BENCH_DEVICE_BLOCKS, print_table

FAMILY_SCAN_LIMIT = 60
MIN_FAMILY_SIZE = 16


def _seq2_family():
    """A seq-2 ACE sibling family with a shared multi-op prefix."""
    stream = AceSynthesizer(seq2_bounds()).stream(required_ops=("link",))
    for family in islice(group_siblings(stream), FAMILY_SCAN_LIMIT):
        if len(family) >= MIN_FAMILY_SIZE:
            return family
    raise AssertionError("no seq-2 link family of the expected size found")


def _findings(results):
    return [
        (result.workload.display_name(), report.checkpoint_id,
         report.consequence, report.scenario)
        for result in results for report in result.bug_reports
    ]


def _test_family(family, share_replay):
    harness = CrashMonkey("logfs", device_blocks=BENCH_DEVICE_BLOCKS,
                          share_replay=share_replay)
    results = [harness.test_workload(workload) for workload in family]
    replayed = sum(result.replayed_write_requests for result in results)
    return harness, results, replayed


def test_replayed_writes_drop_at_least_1_5x_for_a_seq2_family():
    family = _seq2_family()
    _, scratch_results, scratch_replayed = _test_family(family, False)
    shared_harness, shared_results, shared_replayed = _test_family(family, True)

    # Parity first: sharing must never change what is found.
    assert _findings(shared_results) == _findings(scratch_results)

    cache = shared_harness.replay_cache
    reduction = scratch_replayed / max(shared_replayed, 1)
    print_table(
        "shared replay: seq-2 sibling family "
        f"({len(family)} siblings, skeleton {family[0].skeleton()})",
        [
            ("replayed write requests (from scratch)", scratch_replayed),
            ("replayed write requests (shared trail)", shared_replayed),
            ("reduction", f"{reduction:.2f}x"),
            ("trail hits", f"{cache.replay_hits}/{len(family)}"),
            ("writes inherited from the trail", cache.replay_writes_reused),
            ("replay seconds saved", f"{cache.replay_seconds_saved:.3f}"),
        ],
        headers=("metric", "value"),
    )
    assert reduction >= 1.5, f"expected >= 1.5x, measured {reduction:.2f}x"
    assert cache.replay_hits > 0
    # Accounting closes: fresh + inherited covers the from-scratch total for
    # the one-pass builds (scenario re-application is identical either way).
    assert shared_replayed + cache.replay_writes_reused == scratch_replayed


def test_slab_reads_are_zero_copy_and_byte_identical():
    blocks = BENCH_DEVICE_BLOCKS
    payload = b"\xabwrite-payload" * 64  # sub-block: takes the slab path

    def build(data):
        device = CowDevice(BlockDevice(num_blocks=blocks))
        for block in range(blocks):
            device.write_block(block, data)
        return device

    def read_throughput(device):
        start = time.perf_counter()
        total = 0
        for _ in range(4):
            for block in range(blocks):
                total += len(device.read_block(block))
        seconds = time.perf_counter() - start
        return total / seconds / (1 << 20), seconds

    slab_device = build(payload)
    # The reference: a full-block payload bypasses the slab and is held as
    # the caller's own per-block bytes object.
    bytes_device = build(bytes(pad_block(payload)))

    # Byte-identical representation...
    assert all(slab_device.read_block(b) == bytes_device.read_block(b)
               for b in range(blocks))
    # ...and genuinely zero-copy: reads hand out stable read-only views of
    # the arena, never per-read copies.
    view = slab_device.read_block(0)
    assert isinstance(view, memoryview) and view.readonly
    assert slab_device.read_block(0) is view

    slab_mbps, slab_seconds = read_throughput(slab_device)
    bytes_mbps, bytes_seconds = read_throughput(bytes_device)
    print_table(
        f"block read throughput ({blocks} blocks x 4 passes, "
        f"{BLOCK_SIZE}-byte blocks)",
        [
            ("slab-backed memoryview payloads", f"{slab_mbps:.0f} MiB/s ({slab_seconds:.3f}s)"),
            ("per-block bytes payloads", f"{bytes_mbps:.0f} MiB/s ({bytes_seconds:.3f}s)"),
        ],
        headers=("representation", "throughput"),
    )
