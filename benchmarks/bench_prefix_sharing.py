"""Prefix-shared recording: recorded write work is sublinear in sibling count.

ACE's B3 bound emits sibling families — workloads that differ only in their
last operation or persistence point — so the recording phase re-runs the same
mkfs + prefix operations over and over.  The prefix-shared recorder records
each shared prefix once and forks O(1) snapshots per sibling, so the *fresh*
recorded write requests (writes actually performed, rather than inherited
from the cached prefix) grow with the divergent suffixes only.

This benchmark measures a seq-2 ACE sibling family and asserts:

* fresh recorded writes drop >= 1.8x with sharing enabled (the §6 recording
  cost lever), with every sibling's io_log byte-for-byte identical,
* fresh writes are sublinear in sibling count: the family's shared prefix is
  paid once, not once per sibling,
* handed the family's spine plan, the recorder freezes at most one spine node
  per executed operation — and far fewer than freeze-every-depth recording —
  without losing a single prefix hit,
* a sibling family inherits verdicts: the crash states of the shared
  prefix's persistence points are mounted and checked by the first sibling
  that reaches them, not by every one.

Runs on tiny bounds so it doubles as the CI regression smoke next to the
fig3 / crash-plan benchmarks.
"""

from itertools import islice

from repro.ace import AceSynthesizer, group_siblings, seq2_bounds
from repro.crashmonkey import CrashMonkey, WorkloadRecorder
from repro.crashmonkey.recorder import plan_spine

from conftest import BENCH_DEVICE_BLOCKS, print_table

#: How many sibling families of the filtered seq-2 stream to scan for the
#: measured family (the first sufficiently large one is used).
FAMILY_SCAN_LIMIT = 60
MIN_FAMILY_SIZE = 16


def _seq2_family():
    """A seq-2 ACE sibling family with a shared multi-op prefix.

    Link workloads carry their whole dependency prefix (mkdir parents +
    creat of the link source) plus the first core op in the shared part, so
    they show the recording-phase sharing the tentpole targets.
    """
    stream = AceSynthesizer(seq2_bounds()).stream(required_ops=("link",))
    for family in islice(group_siblings(stream), FAMILY_SCAN_LIMIT):
        if len(family) >= MIN_FAMILY_SIZE:
            return family
    raise AssertionError("no seq-2 link family of the expected size found")


def _record_family(family, share_prefixes, planned=False):
    recorder = WorkloadRecorder("logfs", device_blocks=BENCH_DEVICE_BLOCKS,
                                share_prefixes=share_prefixes)
    steps = plan_spine(family) if planned else [None] * len(family)
    profiles = [recorder.profile(workload, step=step)
                for workload, step in zip(family, steps)]
    fresh = sum(profile.fresh_write_requests for profile in profiles)
    return recorder, profiles, fresh


def test_fresh_recorded_writes_drop_at_least_1_8x_for_a_seq2_family():
    family = _seq2_family()
    scratch_recorder, scratch_profiles, scratch_fresh = _record_family(family, False)
    shared_recorder, shared_profiles, shared_fresh = _record_family(family, True)

    # Parity first: sharing must never change what is recorded.
    for shared, scratch in zip(shared_profiles, scratch_profiles):
        assert shared.io_log == scratch.io_log, shared.workload.display_name()
        assert shared.oracles == scratch.oracles
        assert shared.tracker_views == scratch.tracker_views

    reduction = scratch_fresh / max(shared_fresh, 1)
    print_table(
        "prefix-shared recording: seq-2 sibling family "
        f"({len(family)} siblings, skeleton {family[0].skeleton()})",
        [
            ("recorded write requests (from scratch)", scratch_fresh),
            ("fresh write requests (prefix-shared)", shared_fresh),
            ("reduction", f"{reduction:.2f}x"),
            ("prefix hits", f"{shared_recorder.prefix_hits}/{len(family)}"),
            ("ops reused", shared_recorder.prefix_ops_reused),
            ("recording seconds saved", f"{shared_recorder.prefix_seconds_saved:.3f}"),
        ],
        headers=("metric", "value"),
    )
    assert scratch_fresh == sum(
        sum(1 for request in profile.io_log if request.is_write)
        for profile in scratch_profiles
    )
    # Measured on the first 16-sibling (creat, link) family: 72 writes from
    # scratch, 39 fresh with sharing, 1.85x.  The reduction approaches 2x as
    # a family grows (12 / 16 / 20 siblings: 1.74x / 1.85x / 1.91x), so the
    # bar sits just under this family's figure.
    assert reduction >= 1.8, f"expected >= 1.8x, measured {reduction:.2f}x"
    assert scratch_recorder.prefix_hits == 0


def test_fresh_writes_are_sublinear_in_sibling_count():
    """From-scratch write work is linear in siblings; shared work is not.

    The signature of sublinearity: as the tested slice of the family grows,
    the reduction factor (scratch writes / fresh writes) strictly improves —
    the shared prefix is paid once however many siblings ride on it, while
    from-scratch recording pays it per sibling.
    """
    family = _seq2_family()
    rows, reductions = [], []
    for count in (2, 4, 8, len(family)):
        siblings = family[:count]
        _, scratch_profiles, scratch_fresh = _record_family(siblings, False)
        _, _, shared_fresh = _record_family(siblings, True)
        reduction = scratch_fresh / max(shared_fresh, 1)
        reductions.append(reduction)
        rows.append((count, scratch_fresh, shared_fresh, f"{reduction:.2f}x"))
    print_table(
        "sublinearity: recorded write work vs sibling count",
        rows, headers=("siblings", "scratch writes", "fresh writes", "reduction"),
    )
    assert reductions == sorted(reductions), "reduction must grow with family size"
    assert reductions[-1] > reductions[0], "sharing must amortize across siblings"


def test_the_plan_freezes_no_more_than_it_executes_and_keeps_every_hit():
    family = _seq2_family()
    every_depth, eager_profiles, _ = _record_family(family, True)
    planned, profiles, _ = _record_family(family, True, planned=True)
    executed = sum(len(workload.ops) - profile.prefix_ops_reused
                   for workload, profile in zip(family, profiles))
    print_table(
        f"spine plan over the family ({len(family)} siblings)",
        [
            ("operations executed", executed),
            ("spine freezes (every depth)", every_depth.spine_freezes),
            ("spine freezes (planned)", planned.spine_freezes),
            ("prefix hits", f"{planned.prefix_hits}/{len(family)}"),
            ("ops reused", planned.prefix_ops_reused),
        ],
        headers=("metric", "value"),
    )
    for told, untold in zip(profiles, eager_profiles):
        assert told.io_log == untold.io_log, told.workload.display_name()
    assert planned.spine_freezes <= executed
    assert planned.spine_freezes < every_depth.spine_freezes
    assert (planned.prefix_hits, planned.prefix_ops_reused, planned.prefix_writes_reused) \
        == (every_depth.prefix_hits, every_depth.prefix_ops_reused,
            every_depth.prefix_writes_reused)


def test_a_sibling_family_inherits_verdicts():
    family = _seq2_family()
    harness = CrashMonkey("logfs", device_blocks=BENCH_DEVICE_BLOCKS)
    results = harness.test_workloads(family)
    tested = sum(result.scenarios_tested for result in results)
    inherited = sum(result.inherited_verdicts for result in results)
    memoized = sum(result.memoized_scenarios for result in results)
    print_table(
        "inherited verdicts over the family",
        [
            ("crash states tested", tested),
            ("mounted + checked", tested - inherited - memoized),
            ("inherited from an earlier sibling", inherited),
            ("share inherited", f"{inherited / tested:.0%}"),
        ],
        headers=("metric", "value"),
    )
    assert inherited >= 1, "siblings re-reach the shared prefix's persistence points"
    # Inheritance changes who mounts a state, never what is reported.
    reference = CrashMonkey("logfs", device_blocks=BENCH_DEVICE_BLOCKS, share_replay=False)
    expected = reference.test_workloads(family)
    assert [result.canonical_dict() for result in results] \
        == [result.canonical_dict() for result in expected]
    assert sum(result.inherited_verdicts for result in expected) == 0
