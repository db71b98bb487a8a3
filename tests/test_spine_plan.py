"""The spine plan: a chunk's workloads say which spine nodes anyone reads.

``CrashMonkey.test_stream`` plans its stream before testing it
(``recorder.plan_spine``): workload *v* resumes at its shared prefix with
*v − 1*, so the recorder freezes only those resume nodes, hands the next
workload its own in memory and stores only what a workload after the next
reads; the replay cache keeps its forks in the stream windows of the nodes
the plan stores.  A node
is a cache, so the plan is admitted like every other optimisation
(README, "Differential harnesses"):

* **the lane** — the first seq-3-data family (and four siblings that hand
  one node on and on), tested as one stream under a zero budget (every
  stored node spilled and read back), under a resident budget, and under the one-workload lookahead the plan replaced, agrees on
  ``canonical_dict()`` with from-scratch testing; what it spills is counted
  by hand.
* **a seeded-unsound variant** — resuming from the in-hand node without
  forking it — fails the lane.
* **cache-only variants** — an empty plan, and a plan that omits a needed
  key — pass it, moving only session counters.
* **the trail's admission rules** — on short seq-2 streams the planned
  replay trail keeps every hit the unplanned one has, and loses one without
  any one of its rules.
"""

import sys

import pytest

from repro.ace.bounds import seq3_data_bounds
from repro.ace.synthesizer import AceSynthesizer
from repro.crashmonkey import harness as harness_module
from repro.crashmonkey import recorder as recorder_module
from repro.crashmonkey import replay_cache as replay_cache_module
from repro.crashmonkey.harness import CrashMonkey
from repro.crashmonkey.recorder import PlanStep, WorkloadRecorder, _shared_depth, plan_spine
from repro.crashmonkey.report import CrashTestResult
from repro.workload import parse_workload

import differential
from differential import ALL_FS

#: the first seq-3-data family (18 workloads), tested as one planned stream
FAMILY = dict(space="seq-3-data-family", stream=True)


def planned_with(make_plan):
    """A variant testing every stream under ``make_plan(workloads)``."""
    return lambda patch: patch.setattr(harness_module, "plan_spine", make_plan)


def lookahead_plan(workloads):
    """The plan this one replaced: each workload, told only its successor,
    freezes and stores every depth the two share, and hands nothing over."""
    keys = [workload.prefix_keys() for workload in workloads]
    steps = [PlanStep(workload, k, stored=frozenset(k[:_shared_depth(k, after) + 1]))
             for workload, k, after in zip(workloads, keys, keys[1:])]
    return steps + [PlanStep(workloads[-1], keys[-1])]


@pytest.mark.parametrize("space", ["seq-3-data-family", "namespace-siblings"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_a_zero_budget_planned_stream_matches_resident_and_lookahead(fs_name, space):
    stream = dict(space=space, stream=True)
    spilled = differential.run(fs_name, spine_memory_budget=0, **stream)
    resident = differential.run(fs_name, spine_memory_budget=1 << 28, **stream)
    lookahead = differential.run(fs_name, variant=planned_with(lookahead_plan),
                                 spine_memory_budget=0, **stream)
    scratch = differential.reference(fs_name, share_prefixes=False, share_replay=False,
                                     **stream)
    for run in (spilled, resident, lookahead):
        differential.assert_same(run, scratch)
    assert spilled.total("prefix_ops_reused") == lookahead.total("prefix_ops_reused") > 0
    # The plan reads less back from the store and stores no more.  The family
    # parts at many depths, and the plan stores less of it; the namespace
    # siblings share one path, which the lookahead stores for the next
    # sibling and the plan for the next stream, but they hand it on in memory.
    assert spilled.total("spine_rehydrations") < lookahead.total("spine_rehydrations")
    assert spilled.total("spine_spills") <= lookahead.total("spine_spills")
    if space == "seq-3-data-family":
        assert spilled.total("spine_spills") < lookahead.total("spine_spills")


def test_the_family_spills_the_keys_a_workload_after_the_next_resumes_from():
    """Counted by hand on the family: the workloads resume at depths
    4 3 5 3 5 2 5 4 6 4 6 2 5 4 6 4 6 (the second to the last).  A workload
    reads its resume node from the spine when its predecessor resumed deeper
    — the 3rd, 5th, 7th, 9th, 11th, 13th, 15th and 17th, at four keys: "creat
    write write", "creat write", then "creat write fsync write" and "creat
    write sync write".  Whoever freezes a key stores it, and each store is one
    spill under a zero budget.  The last workload, "creat write sync write
    sync write sync", has every node of its path stored for the next stream:
    its root and six operations, two of which ("creat write" and "creat write
    sync write") are among the four keys, and then the one operation it
    executes itself (nothing follows it, so it stores every depth).  Two
    keys off that path, seven nodes on it and one more: ten spills, and
    eight rehydrations (the replay trail, off here, keeps its forks in the
    stream windows of those nodes)."""
    recorder_only = differential.run("logfs", spine_memory_budget=0, share_replay=False,
                                     **FAMILY)
    assert recorder_only.total("spine_spills") == 2 + 7 + 1
    assert recorder_only.total("spine_rehydrations") == 8


# ------------------------------------------------------------------ seeded variants


def resumes_the_hand_without_forking(patch):
    """The node in hand is resumed from as it is: the run's file system and
    tracker are the node's own.  The next workload resuming from the same
    node — it gets it handed on — starts from the suffix this one ran."""
    real_profile, real_resume = WorkloadRecorder._profile_shared, WorkloadRecorder._resume_from
    handed = []

    def profile(recorder, *args):
        handed[:] = [recorder._in_hand]
        return real_profile(recorder, *args)

    def resume(recorder, node):
        run = real_resume(recorder, node)
        if node is handed[0]:
            node.fs.__dict__ = run.fs.__dict__
            node.tracker.__dict__ = run.tracker.__dict__
        return run

    patch.setattr(WorkloadRecorder, "_profile_shared", profile)
    patch.setattr(WorkloadRecorder, "_resume_from", resume)


def test_resuming_from_the_in_hand_node_without_forking_it_is_caught():
    differential.rejects(resumes_the_hand_without_forking,
                         test_a_zero_budget_planned_stream_matches_resident_and_lookahead,
                         "logfs", "namespace-siblings")


def empty_plan(workloads):
    return [PlanStep(workload, workload.prefix_keys(), stored=frozenset())
            for workload in workloads]


def plan_missing_a_key(workloads):
    """The real plan, but a key a later workload of the stream reads from the
    spine (one off the last workload's path) is neither stored nor handed over."""
    steps = plan_spine(workloads)
    key = min(key for step in steps[:-1] for key in step.stored if key not in steps[-1].keys)
    return [PlanStep(step.workload, step.keys, hand=None if step.hand == key else step.hand,
                     stored=None if step.stored is None else step.stored - {key})
            for step in steps]


@pytest.mark.parametrize("make_plan", [empty_plan, plan_missing_a_key],
                         ids=lambda make_plan: make_plan.__name__)
def test_a_wrong_plan_moves_only_session_counters(make_plan):
    planned = differential.run("logfs", spine_memory_budget=0, **FAMILY)
    wrong = differential.run("logfs", variant=planned_with(make_plan),
                             spine_memory_budget=0, **FAMILY)
    differential.assert_same(wrong, planned)
    moved = {name for name in CrashTestResult.SESSION_FIELDS
             if name.startswith(("prefix_", "spine_")) and wrong.total(name) != planned.total(name)}
    assert "prefix_ops_reused" in moved, moved
    assert wrong.total("prefix_ops_reused") < planned.total("prefix_ops_reused")


# ------------------------------------------------------------------ the replay trail

# The trail keeps a build's forks in the stream windows of the recorder nodes
# the plan stores (``recorder.TrailPlan``).  Each stream below, from the seq-2
# space on btrfs, loses a replay hit without one of the rules that size them.
PREFIX = "mkdir A\ncreat A/bar\nmkdir B\ncreat B/foo\nrename A/bar A/foo\n"
TRAIL_STREAMS = {
    # "fsync foo" and "sync" issue the same first requests: the third stream
    # matches the second's past the stored node it resumes at, into the next
    # operation, so a window reaches to that operation's end.
    "window": tuple(
        "creat foo\nwrite foo 0 8192\nmkdir B\ncreat B/bar\nwrite foo 2048 4096\n" + suffix
        for suffix in ("fsync foo\ntruncate B/bar 4096\nfsync B",
                       "fsync foo\ntruncate B/bar 4096\nsync",
                       "sync\ntruncate B/bar 4096\nfsync B/bar")),
    # The second build resumes past its recorder node on matching requests;
    # the third, resuming at that node, parts below, so every fork is kept.
    "resume": tuple(
        "mkdir B\ncreat B/bar\nmkdir A\n" + suffix
        for suffix in ("creat A/foo\ndwrite B/bar 0 4096\nsync\nlink A/foo B/foo\nfsync B",
                       "creat A/foo\ndwrite B/bar 0 4096\nsync\nlink A/foo B/foo\nsync",
                       "creat A/bar\ndwrite B/bar 0 4096\nlink A/bar foo\nfsync foo")),
    # The operation after the node the third workload resumes at issues no
    # requests (a rename), so the window runs to the end of "fsync A".
    "quiet": (PREFIX + "fsync A\nwrite B/foo 8192 4096\nfsync B/foo",
              PREFIX + "fsync A\nwrite B/foo 8192 4096\nfsync B",
              "mkdir A\ncreat A/foo\ncreat bar\nwrite bar 0 8192\nrename A/foo foo\n"
              "fsync A\ndwrite bar 4096 4096\nfsync bar"),
    # The second and third workloads resume past a stored node their builds
    # restage; its window is theirs too.
    "below": (PREFIX + "fsync A/bar\nwrite B/foo 8192 4096\nsync",
              PREFIX + "fsync A\nwrite B/foo 8192 4096\nfsync B/foo",
              PREFIX + "fsync A\nwrite B/foo 8192 4096\nfsync B",
              "mkdir A\ncreat A/foo\ncreat bar\nwrite bar 0 8192\nrename A/foo foo\n"
              "fsync A\ndwrite bar 4096 4096\nfsync bar"),
}


def windows_at_their_node(patch):
    real = replay_cache_module._at
    patch.setattr(replay_cache_module, "_at",
                  lambda forks, windows: real(forks, [(start, start) for start, _ in windows]))


def no_resume_rule(patch):
    real = recorder_module.TrailPlan
    patch.setattr(recorder_module, "TrailPlan", lambda resume, stored: real(sys.maxsize, stored))


def windows_to_the_next_operation(patch):
    patch.setattr(recorder_module, "_window",
                  lambda bounds, depth: (bounds[depth], bounds[min(depth + 1, len(bounds) - 1)]))


def no_windows_below_the_resume(patch):
    """Only the stored nodes a workload freezes or resumes from get windows."""
    real_profile, real_resume = WorkloadRecorder._profile_shared, WorkloadRecorder._resume_from
    real_window = recorder_module._window
    resumed = [0]

    def profile(recorder, *args):
        resumed[0] = 0
        return real_profile(recorder, *args)

    def resume(recorder, node):
        resumed[0] = node.depth
        return real_resume(recorder, node)

    patch.setattr(WorkloadRecorder, "_profile_shared", profile)
    patch.setattr(WorkloadRecorder, "_resume_from", resume)
    patch.setattr(recorder_module, "_window", lambda bounds, depth: (
        real_window(bounds, depth) if depth >= resumed[0] else (-1, -1)))


def unplanned(workloads):
    return [PlanStep(workload, workload.prefix_keys()) for workload in workloads]


def trail_stream(name, monkeypatch, variant=None, make_plan=plan_spine):
    """``TRAIL_STREAMS[name]`` tested as one stream on btrfs; its results and
    the number of forks the trail admitted."""
    workloads = [parse_workload(text, name=f"{name}-{n}")
                 for n, text in enumerate(TRAIL_STREAMS[name])]
    with monkeypatch.context() as patch:
        patch.setattr(harness_module, "plan_spine", make_plan)
        if variant is not None:
            variant(patch)
        harness = CrashMonkey("btrfs")
        results = list(harness.test_stream(workloads))
    return results, harness.replay_cache.nodes_admitted


@pytest.mark.parametrize("name", TRAIL_STREAMS)
def test_the_planned_trail_keeps_every_hit_of_the_unplanned_one(name, monkeypatch):
    planned, admitted = trail_stream(name, monkeypatch)
    every, every_admitted = trail_stream(name, monkeypatch, make_plan=unplanned)
    assert [r.canonical_dict() for r in planned] == [r.canonical_dict() for r in every]
    assert ([r.replay_writes_reused for r in planned]
            == [r.replay_writes_reused for r in every])
    assert admitted <= every_admitted


@pytest.mark.parametrize("name, variant", [
    ("window", windows_at_their_node),
    ("resume", no_resume_rule),
    ("quiet", windows_to_the_next_operation),
    ("below", no_windows_below_the_resume),
], ids=["window", "resume", "quiet", "below"])
def test_each_trail_rule_keeps_a_hit(name, variant, monkeypatch):
    planned, _ = trail_stream(name, monkeypatch)
    without, _ = trail_stream(name, monkeypatch, variant=variant)
    assert [r.canonical_dict() for r in without] == [r.canonical_dict() for r in planned]
    assert (sum(r.replay_writes_reused for r in without)
            < sum(r.replay_writes_reused for r in planned))


def test_the_plan_admits_fewer_trail_forks_than_no_plan(monkeypatch):
    """What the windows buy: over the first 200 seq-3-data workloads the
    trail admits fewer forks under the plan, and resumes every build as deep."""
    workloads = tuple(AceSynthesizer(seq3_data_bounds()).stream(limit=200))
    with monkeypatch.context() as patch:
        patch.setattr(harness_module, "plan_spine", unplanned)
        every = CrashMonkey("logfs")
        every_results = list(every.test_stream(workloads))
    planned = CrashMonkey("logfs")
    results = list(planned.test_stream(workloads))
    assert ([r.replay_writes_reused for r in results]
            == [r.replay_writes_reused for r in every_results])
    assert planned.replay_cache.nodes_admitted < every.replay_cache.nodes_admitted
