"""Disk-spilled trie spines under a resident-memory budget.

The guarantees this file pins, in the order the spill layer makes them:

* **Store mechanics** — LRU order, budget enforcement (peak never exceeds
  the budget), spill-file reuse on re-eviction, counter semantics, the
  256 MiB default.
* **Parity** — a zero budget (every node spilled and rehydrated on every
  access) changes nothing observable: recorded profiles, crash-state
  checkpoint records and full harness results are identical to the
  never-spilled run, proven over the full seq-1 space of all four
  simulated file systems.
* **Isolation** — a rehydrated node shares no mutable state with other
  rehydrations of the same slot (the aliasing regression), and a cleared
  prefix cache behaves exactly like a freshly built one.
* **Fault tolerance** — a truncated, torn or bit-flipped spill file and a
  failed spill write (full disk) are one typed miss, which the spine
  answers by resuming from the parent node — from scratch when no node
  reads: identical results, never an exception.
* **Durability** — a SIGKILLed spilling campaign resumes to canonically
  identical results whether its spill directory survived the crash or was
  deleted (spill files are session-scoped scratch, never durable state).
* **The unblocked milestone** — a bounded seq-3 campaign under the
  mechanism planner completes under a tight budget with the same findings
  as an unbudgeted run.
"""

import dataclasses
import errno
import os
import shutil
import signal
import sys
import zlib

import pytest

from repro.ace import seq2_bounds, seq3_data_bounds
from repro.cli.main import main
from repro.crashmonkey import CrashMonkey
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.errors import SpillMissError
from repro.storage import BLOCK_SIZE, DEFAULT_SPINE_MEMORY_BUDGET, SpineStore
from repro.storage import spill as spill_module
from repro.workload import parse_workload

import differential
from conftest import SIBLING_A, SIBLING_B, SMALL_DEVICE_BLOCKS, devices_of, topology
from differential import ALL_FS


# --------------------------------------------------------------------- store mechanics


class TestSpineStore:
    def test_under_budget_nothing_spills(self):
        store = SpineStore(memory_budget=1024)
        keys = [store.put({"n": n}, 100) for n in range(5)]
        assert store.spills == 0
        assert store.resident_bytes == 500
        for n, key in enumerate(keys):
            assert store.get(key) == {"n": n}
        assert store.rehydrations == 0

    def test_eviction_is_lru_and_get_refreshes_recency(self):
        store = SpineStore(memory_budget=250)
        first = store.put({"n": 0}, 100)
        second = store.put({"n": 1}, 100)
        store.get(first)  # first is now most-recently-used
        store.put({"n": 2}, 100)  # over budget: evicts second
        assert store.spills == 1
        # The resident survivors are exactly {first, third}; fetching the
        # evicted node rehydrates from disk.
        rehydrated_before = store.rehydrations
        assert store.get(second) == {"n": 1}
        assert store.rehydrations == rehydrated_before + 1

    def test_peak_resident_bytes_respects_the_budget(self):
        store = SpineStore(memory_budget=300)
        for n in range(10):
            store.put({"n": n}, 100)
            store.get(store.put({"m": n}, 50))
        assert store.peak_resident_bytes <= 300
        assert store.resident_bytes <= 300

    def test_zero_budget_spills_everything_and_get_still_returns(self):
        store = SpineStore(memory_budget=0)
        key = store.put({"payload": "x" * 64}, 1000)
        assert store.resident_bytes == 0
        assert store.spills == 1
        # get() must hand back the node even though enforcement immediately
        # re-evicts the entry it just rehydrated.
        assert store.get(key) == {"payload": "x" * 64}
        assert store.resident_bytes == 0

    def test_reeviction_reuses_the_spill_file(self):
        store = SpineStore(memory_budget=0)
        key = store.put({"n": 1}, 100)
        assert (store.spills, store.rehydrations) == (1, 0)
        spilled_bytes = store.spilled_bytes
        for round_trip in range(1, 4):
            assert store.get(key) == {"n": 1}
            assert store.rehydrations == round_trip
        # Nodes are immutable: re-evicting an already-spilled node never
        # rewrites the file, so the write-side counters are frozen.
        assert store.spills == 1
        assert store.spilled_bytes == spilled_bytes

    def test_explicit_spill_dir_is_used_and_drop_removes_files(self, tmp_path):
        spill_dir = str(tmp_path / "spines")
        store = SpineStore(memory_budget=0, spill_dir=spill_dir)
        key = store.put({"n": 1}, 10)
        files = os.listdir(spill_dir)
        assert len(files) == 1 and files[0].endswith(".node")
        store.drop(key)
        assert os.listdir(spill_dir) == []
        assert len(store) == 0

    def test_clear_drops_nodes_but_preserves_counters(self, tmp_path):
        store = SpineStore(memory_budget=0, spill_dir=str(tmp_path))
        for n in range(3):
            store.put({"n": n}, 10)
        assert store.spills == 3
        store.clear()
        assert len(store) == 0
        assert store.resident_bytes == 0
        assert store.spills == 3, "telemetry survives a clear"
        assert [f for f in os.listdir(tmp_path)] == []

    def test_two_stores_share_a_spill_dir_without_collisions(self, tmp_path):
        spill_dir = str(tmp_path)
        a = SpineStore(memory_budget=0, spill_dir=spill_dir)
        b = SpineStore(memory_budget=0, spill_dir=spill_dir)
        key_a = a.put({"who": "a"}, 10)
        key_b = b.put({"who": "b"}, 10)
        assert len(os.listdir(spill_dir)) == 2
        assert a.get(key_a) == {"who": "a"}
        assert b.get(key_b) == {"who": "b"}

    def test_no_budget_means_256_mib(self):
        # What a stored config without a budget resumes under.
        assert SpineStore().memory_budget == DEFAULT_SPINE_MEMORY_BUDGET == 256 * 1024 * 1024
        assert SpineStore(memory_budget=128).memory_budget == 128


# -------------------------------------------------------------------------- parity


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_spilled_profiles_match_unspilled_on_full_seq1_space(fs_name):
    """Prefix-shared recording through a zero budget is invisible."""
    spilling = differential.recorder(fs_name, spine_store=SpineStore(memory_budget=0))
    differential.assert_profiles_match(spilling, fs_name)
    assert spilling.spine_store.spills > 0, "the budget must actually bite"
    assert spilling.spine_store.rehydrations > 0


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_spilled_harness_results_match_unspilled_on_seq1(fs_name):
    spilling = differential.run(fs_name, spine_memory_budget=0, limit=40)
    plain = differential.reference(fs_name, limit=40)
    differential.assert_same(spilling, plain)
    assert spilling.total("spine_spills") > 0
    assert plain.total("spine_spills") == 0, "the default budget must not spill seq-1"


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_spilled_torn_results_match_unspilled_on_the_seq2_slice(fs_name):
    """The seq-2 slice the soundness suite prunes, under the torn plan, spilled."""
    spilling = differential.run(fs_name, space="seq-2", crash_plan="torn", spine_memory_budget=0)
    differential.assert_same(
        spilling, differential.reference(fs_name, space="seq-2", crash_plan="torn"))
    assert spilling.total("spine_rehydrations") > 0


def test_spilled_campaign_matches_across_backends():
    results = differential.assert_campaigns_agree("spine_memory_budget", (None, 0))
    assert results[(0, 1)].spine_spills > 0
    assert results[(0, 1)].spine_peak_resident_bytes == 0


# ------------------------------------------------------------------ fault tolerance


def _truncate_half(path):
    os.truncate(path, os.path.getsize(path) // 2)


def _truncate_empty(path):
    os.truncate(path, 0)


def _flip_a_payload_bit(path):
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x40]))


CORRUPTIONS = [_truncate_half, _truncate_empty, _flip_a_payload_bit, os.unlink]


def _fail_spill_writes(monkeypatch, failing_calls):
    """Make the spill module's n-th ``open(..., "wb")`` hit a full disk
    mid-write (after the frame header, so a partial file exists)."""
    calls = {"n": 0}

    class _FullDisk:
        def __init__(self, handle):
            self._handle = handle
            self._writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._handle.close()

        def write(self, data):
            self._writes += 1
            if self._writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self._handle.write(data)

    def flaky_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        if "w" in mode:
            calls["n"] += 1
            if calls["n"] in failing_calls:
                return _FullDisk(handle)
        return handle

    monkeypatch.setattr(spill_module, "open", flaky_open, raising=False)
    return calls


class TestSpillFaults:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_unreadable_spill_file_is_one_typed_miss(self, tmp_path, corrupt):
        store = SpineStore(memory_budget=0, spill_dir=str(tmp_path))
        key = store.put({"payload": "x" * 256}, 100)
        (name,) = os.listdir(tmp_path)
        corrupt(str(tmp_path / name))
        with pytest.raises(SpillMissError):
            store.get(key)
        assert store.lost == 1 and store.rehydrations == 0
        # The node stays lost (no retry against a file known to be bad), the
        # bad file is gone, and dropping the key is still clean.
        with pytest.raises(SpillMissError):
            store.get(key)
        assert os.listdir(tmp_path) == []
        store.drop(key)
        assert len(store) == 0 and store.resident_bytes == 0

    def test_failed_spill_write_loses_the_node_without_raising(self, tmp_path,
                                                              monkeypatch):
        store = SpineStore(memory_budget=0, spill_dir=str(tmp_path))
        _fail_spill_writes(monkeypatch, failing_calls={1})
        lost_key = store.put({"n": 1}, 100)  # must not raise
        assert (store.lost, store.spills, store.spilled_bytes) == (1, 0, 0)
        assert store.resident_bytes == 0, "the budget holds even when the disk is full"
        assert os.listdir(tmp_path) == [], "no partial or scratch file is left behind"
        with pytest.raises(SpillMissError):
            store.get(lost_key)
        # The disk recovers: later nodes spill and rehydrate normally.
        kept_key = store.put({"n": 2}, 100)
        assert store.get(kept_key) == {"n": 2}
        assert (store.lost, store.spills) == (1, 1)

    def test_a_vanished_spill_dir_costs_only_the_nodes_it_held(self, tmp_path, monkeypatch):
        spill_dir = tmp_path / "spines"
        made = []
        real_makedirs = os.makedirs

        def makedirs(path, *args, **kwargs):
            made.append(path)
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(spill_module.os, "makedirs", makedirs)
        store = SpineStore(memory_budget=0, spill_dir=str(spill_dir))
        held = [store.put({"n": n}, 100) for n in range(3)]
        assert made == [str(spill_dir)], "the directory is made by the first spill only"
        shutil.rmtree(spill_dir)
        later = store.put({"n": 3}, 100)            # must not raise, nor lose the node
        assert (store.spills, store.lost) == (4, 0) and len(made) == 2
        with pytest.raises(SpillMissError):
            store.get(held[1])
        assert store.lost == 1
        assert store.get(later) == {"n": 3}
        assert store.get(store.put({"n": 4}, 100)) == {"n": 4}
        assert (store.lost, len(made)) == (1, 2)

    def test_spill_files_are_framed_and_written_whole(self, tmp_path):
        store = SpineStore(memory_budget=0, spill_dir=str(tmp_path))
        store.put({"n": 1}, 100)
        (name,) = os.listdir(tmp_path)
        assert name.endswith(".node")
        blob = (tmp_path / name).read_bytes()
        length, crc = spill_module._FRAME.unpack(blob[:spill_module._FRAME.size])
        assert length == len(blob) - spill_module._FRAME.size
        assert crc == zlib.crc32(blob[spill_module._FRAME.size:])


@pytest.mark.parametrize("corrupt", [_truncate_half, _flip_a_payload_bit],
                         ids=lambda f: f.__name__)
def test_spill_faults_degrade_to_a_rebuild_with_identical_results(tmp_path, monkeypatch,
                                                                  corrupt):
    """A zero-budget seq-2 family survives its own medicine.

    Between two siblings every spill file on disk is damaged (so the next
    sibling's prefix node is unreadable), and later three spill writes hit a
    full disk.  The spine must answer by rebuilding from scratch: the results
    are canonically identical to an unspilled run and nothing raises out of
    ``test_workload``.
    """
    family = differential.space("seq-2", 36)
    plain = differential.reference("btrfs", crash_plan="reorder", space="seq-2", limit=36)
    assert any(result.bug_reports for result in plain.results)

    spill_dir = tmp_path / "spill"
    faulty = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="reorder",
                         share_prefixes=True, spine_memory_budget=0, spine_spill_dir=str(spill_dir))
    store = faulty.spine_store
    results = []
    for position, workload in enumerate(family):
        if position == 12:
            damaged = sorted(os.listdir(spill_dir))
            assert damaged and all(name.endswith(".node") for name in damaged)
            for name in damaged:
                corrupt(str(spill_dir / name))
        if position == 24:
            writes = _fail_spill_writes(monkeypatch, failing_calls={1, 2, 5})
        results.append(faulty.test_workload(workload))

    differential.assert_same(differential.Run(results), plain)
    assert writes["n"] > 5, "the injected write faults must have been reached"
    # Both fault kinds were hit: the damaged files cost a miss, and each of
    # the three failed writes loses the node it held.
    assert store.lost >= 3
    assert not results[12].prefix_shared
    # ... and the caches recover: siblings after a miss share prefixes again.
    assert results[13].prefix_shared and results[-1].prefix_shared
    assert not [name for name in os.listdir(spill_dir) if name.endswith(".tmp")]


# ------------------------------------------------------------------ cache regressions


def test_clear_restores_the_freshly_constructed_state():
    """A cleared prefix cache behaves exactly like a fresh one: no node in
    the store, none in hand, and the next profile records from scratch."""
    recorder = differential.recorder("logfs", spine_store=SpineStore(memory_budget=0))
    recorder.profile(parse_workload(SIBLING_A, name="A"))
    assert recorder.profile(parse_workload(SIBLING_B, name="B")).prefix_shared
    assert len(recorder._spine) and recorder.spine_store.spills

    recorder.clear_prefix_cache()
    assert (len(recorder._spine), recorder._spine.stubs, recorder._in_hand) == (0, [], None)
    assert len(recorder.spine_store) == 0
    cold = recorder.profile(parse_workload(SIBLING_B, name="B"))
    assert not cold.prefix_shared
    differential.assert_profiles_equal(
        cold, differential.recorder("logfs", share_prefixes=False).profile(
            parse_workload(SIBLING_B, name="B")))


def test_rehydrated_nodes_share_no_mutable_state():
    """Regression: two fetches of a spilled slot must not alias dicts.

    A rehydration that handed back cached mutable containers would let one
    profile's bookkeeping (records, oracles, window tuples) leak into a
    sibling's resume.  Each fetch rebuilds a fresh object graph — while still
    preserving the *intra-node* device identity topology the scenario dedup
    key relies on.
    """
    recorder = differential.recorder("logfs", spine_store=SpineStore(memory_budget=0))
    recorder.profile(parse_workload(SIBLING_A, name="A"))
    assert recorder.spine_store.spills > 0
    deepest = len(recorder._spine) - 1

    node1 = recorder._spine.fetch(deepest)
    node2 = recorder._spine.fetch(deepest)
    assert node1 is not node2
    assert node1.records is not node2.records
    assert node1.records.keys() == node2.records.keys()
    assert node1.records, "need checkpoint records for the aliasing check"
    for cid, record in node1.records.items():
        other = node2.records[cid]
        assert record is not other
        assert record.baseline is not other.baseline
        assert record.stable is not other.stable
        assert record.baseline.overlay_delta() == other.baseline.overlay_delta()
        assert record.stable.overlay_delta() == other.stable.overlay_delta()
    # Mutating one rehydration is invisible to the other.
    node1.records.clear()
    assert node2.records
    # Identity topology (which record forks alias which) is preserved.
    assert topology(devices_of(node2)) == topology(devices_of(recorder._spine.fetch(deepest)))


# ------------------------------------------------------------------ durable resume

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _spill_config() -> CampaignConfig:
    return CampaignConfig(fs_name="btrfs", bounds=None, max_workloads=40,
                          sample=True, chunk_size=4, spine_memory_budget=0)


@pytest.fixture(scope="module")
def uninterrupted_spilling():
    config = dataclasses.replace(_spill_config(), bounds=seq2_bounds())
    result = B3Campaign(config).run()
    assert result.failing_workloads > 0
    assert result.spine_spills > 0
    return result


def _run_spilling_victim(db_path: str, crash_after: int):
    """The durable CLI campaign in its own process, SIGKILLed by
    ``crashpoints.py`` right after its ``crash_after``-th ingest."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=SRC)
    args = [
        sys.executable, os.path.join(TESTS, "crashpoints.py"),
        "--after", str(crash_after), "--at", "ingest_outcome", "--",
        "campaign", "--state-db", db_path,
        "--campaign-id", "victim",
        "--preset", "seq-2", "--limit", "40", "--sample", "--chunk-size", "4",
        "--spine-memory-budget", "0",
    ]
    return subprocess.run(args, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=300)


@pytest.mark.parametrize("keep_spill_dir", [True, False],
                         ids=["spill-dir-preserved", "spill-dir-deleted"])
def test_sigkilled_spilling_campaign_resumes_identically(tmp_path, keep_spill_dir,
                                                         uninterrupted_spilling):
    """Spill files are scratch: resume works with or without them on disk."""
    from repro.service import CampaignStateDB, DurableCampaignRunner

    db_path = str(tmp_path / "state.sqlite")
    victim = _run_spilling_victim(db_path, crash_after=3)
    assert victim.returncode == -signal.SIGKILL

    spine_root = f"{db_path}.spine"
    assert os.path.isdir(os.path.join(spine_root, "victim")), (
        "a zero-budget durable campaign must have spilled beside its state db"
    )
    if not keep_spill_dir:
        shutil.rmtree(spine_root)

    with CampaignStateDB(db_path) as db:
        assert db.status("victim").chunks_done > 0
        assert not db.status("victim").complete

    runner = DurableCampaignRunner.from_db(db_path, "victim")
    try:
        resumed = runner.run()
        session = runner.last_session
    finally:
        runner.close()
    assert resumed is not None
    assert session.chunks_skipped > 0
    assert (resumed.canonical_dict()
            == uninterrupted_spilling.canonical_dict())


# ------------------------------------------------------------------ seq-3 milestone


def test_bounded_seq3_mechanism_campaign_completes_under_budget():
    """The unblocked milestone: seq-3 under the mechanism planner, spilling.

    A bounded slice of the seq-3 data space runs to completion under a
    budget a couple of orders of magnitude below the default, its resident
    high-water mark honours the budget, and the findings match an
    unbudgeted run exactly.
    """
    budget = 16 * BLOCK_SIZE

    def run(spine_memory_budget):
        config = CampaignConfig(
            fs_name="flashfs", bounds=seq3_data_bounds(), max_workloads=12,
            sample=True, crash_plan="mechanism",
            device_blocks=SMALL_DEVICE_BLOCKS,
            spine_memory_budget=spine_memory_budget,
        )
        return B3Campaign(config).run()

    budgeted = run(budget)
    unbudgeted = run(None)
    assert budgeted.workloads_tested == 12
    assert budgeted.spine_spills > 0
    assert budgeted.spine_peak_resident_bytes <= budget
    assert unbudgeted.spine_spills == 0
    assert budgeted.canonical_dict() == unbudgeted.canonical_dict()


# --------------------------------------------------------------------------- CLI


class TestCliFlags:
    def test_zero_budget_and_spill_dir_are_accepted(self, tmp_path):
        workload_file = tmp_path / "wl.wl"
        workload_file.write_text(SIBLING_A + "\n")
        spill_dir = tmp_path / "spines"
        assert main(["test", str(workload_file), "--filesystem", "btrfs",
                     "--patched", "--spine-memory-budget", "0",
                     "--spine-spill-dir", str(spill_dir)]) == 0
        assert list(spill_dir.iterdir()), "a zero budget must spill to the dir"

    def test_campaign_accepts_a_budget(self):
        assert main(["campaign", "--filesystem", "btrfs", "--preset", "seq-1",
                     "--limit", "10", "--patched",
                     "--spine-memory-budget", "65536"]) == 0

    def test_negative_budget_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--filesystem", "btrfs", "--preset", "seq-1",
                  "--spine-memory-budget", "-1"])
        assert "non-negative" in capsys.readouterr().err


def test_config_round_trips_through_the_service_codec(tmp_path):
    config = CampaignConfig(fs_name="btrfs", spine_memory_budget=4096,
                            spine_spill_dir=str(tmp_path))
    payload = config.to_dict()
    assert payload["spine_memory_budget"] == 4096
    restored = CampaignConfig.from_dict(payload)
    assert restored.spine_memory_budget == 4096
    assert restored.spine_spill_dir == str(tmp_path)
