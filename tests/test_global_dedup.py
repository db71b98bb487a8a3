"""Campaign-global cross-workload dedup (disk-backed sighting cache).

The in-memory :class:`CrossWorkloadCache` is per harness — campaign-wide
under the serial backend but only per *worker* under a process pool.  The
sqlite-backed :class:`GlobalDedupCache` shares first sightings across every
harness pointed at one path, restoring campaign-global scope under a pool:

* **Exactly-once** — of N caches (or N processes) sighting the same key,
  exactly one wins the right to test it; every other observer skips.
* **Campaign parity** — a pool campaign with the shared database skips the
  same total number of scenarios as a serial campaign, because the skipped
  set is the content-keyed complement of the unique keys, independent of
  which worker tests a key first.
* **Auto-provisioning** — a pool campaign with ``cross_workload_dedup`` and
  no explicit path gets a temporary campaign-global database for the run.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.ace import seq1_bounds
from repro.core import B3Campaign, CampaignConfig
from repro.crashmonkey import CrashMonkey, GlobalDedupCache
from repro.engine import HarnessSpec, run_campaign
from repro.workload import parse_workload

import differential
from conftest import SIBLING_A, SMALL_DEVICE_BLOCKS


def _hammer(path, keys):
    """Worker: register every key; return how many this process won."""
    cache = GlobalDedupCache(path)
    try:
        return sum(1 for key in keys if cache.first_sighting(key))
    finally:
        cache.close()


# --------------------------------------------------------------------------- cache unit


class TestGlobalDedupCache:
    def test_first_sighting_is_exactly_once_per_key(self, tmp_path):
        cache = GlobalDedupCache(str(tmp_path / "s.sqlite"))
        assert cache.first_sighting(("a", "b", "c"))
        assert not cache.first_sighting(("a", "b", "c"))
        assert cache.first_sighting(("a", "b", "d"))
        assert len(cache) == 2
        assert cache.misses == 2 and cache.hits == 1
        cache.close()

    def test_sightings_are_shared_across_instances(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        first = GlobalDedupCache(path)
        second = GlobalDedupCache(path)
        assert first.first_sighting(("x", None, "z"))
        # A different connection sees the sighting — including None parts.
        assert not second.first_sighting(("x", None, "z"))
        assert len(second) == 1
        first.close()
        second.close()

    def test_concurrent_processes_register_each_key_exactly_once(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        keys = [("digest", str(n % 40)) for n in range(120)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            wins = list(pool.map(_hammer, [path] * 4, [keys] * 4))
        # 4 processes x 120 overlapping sightings, 40 unique keys: the
        # database arbitrates exactly one winner per key, no more, no less.
        assert sum(wins) == 40
        survivors = GlobalDedupCache(path)
        assert len(survivors) == 40
        survivors.close()


# --------------------------------------------------------------------------- harness scope


class TestHarnessGlobalDedup:
    def test_two_harnesses_share_one_sighting_database(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        first = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                            cross_workload_dedup=True, global_dedup_cache=path)
        second = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                             cross_workload_dedup=True, global_dedup_cache=path)
        result_a = first.test_workload(parse_workload(SIBLING_A, name="A"))
        # A *different harness* re-testing the identical workload skips every
        # checkpoint — the scope is the database, not the harness lifetime.
        result_b = second.test_workload(parse_workload(SIBLING_A, name="A2"))
        assert result_a.cross_deduped_scenarios == 0
        assert result_b.scenarios_tested == 0
        assert result_b.cross_deduped_scenarios == result_a.scenarios_tested
        assert not result_b.bug_reports

    def test_path_is_ignored_without_cross_workload_dedup(self, tmp_path):
        harness = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                              cross_workload_dedup=False,
                              global_dedup_cache=str(tmp_path / "s.sqlite"))
        assert harness.cross_cache is None


# --------------------------------------------------------------------------- campaign scope


def _totals(run):
    results = run.result.results
    return (
        sum(result.scenarios_tested for result in results),
        sum(result.cross_deduped_scenarios for result in results),
        len(run.result.all_reports()),
    )


class TestCampaignGlobalDedup:
    def test_pool_with_shared_database_skips_exactly_what_serial_skips(self, tmp_path):
        workloads = differential.space()
        serial = differential.campaign(cross_workload_dedup=True)
        pool_spec = HarnessSpec(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                                cross_workload_dedup=True,
                                global_dedup_cache=str(tmp_path / "s.sqlite"))
        pool = run_campaign(pool_spec, iter(workloads), processes=2, chunk_size=32)
        # The skipped set is determined by content keys, not by scheduling:
        # each unique (states, expectations) key is tested exactly once
        # globally, so the totals match the campaign-wide serial cache.
        assert _totals(pool) == _totals(serial)
        assert _totals(serial)[1] > 0, "the sibling space must produce repeats"

    def test_pool_campaign_auto_provisions_a_global_database(self):
        workloads = differential.space()
        serial = differential.campaign(cross_workload_dedup=True).result
        pooled = B3Campaign(CampaignConfig(
            fs_name="btrfs", bounds=seq1_bounds(),
            device_blocks=SMALL_DEVICE_BLOCKS, cross_workload_dedup=True,
            processes=2, chunk_size=32,
        )).run(workloads=list(workloads))
        assert pooled.cross_deduped_scenarios == serial.cross_deduped_scenarios
        assert len(pooled.all_reports()) == len(serial.all_reports())

    def test_serial_campaign_keeps_the_in_memory_cache(self):
        campaign = B3Campaign(CampaignConfig(
            fs_name="btrfs", bounds=seq1_bounds(), max_workloads=10,
            device_blocks=SMALL_DEVICE_BLOCKS, cross_workload_dedup=True,
        ))
        campaign.run()
        assert campaign.spec.global_dedup_cache is None
        assert not isinstance(campaign.harness.cross_cache, GlobalDedupCache)


# --------------------------------------------------------------------------- CLI


def test_cli_campaign_accepts_global_dedup_cache(tmp_path):
    from repro.cli.main import main
    path = str(tmp_path / "s.sqlite")
    code = main([
        "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
        "--limit", "10", "--patched", "--cross-workload-dedup",
        "--global-dedup-cache", path,
    ])
    assert code == 0
    survivors = GlobalDedupCache(path)
    assert len(survivors) > 0
    survivors.close()
