"""Figure-5 post-processing and B3 campaigns."""


import pytest

from repro.ace import seq1_bounds
from repro.core import (
    B3Campaign,
    CampaignConfig,
    KnownBugDatabase,
    deduplicate,
    filter_new_reports,
    group_reports,
    known_bugs,
    quick_campaign,
)
from repro.crashmonkey import CrashMonkey
from repro.fs import BugConfig
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS


def _reports_for(texts, fs_name="btrfs", bugs=None):
    harness = CrashMonkey(fs_name, bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS)
    reports = []
    for index, text in enumerate(texts):
        result = harness.test_workload(parse_workload(text, name=f"w{index}"))
        reports.extend(result.bug_reports)
    return reports


#: Two workloads that fail because of the same underlying mechanism and only
#: differ in which files from the argument set they use (the Figure-5 case).
SAME_BUG_VARIANTS = [
    "creat foo\nmkdir A\nlink foo A/bar\nfsync foo",
    "creat bar\nmkdir B\nlink bar B/baz\nfsync bar",
]
DIFFERENT_BUG = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar"


class TestGrouping:
    def test_variants_of_one_bug_collapse_into_one_group(self):
        reports = _reports_for(SAME_BUG_VARIANTS)
        assert len(reports) == 2
        groups = group_reports(reports)
        assert len(groups) == 1
        assert len(groups[0]) == 2
        assert groups[0].consequence == reports[0].consequence

    def test_different_bugs_stay_in_different_groups(self):
        reports = _reports_for(SAME_BUG_VARIANTS + [DIFFERENT_BUG])
        groups = group_reports(reports)
        assert len(groups) == 2
        descriptions = "\n".join(group.describe() for group in groups)
        assert "unmountable" in descriptions

    def test_group_representative_is_the_first_report(self):
        reports = _reports_for(SAME_BUG_VARIANTS)
        group = group_reports(reports)[0]
        assert group.representative is reports[0]


class TestKnownBugDatabase:
    def test_matching_reports_are_filtered_out(self):
        reports = _reports_for(SAME_BUG_VARIANTS)
        database = KnownBugDatabase()
        database.add_report(reports[0])
        assert filter_new_reports(reports, database) == []

    def test_unknown_reports_pass_and_populate_the_database(self):
        reports = _reports_for(SAME_BUG_VARIANTS)
        database = KnownBugDatabase()
        fresh = filter_new_reports(reports, database)
        # The first report is new; the second matches the signature just added.
        assert len(fresh) == 1
        assert len(database) == 1

    def test_database_seeded_from_known_bug_corpus(self):
        database = KnownBugDatabase.from_known_bugs(known_bugs())
        assert len(database) > 0

    def test_deduplicate_combines_filter_and_grouping(self):
        reports = _reports_for(SAME_BUG_VARIANTS + [DIFFERENT_BUG])
        groups = deduplicate(reports)
        assert len(groups) == 2


class TestCampaign:
    def test_quick_campaign_on_patched_fs_finds_nothing(self):
        result = quick_campaign("btrfs", seq_length=1, max_workloads=60,
                                bugs=BugConfig.none())
        assert result.workloads_tested == 60
        assert result.failing_workloads == 0
        assert result.all_reports() == []
        assert result.consequences() == {}

    def test_sampled_campaign_on_buggy_fs_finds_bugs(self):
        config = CampaignConfig(
            fs_name="btrfs", bounds=seq1_bounds(), max_workloads=120, sample=True,
            device_blocks=SMALL_DEVICE_BLOCKS,
        )
        result = B3Campaign(config).run()
        assert result.workloads_tested == 120
        assert result.failing_workloads > 0
        assert len(result.grouped_reports()) <= len(result.all_reports())
        assert result.mean_test_seconds() > 0
        profile, replay, mount, fsck, check = result.phase_seconds()
        assert profile > 0 and replay > 0 and mount > 0 and check > 0
        assert fsck >= 0
        assert sum((profile, replay, mount, fsck, check)) == pytest.approx(
            sum(r.total_seconds for r in result.results)
        )

    def test_campaign_accepts_supplied_workloads(self):
        config = CampaignConfig(fs_name="fscq", device_blocks=SMALL_DEVICE_BLOCKS)
        campaign = B3Campaign(config)
        workloads = [parse_workload("creat foo\nwrite foo 0 4096\nsync\nwrite foo 4096 4096\nfdatasync foo")]
        result = campaign.run(workloads)
        assert result.workloads_tested == 1
        assert result.failing_workloads == 1

    @pytest.mark.parametrize("limit, sample, expected", [
        (None, False, 465), (50, False, 50), (40, True, 40), (1000, True, 465),
    ])
    def test_progress_events_carry_the_workload_total(self, limit, sample, expected):
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(), max_workloads=limit,
                                sample=sample, device_blocks=SMALL_DEVICE_BLOCKS,
                                bugs=BugConfig.none())
        events = []
        result = B3Campaign(config).run(progress=events.append)
        assert result.workloads_tested == expected
        assert {event.workloads_total for event in events} == {expected}
        assert events[-1].workloads_done == expected
        assert events[-1].eta_seconds == 0.0
        assert all(event.chunks_total is None for event in events)

    def test_the_total_is_sized_only_for_a_progress_callback(self, monkeypatch):
        from repro.ace import AceSynthesizer

        monkeypatch.setattr(AceSynthesizer, "stream_size",
                            lambda *a, **k: pytest.fail("sized the space for nobody"))
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(), max_workloads=10,
                                device_blocks=SMALL_DEVICE_BLOCKS)
        campaign = B3Campaign(config)
        assert campaign.run().workloads_tested == 10
        # Supplied workloads are not the campaign's space: no total either.
        events = []
        campaign.run(campaign.generate_workloads(), progress=events.append)
        assert [event.workloads_total for event in events] == [None]

    def test_summary_and_describe(self):
        result = quick_campaign("btrfs", seq_length=1, max_workloads=10, bugs=BugConfig.none())
        assert "workloads" in result.summary()
        assert "report groups" in result.describe()

    def test_campaign_resolves_filesystem_aliases(self):
        config = CampaignConfig(fs_name="F2FS", bounds=seq1_bounds(), max_workloads=5,
                                device_blocks=SMALL_DEVICE_BLOCKS)
        campaign = B3Campaign(config)
        assert campaign.fs_name == "flashfs"
        assert campaign.fs_model == "F2FS"
