"""Command-line interface."""

import json
import sqlite3
from contextlib import closing

import pytest

from repro.ace import seq1_bounds
from repro.ace.adapter import CrashMonkeyAdapter
from repro.cli.main import _campaign_config, build_parser, main
from repro.core import B3Campaign
from repro.crashmonkey import CrashMonkey
from repro.crashmonkey.report import CrashTestResult
from repro.options import CampaignConfig
from repro.service import CampaignStateDB, DurableCampaignRunner, statedb

from conftest import reopen_tail, run_until


def test_study_command_prints_table1(capsys):
    assert main(["study"]) == 0
    output = capsys.readouterr().out
    assert "26 unique crash-consistency bugs" in output
    assert "btrfs" in output


def test_list_bugs_command(capsys):
    assert main(["list-bugs"]) == 0
    output = capsys.readouterr().out
    assert "known-1" in output
    assert "new-11" in output
    assert "outside B3 bounds" in output


@pytest.mark.parametrize("command", ["test", "campaign", "analyze"])
def test_filesystem_choices_are_the_simulators_and_the_file_systems_they_model(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--filesystem {btrfs,ext4,f2fs,flashfs,fscq,logfs,seqfs,verifs,xfs}" \
        in capsys.readouterr().out


def test_generate_command_reports_count(capsys):
    assert main(["generate", "--preset", "seq-1", "--limit", "25"]) == 0
    err = capsys.readouterr().err
    assert "generated 25 workloads" in err


def test_generate_with_a_zero_limit_generates_nothing(capsys):
    assert main(["generate", "--preset", "seq-1", "--limit", "0"]) == 0
    assert "generated 0 workloads" in capsys.readouterr().err


def test_generate_can_print_workloads(capsys):
    main(["generate", "--seq-length", "1", "--limit", "2", "--print-workloads"])
    out = capsys.readouterr().out
    assert "sync" in out or "fsync" in out


def test_test_command_runs_a_workload_file(tmp_path, capsys):
    workload_file = tmp_path / "figure1.wl"
    workload_file.write_text(
        "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"
    )
    # Buggy file system: exit code 1 and a bug report.
    assert main(["test", str(workload_file), "--filesystem", "btrfs"]) == 1
    assert "Bug report" in capsys.readouterr().out
    # Patched file system: exit code 0.
    assert main(["test", str(workload_file), "--filesystem", "btrfs", "--patched"]) == 0


def test_campaign_command_with_patched_fs(capsys):
    code = main([
        "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
        "--limit", "20", "--patched",
    ])
    assert code == 0
    assert "workloads" in capsys.readouterr().out


def test_reproduce_command_for_a_new_bug(capsys):
    assert main(["reproduce", "new-11"]) == 0
    assert "REPRODUCED" in capsys.readouterr().out


def test_reproduce_command_out_of_bounds_bug(capsys):
    assert main(["reproduce", "known-25"]) == 2
    assert "outside B3" in capsys.readouterr().out


def test_reproduce_patched_returns_nonzero(capsys):
    assert main(["reproduce", "new-11", "--patched"]) == 1


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


class TestCheckSelection:
    def test_list_checks_subcommand(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for name in ("mount", "read", "directory", "atomicity", "write", "hardlink", "xattr"):
            assert name in out

    @pytest.mark.parametrize("command", [["test", "w.wl"], ["campaign"]], ids=["test", "campaign"])
    def test_the_checks_are_listed_by_their_command_alone(self, capsys, command):
        with pytest.raises(SystemExit) as refused:
            main([*command, "--list-checks"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --list-checks" in capsys.readouterr().err

    def test_test_without_a_workload_errors(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["test"])
        assert refused.value.code == 2
        assert "required: workload" in capsys.readouterr().err

    def test_checks_flag_restricts_the_pipeline(self, tmp_path, capsys):
        workload_file = tmp_path / "figure1.wl"
        workload_file.write_text(
            "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"
        )
        # The figure-1 workload produces an unmountable state; restricting the
        # pipeline to the read check makes the unmountable state invisible.
        assert main(["test", str(workload_file), "--checks", "read"]) == 0
        # The mount check alone still catches it.
        assert main(["test", str(workload_file), "--checks", "mount"]) == 1

    def test_skip_checks_flag(self, tmp_path):
        workload_file = tmp_path / "dir-bug.wl"
        workload_file.write_text(
            "mkdir A\ncreat A/foo\nsync\ncreat A/bar\nfsync A\nfsync A/bar\n"
        )
        assert main(["test", str(workload_file)]) == 1
        assert main([
            "test", str(workload_file),
            "--skip-checks", "write,directory,read,hardlink,xattr",
        ]) == 0

    def test_unknown_check_name_is_rejected(self, tmp_path):
        workload_file = tmp_path / "w.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--checks", "raed"])

    def test_empty_checks_value_is_rejected(self, tmp_path):
        # An empty selection must not silently run zero checks and pass.
        workload_file = tmp_path / "w.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--checks", ""])
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--checks", ","])

    def test_campaign_with_check_selection(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "15", "--checks", "mount,read",
        ])
        assert code in (0, 1)
        assert "workloads" in capsys.readouterr().out


class TestCrashPlanFlags:
    def test_reorder_plan_finds_the_barrier_bug(self, tmp_path, capsys):
        workload_file = tmp_path / "barrier.wl"
        workload_file.write_text("creat foo\nwrite foo 0 4096\nfsync foo\n")
        # Ordered (prefix) replay cannot see the missing post-commit flush.
        assert main(["test", str(workload_file), "--filesystem", "f2fs"]) == 0
        capsys.readouterr()
        # The reorder plan drops the in-flight commit record and catches it.
        assert main([
            "test", str(workload_file), "--filesystem", "f2fs",
            "--crash-plan", "reorder", "--reorder-bound", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "reorder[drop=" in out

    def test_campaign_accepts_crash_plan_flags(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--crash-plan", "reorder", "--reorder-bound", "1",
        ])
        assert code == 0
        assert "workloads" in capsys.readouterr().out

    def test_invalid_plan_and_bound_are_rejected(self, tmp_path):
        workload_file = tmp_path / "w.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--crash-plan", "chaos"])
        with pytest.raises(SystemExit):
            main(["test", str(workload_file), "--reorder-bound", "0"])


class TestMechanismCli:
    WORKLOAD = "creat foo\nwrite foo 0 4096\nfsync foo\nsync\n"

    def test_list_planners_subcommand_names_every_registered_plan(self, capsys):
        from repro.crashmonkey import PLAN_NAMES

        assert main(["list-planners"]) == 0
        out = capsys.readouterr().out
        for name in PLAN_NAMES:
            assert name in out

    @pytest.mark.parametrize("command", [["test", "w.wl"], ["campaign"]], ids=["test", "campaign"])
    def test_the_planners_are_listed_by_their_command_alone(self, capsys, command):
        with pytest.raises(SystemExit) as refused:
            main([*command, "--list-planners"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --list-planners" in capsys.readouterr().err

    def test_analyze_prints_the_report_without_running_crash_states(self, tmp_path, capsys):
        workload_file = tmp_path / "both.wl"
        workload_file.write_text(self.WORKLOAD)
        assert main(["analyze", str(workload_file), "--filesystem", "f2fs"]) == 0
        out = capsys.readouterr().out
        assert "mechanism report" in out
        assert "journal-commit" in out
        assert "checkpoint-generation" in out
        assert "audit journal-commit: ok" in out
        assert "checkpoint windows:" in out
        assert "x reduction" in out
        assert "fleet cost" in out

    def test_analyze_json_out_is_the_full_schema2_report(self, tmp_path, capsys):
        import json as json_module

        workload_file = tmp_path / "both.wl"
        workload_file.write_text(self.WORKLOAD)
        json_out = tmp_path / "report.json"
        assert main(["analyze", str(workload_file), "--filesystem", "f2fs",
                     "--json-out", str(json_out)]) == 0
        capsys.readouterr()
        payload = json_module.loads(json_out.read_text())
        assert payload["schema"] == 2
        assert {e["mechanism"] for e in payload["evidence"]} \
            == {"journal-commit", "checkpoint-generation"}
        # The report is audited before it is written: every claim passed.
        assert {v["mechanism"] for v in payload["audit_verdicts"]} \
            == {"journal-commit", "checkpoint-generation"}
        assert all(v["ok"] for v in payload["audit_verdicts"])
        assert payload["demoted_evidence"] == []
        assert payload["scenarios_mechanism"] <= payload["scenarios_exhaustive"]
        assert payload["scenario_reduction"] >= 1.0
        assert sum(payload["window_kinds"].values()) == payload["checkpoints"]
        # The file is the report's own to_dict(), planning counts on top.
        from repro.workload import parse_workload
        report = CrashMonkey("f2fs").analyze(parse_workload(self.WORKLOAD))
        assert report.audited and report.demotions == 0
        planning = ("scenarios_exhaustive", "scenarios_mechanism", "scenario_reduction",
                    "window_kinds")
        assert {key: value for key, value in payload.items() if key not in planning} == \
            json_module.loads(json_module.dumps(report.to_dict()))

    def test_mechanism_campaign_reports_the_torn_bug_set(self, capsys):
        base = ["campaign", "--filesystem", "f2fs", "--preset", "seq-1",
                "--limit", "30"]
        assert main([*base, "--crash-plan", "torn"]) == 1
        torn_out = capsys.readouterr().out
        assert main([*base, "--crash-plan", "mechanism"]) == 1
        mechanism_out = capsys.readouterr().out

        def bug_lines(text):
            return sorted(line.split("scenario")[0] for line in text.splitlines()
                          if "Bug report" in line)

        assert bug_lines(torn_out) == bug_lines(mechanism_out)


class TestDurableCampaignCommands:
    CAMPAIGN = ["--preset", "seq-1", "--limit", "12", "--chunk-size", "4"]

    def _durable(self, db, campaign_id):
        """The CLI's durable campaign, run to completion under ``campaign_id``."""
        assert main(["campaign", "--state-db", db,
                     "--campaign-id", campaign_id, *self.CAMPAIGN]) == 0

    def _interrupted(self, db, campaign_id, chunks):
        """A durable campaign crashed in-process after ``chunks`` chunks."""
        config = CampaignConfig(bounds=seq1_bounds(), max_workloads=12, chunk_size=4)
        runner = DurableCampaignRunner(config, db, campaign_id=campaign_id)
        try:
            assert run_until(runner, chunks) is None
        finally:
            runner.close()

    @pytest.mark.parametrize("older", [False, True], ids=["new-store", "older-store"])
    def test_results_of_a_mechanism_campaign_print_its_derived_analysis(self, tmp_path, capsys,
                                                                       older):
        """`results` profiles the campaign's first valid workload; a report an
        older version stored is left unread."""
        db = str(tmp_path / "state.sqlite")
        args = ["--preset", "seq-1", "--limit", "8", "--chunk-size", "4", "-f", "logfs",
                "--crash-plan", "mechanism"]
        assert main(["campaign", "--state-db", db, "--campaign-id", "m", *args]) in (0, 1)
        config = _campaign_config(build_parser().parse_args(["campaign", *args]))
        campaign = B3Campaign(config)
        first = next(CrashMonkeyAdapter(campaign.fs_name).adapt_stream(campaign.iter_workloads()))
        report = config.harness_spec().build().analyze(first)
        if older:
            # The row an older version wrote, marked so that reading it would show.
            stale = json.dumps({**report.to_dict(), "fs_name": "stale"}, sort_keys=True)
            with closing(sqlite3.connect(db)) as conn, conn:
                conn.execute("CREATE TABLE mechanism_reports (campaign_id TEXT PRIMARY KEY, "
                             "report_json TEXT NOT NULL)")
                conn.execute("INSERT INTO mechanism_reports VALUES ('m', ?)", (stale,))
        capsys.readouterr()
        assert main(["results", "--state-db", db, "m"]) == 0
        out = capsys.readouterr().out
        block = "".join(f"  {line}\n" for line in report.summary().splitlines())
        assert out.endswith(f"\n\nmechanism analysis (representative workload):\n{block}")
        assert "stale" not in out

    def test_results_of_another_plan_print_no_analysis(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        self._durable(db, "plain")
        capsys.readouterr()
        assert main(["results", "--state-db", db, "plain"]) == 0
        assert "mechanism analysis" not in capsys.readouterr().out

    def test_a_campaign_id_without_a_state_db_is_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "--campaign-id", "one", *self.CAMPAIGN]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --campaign-id names a campaign in a state store; "
                                "give its --state-db PATH\n")
        assert list(tmp_path.iterdir()) == []

    def test_durable_campaign_runs_and_reruns(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        args = ["campaign", "--state-db", db, *self.CAMPAIGN]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 already done" in err
        # Same invocation resumes the same campaign: everything is done.
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 chunks executed" in err
        assert "3 already done" in err

    def test_json_out_round_trips(self, tmp_path, capsys):
        import json as json_module

        from repro.core.results import CampaignResult

        out = tmp_path / "result.json"
        assert main(["campaign", *self.CAMPAIGN, "--json-out", str(out)]) == 0
        capsys.readouterr()
        payload = json_module.loads(out.read_text())
        assert CampaignResult.from_dict(payload).workloads_tested == 12
        assert payload["derived"]["workloads_tested"] == 12

    def test_a_durable_campaign_and_its_results_write_one_json(self, tmp_path, capsys):
        """Both commands print the result the store holds: the same file."""
        import json as json_module

        db = str(tmp_path / "state.sqlite")
        ran, read = tmp_path / "campaign.json", tmp_path / "results.json"
        assert main(["campaign", "--state-db", db, "--campaign-id", "one",
                     "--preset", "seq-2", "--limit", "24", "--sample", "--chunk-size", "4",
                     "--json-out", str(ran)]) == 1
        assert main(["results", "--state-db", db, "one", "--json-out", str(read)]) == 0
        capsys.readouterr()
        assert json_module.loads(ran.read_text())["derived"]["failing_workloads"] > 0
        assert ran.read_bytes() == read.read_bytes()

    def test_progress_on_a_plain_campaign_prints_totals_and_eta(self, capsys):
        assert main(["campaign", "--progress", "--patched", *self.CAMPAIGN]) == 0
        err = capsys.readouterr().err
        # No state store, no census: the total comes from the ACE space index.
        assert "chunk 1: 4/12 workloads" in err
        assert "chunk 3: 12/12 workloads" in err
        assert "ETA" in err

    def test_progress_flag_reports_throughput_on_a_fresh_run(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        assert main(["campaign", "--state-db", db, "--progress",
                     *self.CAMPAIGN]) == 0
        err = capsys.readouterr().err
        # The first session discovers the chunk census as it streams; its
        # workload total (hence its ETA) comes from the ACE space index, as
        # a plain campaign's does.
        assert "chunk 1: 4/12 workloads" in err
        assert "workloads/s" in err
        assert "ETA" in err

    def test_progress_totals_and_eta_once_the_census_is_stored(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        self._durable(db, "prog")
        reopen_tail(db, "prog", 1)
        capsys.readouterr()
        # The stored census gives the resume session chunk/workload totals
        # and an ETA.
        assert main(["resume", "--state-db", db, "prog", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "chunk 2/3" in err
        assert "/12 workloads" in err
        assert "ETA" in err

    def test_durable_status_results_flow(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        self._durable(db, "flow")
        capsys.readouterr()

        assert main(["status", "--state-db", db]) == 0
        assert capsys.readouterr().out.startswith("flow ")

        assert main(["status", "--state-db", db, "flow"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "chunks 3/3, 12/12 workloads" in out

        json_out = tmp_path / "r.json"
        assert main(["results", "--state-db", db, "flow",
                     "--json-out", str(json_out)]) == 0
        assert json_out.exists()

    def test_results_of_unfinished_campaign_fail(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        self._interrupted(db, "pending", 1)
        capsys.readouterr()
        assert main(["results", "--state-db", db, "pending"]) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_finishes_an_interrupted_campaign(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        self._interrupted(db, "halfway", 1)
        capsys.readouterr()
        assert main(["resume", "--state-db", db, "halfway"]) == 0
        captured = capsys.readouterr()
        assert "1 already done" in captured.err
        assert "workloads" in captured.out
        assert main(["results", "--state-db", db, "halfway"]) == 0

    def test_status_of_empty_store(self, tmp_path, capsys):
        db = tmp_path / "state.sqlite"
        db.touch()  # exists, holds nothing
        assert main(["status", "--state-db", str(db)]) == 0
        assert "no campaigns" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["status"], ["status", "nope"], ["results", "nope"],
                                         ["resume", "nope"]],
                             ids=["status", "status-id", "results", "resume"])
    def test_a_missing_store_is_refused_not_created(self, tmp_path, capsys, command):
        db = tmp_path / "typo.sqlite"
        assert main([command[0], "--state-db", str(db), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: no campaign state store at {str(db)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_durable_campaign_decodes_each_failing_row_once(self, tmp_path, monkeypatch,
                                                              capsys):
        """Describing the result reads the failing rows; the exit status reads a count."""
        db = str(tmp_path / "state.sqlite")
        decoded = []
        from_row = CrashTestResult.from_row.__func__
        monkeypatch.setattr(CrashTestResult, "from_row", classmethod(
            lambda cls, row: decoded.append(row) or from_row(cls, row)))
        assert main(["campaign", "--state-db", db, "--campaign-id", "one",
                     "--preset", "seq-2", "--limit", "24", "--sample", "--chunk-size", "4"]) == 1
        assert "report groups:" in capsys.readouterr().out
        with CampaignStateDB.existing(db) as store:
            failing = store.campaign_result("one").failing_workloads
        assert len(decoded) == failing > 0

    def test_a_store_stamped_newer_is_refused_and_left_as_it_is(self, tmp_path, capsys):
        db = str(tmp_path / "state.sqlite")
        self._durable(db, "ahead")
        capsys.readouterr()
        ahead = statedb.SCHEMA_VERSION + 1

        def contents():
            with closing(sqlite3.connect(db)) as conn:
                (version,), = conn.execute("PRAGMA user_version")
                return version, list(conn.iterdump())

        with closing(sqlite3.connect(db)) as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (statedb.SCHEMA_VERSION,)
            conn.execute(f"PRAGMA user_version = {ahead}")
        before = contents()
        assert before[0] == ahead
        for command in (["status", "--state-db", db], ["resume", "--state-db", db, "ahead"],
                        ["results", "--state-db", db, "ahead"]):
            assert main(command) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: state store {db!r} has schema version {ahead}, newer than this "
                f"version's {statedb.SCHEMA_VERSION}; open it with the version that wrote it\n")
            assert contents() == before, command

    @pytest.mark.parametrize("command", ["status", "results", "resume"])
    def test_an_unknown_campaign_is_refused_in_one_line(self, tmp_path, capsys, command):
        db = str(tmp_path / "state.sqlite")
        self._durable(db, "known")
        capsys.readouterr()
        assert main([command, "--state-db", db, "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown campaign 'nope'\n"
        assert captured.out == ""
