"""The options schema: one declaration, everything else derived from it.

Every test here loops over ``dataclasses.fields()``, so an option added to
``repro.options`` is covered the day it is added — or fails the table check
that asks for its variant value.
"""

import argparse
import json
import os
import re
from dataclasses import dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ace import seq1_bounds, seq2_bounds
from repro.cli.main import _campaign_config as cli_config
from repro.cli.main import build_parser, main
from repro.core import B3Campaign
from repro.crashmonkey import CrashMonkey
from repro.errors import CampaignDriftError
from repro.fs import BugConfig
from repro.options import EXECUTION, IDENTITY, CampaignConfig, HarnessSpec, option
from repro.service import (
    CampaignStateDB,
    DurableCampaignRunner,
    default_campaign_id,
)

from conftest import run_until

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

#: one non-default value per option; the loops below fail on a field with none
VARIANTS = {
    "fs_name": "logfs",
    "bugs": BugConfig.only("lsw_unfenced_append"),
    "device_blocks": 2048,
    "only_last_checkpoint": True,
    "checks": ("mount", "read"),
    "skip_checks": ("write",),
    "crash_plan": "torn",
    "reorder_bound": 3,
    "torn_bound": 1,
    "dedup_scenarios": False,
    "share_prefixes": False,
    "spine_memory_budget": 0,
    "spine_spill_dir": "spill",
    "kernel_version": "5.0",
    "bounds": seq1_bounds(),
    "max_workloads": 7,
    "sample": True,
    "chunk_size": 8,
    "processes": 2,
}

ALL = fields(CampaignConfig)
TAGGED = {tag: [f.name for f in ALL if f.metadata["tag"] == tag]
          for tag in (IDENTITY, EXECUTION)}


def _variant(name, tmp_path=None):
    assert name in VARIANTS, f"option {name!r} has no variant value in VARIANTS"
    value = VARIANTS[name]
    if tmp_path is not None and name == "spine_spill_dir":
        value = str(tmp_path / value)
    return value


def _subparser(command):
    actions = build_parser()._subparsers._group_actions[0]
    return actions.choices[command]


def _flags(command):
    return {flag for action in _subparser(command)._actions for flag in action.option_strings}


# ------------------------------------------------------------------ the declaration


@pytest.mark.parametrize("spec_field", ALL, ids=lambda f: f.name)
def test_every_option_documents_and_classifies_itself(spec_field):
    assert spec_field.metadata["help"].strip()
    assert spec_field.metadata["tag"] in (IDENTITY, EXECUTION)
    assert _variant(spec_field.name) != spec_field.default


def test_the_execution_options_are_the_ones_parity_is_proven_for():
    # tests/test_prefix_sharing and test_spine_spill prove these cannot
    # change canonical_dict(); tagging anything else execution needs such a
    # proof first.
    assert set(TAGGED[EXECUTION]) == {
        "processes", "share_prefixes", "spine_memory_budget", "spine_spill_dir",
    }


def test_a_misspelt_harness_option_is_a_type_error():
    with pytest.raises(TypeError, match="torn_bond"):
        CrashMonkey("btrfs", torn_bond=1)
    harness = CrashMonkey("logfs", checks=["mount", "read"], torn_bound=1)
    assert harness.spec == HarnessSpec(fs_name="logfs", checks=("mount", "read"), torn_bound=1)
    hash(harness.spec)  # a list of checks is tupled: the spec stays hashable


# ------------------------------------------------------------------------ JSON codec


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({
    f.name: st.sampled_from([f.default, VARIANTS.get(f.name, f.default)]) for f in ALL
}))
def test_config_round_trips_through_json(values):
    config = CampaignConfig(**values)
    payload = config.to_dict()
    assert set(payload) == {f.name for f in ALL}
    assert json.loads(json.dumps(payload)) == payload
    assert CampaignConfig.from_dict(json.loads(json.dumps(payload))) == config


#: CampaignConfig.to_dict(CampaignConfig(fs_name="logfs", bounds=seq1_bounds(),
#: max_workloads=24, crash_plan="torn", torn_bound=1, skip_checks=("xattr",),
#: chunk_size=4, processes=2, spine_memory_budget=65536)) as PR 14 wrote it:
#: tri-state nulls, no kernel_version key, and options since removed
#: (analyze_mechanisms, cross_workload_dedup, global_dedup_cache) at their defaults
PR14_PAYLOAD = json.loads(
    '{"analyze_mechanisms": null, "bounds": {"allow_unpersisted": true, '
    '"device_blocks": 25600, "files_per_dir": 2, "label": "seq-1", "nested": false, '
    '"num_dirs": 2, "num_top_files": 2, "operations": ["creat", "mkdir", "falloc", '
    '"write", "mwrite", "link", "dwrite", "unlink", "rmdir", "setxattr", "removexattr", '
    '"remove", "truncate", "rename"], "persistence_ops": ["fsync", "sync"], '
    '"seq_length": 1, "write_ranges": ["append", "overlap_start", "overlap_middle", '
    '"overlap_end"]}, "bugs": null, "checks": null, "chunk_size": 4, '
    '"crash_plan": "torn", "cross_workload_dedup": false, "dedup_scenarios": true, '
    '"device_blocks": 4096, "fs_name": "logfs", "global_dedup_cache": null, '
    '"max_workloads": 24, "only_last_checkpoint": false, "processes": 2, '
    '"reorder_bound": 2, "sample": false, "share_prefixes": null, "share_replay": null, '
    '"skip_checks": ["xattr"], "spine_memory_budget": 65536, "spine_spill_dir": null, '
    '"torn_bound": 1}'
)
PR14_CONFIG = CampaignConfig(
    fs_name="logfs", bounds=seq1_bounds(), max_workloads=24, crash_plan="torn",
    torn_bound=1, skip_checks=("xattr",), chunk_size=4, processes=2,
    spine_memory_budget=65536)


def test_a_payload_written_by_the_previous_schema_decodes_to_defaults():
    assert CampaignConfig.from_dict(PR14_PAYLOAD) == PR14_CONFIG


def test_a_campaign_row_written_by_the_previous_schema_is_resumable(tmp_path):
    db_path = str(tmp_path / "state.sqlite")
    with CampaignStateDB(db_path) as db:
        db.create_campaign("old", PR14_PAYLOAD, label="seq-1", fs_name="logfs", fs_model="btrfs")
    runner = DurableCampaignRunner.from_db(db_path, "old", processes=1)
    try:
        resumed = runner.run()
    finally:
        runner.close()
    assert resumed.canonical_dict() == B3Campaign(PR14_CONFIG).run().canonical_dict()


def test_a_new_field_needs_no_other_edit():
    @dataclass(frozen=True)
    class Extended(CampaignConfig):
        retries: int = option(0, "re-run a failing workload this many times",
                              tag=EXECUTION, flags=("--retries",), type=int)

    config = Extended(fs_name="logfs", retries=3)
    payload = json.loads(json.dumps(config.to_dict()))
    assert payload["retries"] == 3
    assert Extended.from_dict(payload) == config
    assert "retries" not in config.identity()

    parser = argparse.ArgumentParser()
    Extended.add_arguments(parser)
    assert "--retries" in parser.format_help()
    assert Extended.from_args(parser.parse_args(["--retries", "2", "-f", "logfs"])) == \
        Extended(fs_name="logfs", retries=2)


# ------------------------------------------------------------------------------ CLI

#: the flag sets of the commit before the schema, less the two cross-workload
#: dedup flags and the ``--share-replay`` pair that went with their options, and
#: ``--list-checks`` (the ``list-checks`` command lists them) — none lost, none gained
HARNESS_FLAGS = {
    "-h", "--help", "--filesystem", "-f", "--patched", "--crash-plan", "--list-planners",
    "--reorder-bound", "--torn-bound", "--share-prefixes", "--no-share-prefixes",
    "--spine-memory-budget", "--spine-spill-dir", "--checks", "--skip-checks",
}
CAMPAIGN_FLAGS = HARNESS_FLAGS | {
    "--preset", "--seq-length", "--limit", "--sample", "--processes", "-j", "--chunk-size",
}


def test_the_derived_parsers_keep_the_flag_sets():
    assert _flags("test") == HARNESS_FLAGS
    assert _flags("campaign") == CAMPAIGN_FLAGS | {
        "--progress", "--json-out", "--state-db", "--campaign-id"}


def test_resume_takes_exactly_the_execution_flags():
    execution_flags = {flag for f in ALL if f.metadata["tag"] == EXECUTION
                       for flag in f.metadata["flags"]}
    own = {"-h", "--help", "--state-db", "--progress"}
    assert {flag for flag in _flags("resume") - own
            if not flag.startswith("--no-")} == execution_flags


def test_every_flagged_option_is_in_campaign_help():
    text = _subparser("campaign").format_help()
    for spec_field in ALL:
        for flag in spec_field.metadata["flags"]:
            assert flag in text, f"{spec_field.name}: {flag} missing from campaign --help"
        if spec_field.metadata["flags"]:
            first_words = " ".join(spec_field.metadata["help"].split()[:3])
            assert first_words in " ".join(text.split())


#: the options removed with their layers (cross-workload dedup, replay sharing,
#: the mechanism-analysis switch): a set value and the flag, if the option had one
REMOVED = {
    "analyze_mechanisms": (True, None),
    "cross_workload_dedup": (True, "--cross-workload-dedup"),
    "global_dedup_cache": ("sightings.sqlite", "--global-dedup-cache"),
    "dedup_scope": ("campaign", None),
    "share_replay": (True, "--share-replay"),
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_a_removed_option_is_settable_nowhere(name):
    value, flag = REMOVED[name]
    assert name not in {f.name for f in fields(HarnessSpec)}
    for build in (CampaignConfig, HarnessSpec, lambda **kw: CrashMonkey("logfs", **kw)):
        with pytest.raises(TypeError):
            build(**{name: value})
    # A stored payload keeps the key; the decoder drops it (the state store's
    # drift check is what refuses a campaign created with an identity one set).
    assert CampaignConfig.from_dict({**CampaignConfig().to_dict(), name: value}) == \
        CampaignConfig()
    if flag is not None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", flag])


def test_parsed_arguments_become_the_hand_built_config():
    args = build_parser().parse_args([
        "campaign", "-f", "logfs", "--preset", "seq-2", "--limit", "30", "--sample",
        "--chunk-size", "5", "-j", "2", "--crash-plan", "torn", "--reorder-bound", "3",
        "--torn-bound", "1", "--no-share-prefixes", "--spine-memory-budget", "4096",
        "--spine-spill-dir", "spill", "--checks", "mount,read", "--skip-checks", "read",
    ])
    assert CampaignConfig.from_args(args, bounds=seq2_bounds()) == CampaignConfig(
        fs_name="logfs", bounds=seq2_bounds(), max_workloads=30, sample=True, chunk_size=5,
        processes=2, crash_plan="torn", reorder_bound=3, torn_bound=1, share_prefixes=False,
        spine_memory_budget=4096, spine_spill_dir="spill",
        checks=("mount", "read"), skip_checks=("read",))
    defaults = build_parser().parse_args(["campaign"])
    assert CampaignConfig.from_args(defaults) == CampaignConfig()


def test_readme_options_table_matches_the_schema():
    """README's one Options table: a row per field, in order, with the schema's
    flag, default and tag (the meaning column is prose)."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("\n## Options\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    expected = [[f"`{f.name}`",
                 ", ".join(f"`{flag}`" for flag in f.metadata["flags"]) or "—",
                 f"`{f.default!r}`", f.metadata["tag"]] for f in ALL]
    assert [row[:4] for row in rows] == expected
    assert all(row[4] for row in rows)


# -------------------------------------------------------------- identity vs execution


def _campaign_config(**options) -> CampaignConfig:
    # Contiguous seq-2 families on the torn plan: prefix sharing, shared
    # replay and inherited verdicts all do work, so turning them off matters.
    return CampaignConfig(fs_name="logfs", bounds=seq2_bounds(), max_workloads=36,
                          crash_plan="torn", chunk_size=4, **options)


@pytest.fixture(scope="module")
def uninterrupted():
    result = B3Campaign(_campaign_config()).run()
    assert result.failing_workloads > 0
    return result.canonical_dict()


def _interrupt_then_resume(db_path, **execution):
    first = DurableCampaignRunner(_campaign_config(), db_path, campaign_id="c")
    try:
        assert run_until(first, 3) is None
    finally:
        first.close()
    runner = DurableCampaignRunner.from_db(db_path, "c", **execution)
    try:
        result = runner.run()
        assert runner.last_session.chunks_skipped == 3
        assert runner.last_session.chunks_executed > 0
    finally:
        runner.close()
    return result


@pytest.mark.parametrize("name", TAGGED[EXECUTION])
def test_resuming_under_another_execution_value_changes_nothing(tmp_path, uninterrupted, name):
    resumed = _interrupt_then_resume(str(tmp_path / "s.sqlite"),
                                     **{name: _variant(name, tmp_path)})
    assert resumed.canonical_dict() == uninterrupted


def test_resuming_under_every_execution_option_at_once(tmp_path, uninterrupted):
    execution = {name: _variant(name, tmp_path) for name in TAGGED[EXECUTION]}
    resumed = _interrupt_then_resume(str(tmp_path / "s.sqlite"), **execution)
    assert resumed.canonical_dict() == uninterrupted


@pytest.mark.parametrize("name", TAGGED[EXECUTION])
def test_execution_options_are_not_campaign_identity(name):
    base = CampaignConfig()
    assert default_campaign_id(replace(base, **{name: _variant(name)})) == \
        default_campaign_id(base)


@pytest.mark.parametrize("name", TAGGED[IDENTITY])
def test_identity_options_name_a_different_campaign(tmp_path, name):
    base = CampaignConfig()
    changed = replace(base, **{name: _variant(name)})
    assert default_campaign_id(changed) != default_campaign_id(base)
    with CampaignStateDB(str(tmp_path / "s.sqlite")) as db:
        assert db.create_campaign("c", base.to_dict()) is True
        assert db.create_campaign("c", replace(base, processes=2).to_dict()) is False
        with pytest.raises(CampaignDriftError, match=f"created with {name}="):
            db.create_campaign("c", changed.to_dict())
        # The row is the campaign as created, whatever later sessions asked for.
        assert db.load_config("c") == base.to_dict()


def test_the_cli_resumes_under_execution_flags_and_refuses_identity_drift(tmp_path, capsys):
    db_path = str(tmp_path / "s.sqlite")
    campaign = ["campaign", "--state-db", db_path, "--campaign-id", "c1",
                "--preset", "seq-1", "--limit", "20", "--chunk-size", "4", "--patched"]
    first = DurableCampaignRunner(cli_config(build_parser().parse_args(campaign)),
                                  db_path, campaign_id="c1")
    try:
        assert run_until(first, 2) is None  # the CLI's campaign, crashed part-way
    finally:
        first.close()
    assert main([*campaign, "--spine-memory-budget", "65536", "--no-share-prefixes"]) == 0
    assert "2 already done" in capsys.readouterr().err
    assert main([*campaign, "--torn-bound", "1"]) == 2
    error = capsys.readouterr().err
    assert re.fullmatch(r"error: campaign 'c1' was created with torn_bound=2, "
                        r"this run asks for 1 .*\n", error), error
    assert main(["resume", "--state-db", db_path, "c1", "-j", "2", "--no-share-prefixes"]) == 0
