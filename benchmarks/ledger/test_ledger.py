"""Self-test of the perf ledger (``pytest benchmarks/ledger``).

Not part of the tier-1 suite: ``testpaths`` keeps collecting ``tests/`` only.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import child
import compare
import inputs
import run
from repro.ace.bounds import seq1_bounds
from repro.ace.synthesizer import AceSynthesizer

trace = child.load_trace()

#: the cheapest campaign to run for real: contiguous and config-driven, so no
#: set-up enumeration; at this scale it is 90 workloads over two workers
SMOKE = ["--workload", "seq2_limit_durable_j2", "--scale", "0.02"]


def seq1_stream():
    return AceSynthesizer(seq1_bounds()).generate()


SEQ1_SPACE = sum(1 for _ in seq1_stream())


# --------------------------------------------------------------------------- samplers


def names(workloads):
    return [workload.name for workload in workloads]


def test_block_sampler_is_seeded_sized_and_family_contiguous():
    def sample(seed):
        offsets = inputs.block_offsets(SEQ1_SPACE, blocks=4, block_size=10, seed=seed)
        return inputs.block_sample(seq1_stream(), offsets, block_size=10)

    first = sample(3)
    assert names(first) == names(sample(3))
    assert names(first) != names(sample(4))
    assert len(first) == 40

    stream = list(seq1_stream())
    position = {workload.name: index for index, workload in enumerate(stream)}
    for block_start in range(0, 40, 10):
        block = [position[name] for name in names(first)[block_start:block_start + 10]]
        assert block == list(range(block[0], block[0] + 10)), "block is not consecutive"
        if block[0] > 0:
            assert stream[block[0] - 1].family_key() != stream[block[0]].family_key(), \
                "block opens in the middle of a sibling family"


def test_stride_sampler_is_seeded_and_sized():
    def sample(seed):
        return inputs.stride_sample(seq1_stream(), SEQ1_SPACE, count=20, seed=seed)

    first = sample(0)
    assert names(first) == names(sample(0))
    assert names(first) != names(sample(1))
    assert len(first) == len(sample(1)) == 20
    with pytest.raises(ValueError):
        inputs.stride_sample(seq1_stream(), 10 * SEQ1_SPACE, count=SEQ1_SPACE, seed=0)


def test_samplers_refuse_a_space_that_ends_early():
    offsets = inputs.block_offsets(10 * SEQ1_SPACE, blocks=4, block_size=10, seed=0)
    with pytest.raises(ValueError):
        inputs.block_sample(seq1_stream(), offsets, block_size=10)


def test_samplers_never_pick_a_workload_the_program_dies_on():
    # Seed 24's stride lands exactly on seq-2-0221760, whose torn crash states
    # make flashfs recovery raise KeyError out of the harness.
    assert "seq-2-0221760" in inputs.POISON["seq-2"]
    picked, enumerated = inputs.BY_NAME["seq2_sample_torn"].build_inputs(24)
    assert len(picked) == 420 and enumerated > 300_000
    assert not set(names(picked)) & inputs.POISON["seq-2"]
    mechanism, _ = inputs.BY_NAME["seq2_sample_mechanism"].build_inputs(24)
    assert names(mechanism) == names(picked), "torn and mechanism must share their inputs"


# --------------------------------------------------------------------------- digest

_DIGEST_PROGRAM = """
import sys
sys.path.insert(0, {ledger!r})
import child
from repro.core.campaign import quick_campaign
print(child.findings_digest(quick_campaign(max_workloads=120)))
"""


def test_findings_digest_is_equal_across_hash_seeds():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        output = subprocess.run(
            [sys.executable, "-c", _DIGEST_PROGRAM.format(ledger=run.HERE)],
            env=env, cwd=run.REPO_ROOT, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        digests.add(output.strip())
    assert len(digests) == 1
    assert re.fullmatch(r"[0-9a-f]{64}", digests.pop())


# --------------------------------------------------------------------------- spans


def synthetic_trace():
    # [name, start, end, parent, workload]
    spans = [
        [trace.ROOT, 0.0, 10.0, -1, -1],
        ["engine.run", 0.5, 9.0, 0, -1],
        ["engine.backend", 1.0, 8.0, 1, -1],
        [trace.WORKLOAD, 1.0, 7.0, 2, 0],
        ["recorder.profile", 1.0, 3.0, 3, 0],
        ["spill.put", 1.5, 2.0, 4, 0],
        [trace.STEP, 3.0, 6.0, 3, 0],
        ["spill.get", 3.0, 3.25, 6, 0],
        [trace.CHECKS, 6.0, 6.5, 3, 0],
        ["core.group_reports", 9.0, 9.5, 0, -1],
    ]
    returned = {6: {"replay": 1.0, "mount": 1.25, "fsck": 0.25}, 8: {"read": 0.5}}
    return spans, returned


def test_self_time_is_duration_minus_children():
    spans, _ = synthetic_trace()
    selfs = trace.self_times(spans)
    assert selfs[0] == 10.0 - 8.5 - 0.5          # root minus engine.run and grouping
    assert selfs[4] == 2.0 - 0.5                 # profile minus the spill call inside it
    assert selfs[6] == 3.0 - 0.25
    assert sum(selfs) == pytest.approx(10.0)


def test_layer_rows_plus_unattributed_equal_wall():
    spans, returned = synthetic_trace()
    rows = trace.layer_seconds(spans, returned)
    assert set(rows) == set(trace.TABLE_ROWS)
    assert sum(rows.values()) == pytest.approx(trace.root_seconds(spans))
    assert rows["recorder.profile_s"] == 1.5
    assert rows["spill.put_s"] == 0.5 and rows["spill.get_s"] == 0.25
    assert rows["replayer.replay_s"] == 0.75     # returned replay minus the spill inside it
    assert rows["fs.mount_s"] == 1.25 and rows["fs.fsck_s"] == 0.25
    assert rows["crashplan.self_s"] == pytest.approx(3.0 - 0.25 - 0.75 - 1.25 - 0.25)
    # root self 1.0 + workload self (6.0 - 2.0 - 3.0 - 0.5) 0.5
    assert rows[trace.UNATTRIBUTED] == pytest.approx(1.5)


def test_tracer_rejects_crossed_spans():
    tracer = trace.Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


# --------------------------------------------------------------------------- compare


def test_compare_verdicts():
    base = [10.0, 10.1, 10.2, 10.3]
    ten_base = [10.0 + 0.01 * i for i in range(10)]
    ten_better = [8.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(ten_base, ten_better, "lower", 0.1)["verdict"] == "improved"
    # three repetitions a side are too few to claim a gain
    assert compare.verdict(base, [8.0, 8.1, 8.2], "lower", 0.1)["verdict"] == "within-bound"
    assert compare.verdict(base, [10.2, 10.3, 10.4], "lower", 0.1)["verdict"] == "within-bound"
    assert compare.verdict(base, [11.5, 11.6, 11.7], "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(base, [8.0, 8.1, 8.2], "higher", 0.1)["verdict"] == "regressed"
    # spread wider than the bound and the sides interleave: no verdict either way
    noisy = compare.verdict([9.0, 10.0, 12.0, 13.0], [9.5, 11.0, 12.5], "lower", 0.1)
    assert noisy["verdict"] == "unresolved"
    # any increase of the failed share regresses
    assert compare.verdict([0.0, 0.0], [0.0, 1.0], "lower", 0.0)["verdict"] != "within-bound"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0)["verdict"] == "within-bound"


# --------------------------------------------------------------------------- end to end


def run_ledger(tmp_path, capsys, *arguments):
    out = tmp_path / "ledger.json"
    status = run.main(["--out", str(out), "--trace-dir", str(tmp_path), *arguments])
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    return status, json.loads(out.read_text()), json.loads(last_line)


def test_tiny_traced_run_emits_exactly_the_declared_metrics(tmp_path, capsys):
    status, document, result = run_ledger(tmp_path, capsys, *SMOKE, "--reps", "1",
                                          "--trace", "1")
    assert status == 0 and document["correct"]
    declarations = run.load_declarations()
    entry = document["workloads"]["seq2_limit_durable_j2"]

    declared_layers = [metric["name"] for metric in declarations["per_layer"]]
    assert sorted(entry["per_layer"]) == sorted(declared_layers)
    assert sorted(result["metrics"]) == sorted(declared_layers)
    declared_end_to_end = [metric["name"] for metric in declarations["end_to_end"]]
    assert sorted(entry["end_to_end"]) == sorted(declared_end_to_end + ["failed_share"])
    for name in declared_layers + declared_end_to_end:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert [w["name"] for w in declarations["workloads"]] == [s.name for s in inputs.CAMPAIGNS]

    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert entry["end_to_end"]["failed_share"]["median"] == 0.0
    span_rows = sum(row["seconds"] for row in entry["layer_table"] if row["source"] == "span")
    assert span_rows == pytest.approx(entry["traced_wall_s"])
    assert entry["per_layer"]["statedb.ingests"] > 0
    assert entry["per_layer"]["spill.spills"] == 0
    environment = document["environment"]
    assert {"python", "nproc", "git_commit", "loadavg_1m_start",
            "started_overloaded"} <= set(environment)
    assert (tmp_path / "seq2_limit_durable_j2.seed0.trace.jsonl").exists()


def test_doctored_result_trips_the_digest(tmp_path, capsys):
    # One 125-workload block of btrfs seq-2 at seed 1: 16 of them fail, and
    # the second repetition loses one.
    status, document, result = run_ledger(
        tmp_path, capsys, "--workload", "seq2_blocks_prefix", "--scale", "0.05", "--seed", "1",
        "--reps", "2", "--trace", "0", "--doctor-rep", "1")
    assert status != 0
    assert not document["correct"] and result["correct"] is False
    honest, doctored = document["workloads"]["seq2_blocks_prefix"]["runs"]
    assert honest["digest"] != doctored["digest"]
    # the repetitions cannot say which of them is wrong: both count as failed
    assert honest["end_to_end"]["failed_share"] == doctored["end_to_end"]["failed_share"] == 1
    assert result["failed"] == result["attempted"]
