"""The invariant linter is green on the tree and catches seeded violations."""

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import repro_lint  # noqa: E402


def _trees(**sources):
    """Build {path: ast} from name -> source, paths rooted in src/repro."""
    return {repro_lint.SRC_ROOT / name: ast.parse(text)
            for name, text in sources.items()}


def _sites(**sources):
    """What the site-owner table flags in name -> source."""
    return repro_lint.check_site_owners(_trees(**sources))


def test_the_tree_is_clean():
    assert repro_lint.run_lint() == []
    assert repro_lint.main([]) == 0


def test_wall_clock_behind_a_call_chain_is_caught():
    trees = _trees(**{"core/results.py": (
        "import time\n"
        "class R:\n"
        "    def canonical_dict(self):\n"
        "        return self._stamp_payload()\n"
        "    def _stamp_payload(self):\n"
        "        return {'at': time.time()}\n"
    )})
    findings = repro_lint.check_canonical_paths_are_clock_free(trees)
    assert len(findings) == 1
    assert "time.time" in findings[0][2]
    assert "canonical_dict via canonical_dict -> _stamp_payload" in findings[0][2]


def test_clock_outside_the_canonical_path_is_fine():
    trees = _trees(**{"core/results.py": (
        "import time\n"
        "class R:\n"
        "    def canonical_dict(self):\n"
        "        return {}\n"
        "    def elapsed(self):\n"
        "        return time.perf_counter()\n"
    )})
    assert repro_lint.check_canonical_paths_are_clock_free(trees) == []


def test_unaccounted_result_field_is_caught():
    trees = repro_lint.parse_tree()
    path = repro_lint.SRC_ROOT / "crashmonkey" / "report.py"
    result = next(node for node in ast.walk(trees[path])
                  if isinstance(node, ast.ClassDef) and node.name == "CrashTestResult")
    # Seed a new field with a default that is no counter(...) declaration.
    result.body.append(ast.parse("sneaky_counter: int = 0").body[0])
    findings = repro_lint.check_result_fields_are_accounted(trees)
    assert len(findings) == 1
    assert "sneaky_counter" in findings[0][2] and "counter(" in findings[0][2]


def test_unreferenced_planner_is_caught(tmp_path):
    trees = _trees(**{"crashmonkey/crashplan.py":
                      "PLAN_NAMES = ('torn', 'quantum')\n"})
    soundness = tmp_path / "test_mechanism_soundness.py"
    soundness.write_text("PLANS = ['torn']\n")
    findings = repro_lint.check_planners_have_soundness_coverage(
        trees, soundness_path=soundness)
    assert len(findings) == 1
    assert "`quantum`" in findings[0][2]


def test_missing_soundness_module_is_caught(tmp_path):
    trees = _trees(**{"crashmonkey/crashplan.py": "PLAN_NAMES = ('torn',)\n"})
    findings = repro_lint.check_planners_have_soundness_coverage(
        trees, soundness_path=tmp_path / "gone.py")
    assert len(findings) == 1
    assert "missing" in findings[0][2]


def test_every_registered_planner_is_soundness_covered():
    trees = repro_lint.parse_tree()
    assert repro_lint.check_planners_have_soundness_coverage(trees) == []


def test_analysis_importing_the_harness_is_caught():
    for source in (
        "from ..crashmonkey.harness import CrashMonkey\n",
        "from ..crashmonkey import harness\n",
        "import repro.crashmonkey.harness\n",
    ):
        findings = _sites(**{"analysis/mechanisms.py": source})
        assert len(findings) == 1 and "crashmonkey.harness" in findings[0][2], source


def test_a_generic_layer_importing_the_analysis_is_caught():
    for path, source in (
        ("crashmonkey/replayer.py", "from ..analysis.audit import audited_analysis\n"),
        ("crashmonkey/harness.py", "from .. import analysis\n"),
        ("service/runner.py", "import repro.analysis.mechanisms\n"),
        ("options.py", "from .analysis import MechanismReport\n"),
    ):
        findings = _sites(**{path: source})
        assert len(findings) == 1 and "crashmonkey/crashplan.py" in findings[0][2], path


def test_the_plan_and_the_cli_may_import_the_analysis():
    source = "from ..analysis.audit import audited_analysis\n"
    assert _sites(**{"crashmonkey/crashplan.py": source, "cli/main.py": source}) == []
    # and the plan really does, so the row is not stale
    row = next(row for row in repro_lint.IMPORT_OWNERS if row.site == "crashmonkey/crashplan.py")
    owner = repro_lint.SRC_ROOT / row.site
    assert repro_lint.check_site_owners({owner: repro_lint.parse_tree()[owner]},
                                        (row._replace(site=""),))


def test_the_engine_importing_a_layer_above_it_is_caught():
    findings = _sites(**{
        "engine/engine.py": (
            "from ..core.results import CampaignResult\n"
            "from ..options import HarnessSpec\n"
            "from .backends import ChunkOutcome\n"
            "def run():\n"
            "    import repro.service.statedb\n"),
        "engine/backends.py": "from ..core import dedup\nfrom ..crashmonkey import report\n",
        "engine/stream.py": "from ..service.runner import chunk_identity\n",
        # the layers above may import the engine, and each other
        "core/campaign.py": "from ..engine.engine import CampaignEngine\n",
        "service/runner.py": "from ..core.campaign import B3Campaign\n",
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/engine/backends.py", 1), ("src/repro/engine/engine.py", 1),
        ("src/repro/engine/engine.py", 5), ("src/repro/engine/stream.py", 1)]
    assert all("the engine is a dispatcher below core/ and service/" in message
               for _, _, message in findings)


def test_analysis_importing_elsewhere_is_fine():
    assert _sites(**{"analysis/mechanisms.py": (
        "from ..fs import layout\n"
        "from ..crashmonkey.crashplan import PLAN_NAMES\n"
    )}) == []


_RESULT_CLASS = (
    "class CrashTestResult:\n"
    "    workload: Workload\n"
    "    bug_reports: List[BugReport] = field(default_factory=list)\n"
    "    memoized_scenarios: int = counter('twins of this pass')\n"
    "    inherited_verdicts: int = counter('twins of an earlier pass', tag=SESSION)\n"
)


def test_counter_with_a_computed_tag_is_caught():
    check = repro_lint.check_result_fields_are_accounted
    assert check(_trees(**{"crashmonkey/report.py": _RESULT_CLASS})) == []
    computed = _RESULT_CLASS + "    spills: int = counter('spills', tag=pick_tag())\n"
    findings = check(_trees(**{"crashmonkey/report.py": computed}))
    assert len(findings) == 1
    assert "CrashTestResult.spills" in findings[0][2] and "literally" in findings[0][2]


def test_residency_dependent_counter_outside_session_fields_is_caught():
    canonical = _RESULT_CLASS.replace(", tag=SESSION", "")
    findings = repro_lint.check_result_fields_are_accounted(
        _trees(**{"crashmonkey/report.py": canonical}))
    assert len(findings) == 1
    assert "`inherited_verdicts`" in findings[0][2] and "SESSION" in findings[0][2]
    explicit = _RESULT_CLASS.replace("tag=SESSION", "tag=CANONICAL")
    assert len(repro_lint.check_result_fields_are_accounted(
        _trees(**{"crashmonkey/report.py": explicit}))) == 1


def test_a_hand_written_roll_up_is_caught():
    check = repro_lint.check_result_fields_are_accounted
    by_hand = (
        "def memoized(self):\n"
        "    return sum(r.memoized_scenarios for r in self.results)\n"
        "def hits(results):\n"
        "    return sum(1 for result in results if result.inherited_verdicts)\n"
        "def peak(results):\n"
        "    return max([r.memoized_scenarios for r in results], default=0)\n"
    )
    findings = check(_trees(**{"crashmonkey/report.py": _RESULT_CLASS,
                               "core/results.py": by_hand}))
    assert [(f[0], f[1]) for f in findings] == [
        ("src/repro/core/results.py", 2), ("src/repro/core/results.py", 4),
        ("src/repro/core/results.py", 6)]
    assert "`memoized_scenarios`" in findings[0][2] and "roll_up" in findings[0][2]
    # The registry's home may; sums over anything that is no declared counter may.
    fine = (
        "def cpu(results):\n"
        "    return sum(result.total_seconds for result in results)\n"
        "def through_the_registry(results):\n"
        "    return roll_up(results, 'memoized_scenarios')\n"
    )
    assert check(_trees(**{"crashmonkey/report.py": _RESULT_CLASS + by_hand,
                           "core/results.py": fine})) == []


def test_index_building_a_workload_without_phase4_is_caught():
    check = repro_lint.check_index_builds_workloads_through_phase4
    hand_rolled = (
        "def workload_at(self, position):\n"
        "    ops = self.ops_at(position)\n"
        "    return Workload(ops=[creat('foo')] + ops, name='x')\n"
    )
    findings = check(_trees(**{"ace/index.py": hand_rolled}))
    assert len(findings) == 1 and "resolve_dependencies" in findings[0][2]
    through_phase4 = (
        "def workload_at(self, position):\n"
        "    return Workload(ops=resolve_dependencies(self.ops_at(position)), name='x')\n"
    )
    assert check(_trees(**{"ace/index.py": through_phase4})) == []
    # The generator itself is the other (original) definition and may build them.
    assert check(_trees(**{"ace/synthesizer.py": hand_rolled})) == []


def test_a_resolver_outside_phase4_is_caught():
    hand_driven = (
        "def _step(self, namespace, op):\n"
        "    resolver = DependencyResolver()\n"
        "    resolver.dirs, resolver.files = set(namespace[0]), set(namespace[1])\n"
        "    return resolver.process(op)\n"
    )
    for module in ("index.py", "synthesizer.py"):
        findings = _sites(**{f"ace/{module}": hand_driven})
        assert [(f[0], f[1]) for f in findings] == [(f"src/repro/ace/{module}", 2)], module
        assert "DependencySteps" in findings[0][2]
    # The table's own home makes them; outside ace/ the rule does not reach.
    assert _sites(**{"ace/phase4.py": hand_driven, "core/campaign.py": hand_driven}) == []


def test_sample_stream_striding_the_generator_is_caught():
    strided = (
        "class AceSynthesizer:\n"
        "    def sample_stream(self, count, stride):\n"
        "        for position, workload in enumerate(self.generate()):\n"
        "            if position % stride == 0:\n"
        "                yield workload\n"
        "    def stream(self, limit=None):\n"
        "        return self.generate(limit=limit)\n"
    )
    findings = _sites(**{"ace/synthesizer.py": strided})
    assert len(findings) == 1 and "sample_stream" in findings[0][2]
    assert findings[0][1] == 3


def test_a_second_mount_site_in_crashmonkey_is_caught():
    rogue = (
        "class CrashStateGenerator:\n"
        "    def _construct(self, record, scenario, fresh=None):\n"
        "        fs = self.fs_class(device, bugs)\n"
        "        fs.mount()\n"
        "    def generate_unmemoized(self, record, scenario):\n"
        "        fs = self.fs_class(device, bugs)\n"
        "        fs.mount()\n"
    )
    findings = _sites(**{"crashmonkey/replayer.py": rogue})
    assert [f[1] for f in findings] == [6, 7]
    assert all("_construct" in f[2] for f in findings)
    # A same-named method of another class, or another file, is no mount site.
    elsewhere = "class Helper:\n    def _construct(self, fs):\n        fs.mount()\n"
    assert len(_sites(**{"crashmonkey/checker.py": elsewhere})) == 1
    assert len(_sites(**{"crashmonkey/replayer.py": elsewhere})) == 1
    # The recorder mounts the recording device, never a crash state; other
    # packages (fs/fsck.py repairs by remounting) are out of scope.
    assert _sites(**{"crashmonkey/recorder.py": elsewhere}) == []
    assert _sites(**{"fs/fsck.py": elsewhere}) == []


def test_harness_checking_a_twin_is_caught():
    check = repro_lint.check_harness_never_rechecks_twins
    loop = (
        "def test_workload(self, workload):\n"
        "    for crash_state in states:\n"
        "        if crash_state.is_twin:\n"
        "            mismatches = crash_state.verdict.mismatches\n"
        "        else:\n"
        "            mismatches, timings = self.checker.check_timed(profile, crash_state)\n"
    )
    assert check(_trees(**{"crashmonkey/harness.py": loop})) == []
    negated = loop.replace("if crash_state.is_twin:", "if not crash_state.is_twin:")
    findings = check(_trees(**{"crashmonkey/harness.py": negated}))
    assert len(findings) == 1 and "is_twin" in findings[0][2] and findings[0][1] == 6
    unguarded = (
        "def test_workload(self, workload):\n"
        "    for crash_state in states:\n"
        "        mismatches, timings = self.checker.check_timed(profile, crash_state)\n"
    )
    assert len(check(_trees(**{"crashmonkey/harness.py": unguarded}))) == 1
    on_the_twin_side = loop.replace("mismatches = crash_state.verdict.mismatches",
                                    "self.checker.check_timed(profile, crash_state)")
    assert [f[1] for f in check(_trees(**{"crashmonkey/harness.py": on_the_twin_side}))] == [4]


# ----------------------------------------------------- rule 9: options are spelt once

SCHEMA = (
    "class HarnessSpec:\n"
    "    fs_name: str = option('btrfs', 'fs', flags=('--filesystem', '-f'))\n"
    "    torn_bound: int = option(2, 'torn', flags=('--torn-bound',))\n"
    "    share_replay: bool = option(True, 'replay', flags=('--share-replay',))\n"
    "    kernel_version: str = option('4.16', 'label')\n"
)


def _options_findings(**sources):
    return repro_lint.check_options_are_spelt_once(
        _trees(**{"options.py": SCHEMA, **sources}))


def test_the_real_schema_is_what_rule_nine_reads():
    trees = repro_lint.parse_tree()
    names, flags = repro_lint._option_schema(trees[repro_lint.SRC_ROOT / "options.py"])
    assert {"fs_name", "torn_bound", "processes", "bounds"} <= names
    assert {"--filesystem", "-f", "--torn-bound", "-j", "--limit"} <= flags


def test_a_hand_written_schema_flag_is_caught():
    rogue = "def build(parser):\n    parser.add_argument('--torn-bound', type=int, default=2)\n"
    findings = _options_findings(**{"cli/main.py": rogue})
    assert len(findings) == 1 and "`--torn-bound`" in findings[0][2]
    # Short spellings count; flags the schema does not own are the CLI's business.
    assert len(_options_findings(**{"cli/main.py": rogue.replace("--torn-bound", "-f")})) == 1
    assert _options_findings(**{"cli/main.py": rogue.replace("--torn-bound", "--progress")}) == []
    # The schema module itself is where the flags are spelt.
    assert repro_lint.check_options_are_spelt_once(
        _trees(**{"options.py": SCHEMA + rogue})) == []


def test_a_keyword_by_keyword_copy_of_the_options_is_caught():
    copy = (
        "def build(self):\n"
        "    return CrashMonkey(fs_name=self.fs_name, torn_bound=self.torn_bound,\n"
        "                       share_replay=config.share_replay)\n"
    )
    findings = _options_findings(**{"engine/spec.py": copy})
    assert len(findings) == 1 and "fs_name, torn_bound, share_replay" in findings[0][2]
    # Two copied keywords, renamed ones, and non-schema ones are ordinary calls.
    fine = (
        "def build(self, spec):\n"
        "    a = Recorder(fs_name=spec.fs_name, torn_bound=spec.torn_bound, store=self.store)\n"
        "    b = Store(budget=spec.torn_bound, name=spec.fs_name, replay=spec.share_replay)\n"
        "    return Config(fs_name=fs_name, torn_bound=torn_bound, share_replay=share_replay)\n"
    )
    assert _options_findings(**{"crashmonkey/harness.py": fine}) == []


def test_an_undeclared_environment_option_is_caught():
    for read in (
        "flag = os.environ.get('REPRO_NO_SLABS', '')\n",
        "flag = os.environ['REPRO_NO_SLABS']\n",
        "flag = os.getenv('REPRO_NO_SLABS')\n",
        "GATE = 'REPRO_NO_SLABS'\nflag = os.environ.get(GATE)\n",
        "flag = os.environ.get('REPRO_SPINE_BUDGET', '')\n",
    ):
        findings = _sites(**{"storage/cow_device.py": "import os\n" + read})
        name = read.split("'")[1]
        assert len(findings) == 1 and f"`{name}`" in findings[0][2], read
    # Not even a fault hook in the durable runner: crashing it is a test's job.
    hook = (
        "import os\n"
        "SELFCRASH_ENV = 'REPRO_SELFCRASH_AFTER_CHUNKS'\n"
        "b = os.environ.get(SELFCRASH_ENV, '0')\n"
        "c = os.environ.get('TMPDIR')\n"
    )
    findings = _sites(**{"service/runner.py": hook})
    assert [(path, line) for path, line, _ in findings] == [("src/repro/service/runner.py", 3)]
    assert "`REPRO_SELFCRASH_AFTER_CHUNKS`" in findings[0][2]


# ------------------------------------- rule 10: one decode site, one hash site


def test_a_second_decode_site_in_fs_is_caught():
    findings = _sites(**{
        "fs/layout.py": (
            "import json\n"
            "def decode_json(text):\n"
            "    return json.loads(text)\n"
            "def read_summary(device):\n"
            "    return json.loads(device.read_block(7))\n"
        ),
        "fs/fsck.py": "from json import loads\ndef peek(raw):\n    return loads(raw)\n",
        "service/statedb.py": "import json\ndef load(row):\n    return json.loads(row)\n",
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/fs/fsck.py", 3), ("src/repro/fs/layout.py", 5)]
    assert all("json.loads" in message for _, _, message in findings)


def test_a_second_hash_site_in_fs_is_caught():
    findings = _sites(**{"fs/inode.py": (
        "import hashlib\n"
        "def content_sha1(data):\n"
        "    return hashlib.sha1(data).hexdigest()\n"
        "class Inode:\n"
        "    def data_hash(self):\n"
        "        return hashlib.sha1(bytes(self.data)).hexdigest()\n"
    )})
    assert [(line, "hashlib.sha1" in message) for _, line, message in findings] == [(6, True)]


def test_probing_a_device_by_type_error_is_caught():
    findings = repro_lint.check_devices_are_never_probed(_trees(**{"fs/base.py": (
        "class Fs:\n"
        "    def _device_write(self, block, data, tag):\n"
        "        try:\n"
        "            self.device.write_block(block, data, tag=tag)\n"
        "        except TypeError:\n"
        "            self.device.write_block(block, data)\n"
        "    def _replay(self, entries):\n"
        "        try:\n"
        "            self._apply(entries)\n"
        "        except (KeyError, TypeError):\n"
        "            raise RuntimeError('malformed entry')\n"
    )}))
    assert [(line, "except TypeError" in message) for _, line, message in findings] == [(4, True)]


# ---------------------------------------------- rule 11: one serialisation site


def test_a_second_pickling_module_is_caught():
    findings = _sites(**{
        "storage/spill.py": "import pickle\ndef evict(node):\n    return pickle.dumps(node)\n",
        "crashmonkey/recorder.py": (
            "import io\n"
            "import pickle\n"
            "def _freeze_fs(fs):\n"
            "    return pickle.dumps(fs)\n"
        ),
        "crashmonkey/tracker.py": "from pickle import dumps, loads\n",
        "engine/backends.py": "import os, pickle\n",
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/recorder.py", 2), ("src/repro/crashmonkey/tracker.py", 1),
        ("src/repro/engine/backends.py", 1)]
    assert all("pickle" in message for _, _, message in findings)


def test_a_deep_copy_of_forked_state_is_caught():
    source = "import copy\ndef snapshot(fs):\n    return copy.deepcopy(fs)\n"
    findings = _sites(**{
        "fs/base.py": source,
        "crashmonkey/checks/write.py": "from copy import deepcopy\nstate = deepcopy({})\n",
        "core/results.py": source,
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/checks/write.py", 2), ("src/repro/fs/base.py", 3)]
    assert all("deepcopy" in message for _, _, message in findings)


def test_tracker_records_copied_through_dataclasses_replace_are_caught():
    source = (
        "from dataclasses import replace\n"
        "import dataclasses\n"
        "def view(files, dirs, path):\n"
        "    files = {ino: replace(r, persisted_paths=set(r.persisted_paths))\n"
        "             for ino, r in files.items()}\n"
        "    dirs = {ino: dataclasses.replace(r) for ino, r in dirs.items()}\n"
        "    return files, dirs, path.replace('//', '/')\n"
    )
    findings = _sites(**{"crashmonkey/tracker.py": source, "crashmonkey/crashplan.py": source})
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/tracker.py", 4), ("src/repro/crashmonkey/tracker.py", 6)]


# ------------------------------------------- rule 12: verdicts depend on logged reads only


def test_a_read_only_check_touching_the_file_system_is_caught():
    source = (
        "class SizeCheck:\n"
        "    def run(self, ctx):\n"
        "        return [] if ctx.fs.lookup_state('foo') else ['missing']\n"
    )
    flagged = _sites(**{"crashmonkey/checks/size.py": source})
    assert len(flagged) == 1 and "ctx.lookup" in flagged[0][2]
    for allowed in ("write.py", "mount.py"):
        assert _sites(**{f"crashmonkey/checks/{allowed}": source}) == []
    through_the_context = source.replace("ctx.fs.lookup_state", "ctx.lookup")
    assert _sites(**{"crashmonkey/checks/size.py": through_the_context}) == []


def test_a_device_read_behind_the_read_log_is_caught():
    source = "def scan(device):\n    return [data for _, data in device.written_blocks()]\n"
    flagged = _sites(**{"fs/layout.py": source})
    assert len(flagged) == 1 and "read_block" in flagged[0][2]
    assert _sites(**{"storage/spill.py": source}) == []
    assert _sites(**{"fs/layout.py": "def scan(device):\n    return device.read_block(0)\n"}) == []


def test_an_inspection_mount_outside_the_mount_site_is_caught():
    elsewhere = (
        "def peek(fs_class, device):\n"
        "    fs = fs_class(device)\n"
        "    fs.mount(inspect=True)\n"
        "    return fs\n"
    )
    flagged = _sites(**{"fs/fsck.py": elsewhere})
    assert len(flagged) == 1 and "inspection mount" in flagged[0][2]
    at_the_site = (
        "class CrashStateGenerator:\n"
        "    def _construct(self, record, scenario):\n"
        "        fs = self.fs_class(record)\n"
        "        fs.mount(inspect=True)\n"
        "    def generate(self, record):\n"
        "        self.fs_class(record).mount(inspect=True)\n"
    )
    # Line 6 is a second mount site too (rule 8).
    flagged = _sites(**{"crashmonkey/replayer.py": at_the_site})
    assert [line for _, line, message in flagged if "inspection" in message] == [6]
    assert _sites(**{"fs/fsck.py": elsewhere.replace("inspect=True", "")}) == []


# ------------------------------------- rule 13: one spine, a storage-only serialiser


def test_a_store_call_outside_the_spill_module_is_caught():
    source = (
        "class Cache:\n"
        "    def remember(self, node):\n"
        "        return self.spine_store.put(node, 1)\n"
        "    def forget(self, store, key):\n"
        "        store.drop(key)\n"
        "        return self.spine_store.get(key), self.options.get('budget')\n"
    )
    findings = _sites(**{"crashmonkey/replayer.py": source, "storage/spill.py": source})
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/replayer.py", line) for line in (3, 5, 6)]
    assert all("Spine" in message for _, _, message in findings)


def test_a_prefix_push_outside_the_admission_point_is_caught():
    source = (
        "class WorkloadRecorder:\n"
        "    def _keep(self, node, step, positions):\n"
        "        self._spine.push(node, 1, stub=node.prefix_key)\n"
        "    def _profile_shared(self, workload, step, clock):\n"
        "        node = _PrefixNode(0, step.keys[0], run.fork(detached=True), 0.0)\n"
        "        self._spine.push(node, 1, stub=node.prefix_key)\n"
    )
    findings = _sites(**{"crashmonkey/recorder.py": source, "crashmonkey/harness.py": source})
    # The admission point is one method of one file: a copy elsewhere pushes a second spine.
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/harness.py", 3), ("src/repro/crashmonkey/harness.py", 6),
        ("src/repro/crashmonkey/recorder.py", 6)]
    assert all("WorkloadRecorder._keep" in message and "plan" in message
               for _, _, message in findings)
    # Another class's method is no admission point for the prefix spine.
    findings = _sites(**{"crashmonkey/recorder.py": source.replace("WorkloadRecorder", "Cache")
                                                         .replace("_keep", "begin")})
    assert [line for _, line, _ in findings] == [3, 6]


def test_a_second_spine_in_the_replayer_is_caught():
    findings = _sites(**{
        "crashmonkey/recorder.py": (
            "class WorkloadRecorder:\n"
            "    def __init__(self, store):\n"
            "        self._spine = Spine(store)\n"
        ),
        "crashmonkey/replayer.py": (
            "class CrashStateGenerator:\n"
            "    def __init__(self, store):\n"
            "        self._spine = Spine(store)\n"
            "    def _keep(self, node):\n"
            "        self._spine.push(node, 1, stub=node.prefix_key)\n"
        ),
    })
    assert [(path, line, message.split(" ")[0]) for path, line, message in findings] == [
        ("src/repro/crashmonkey/replayer.py", 3, "`Spine(...)`"),
        ("src/repro/crashmonkey/replayer.py", 5, "`push(...)`")]
    assert "outside WorkloadRecorder.__init__" in findings[0][2]


def test_a_recording_device_built_outside_the_mount_is_caught():
    findings = _sites(**{
        "crashmonkey/recorder.py": (
            "class WorkloadRecorder:\n"
            "    def _mount(self, base_image):\n"
            "        return RecordingDevice(CowDevice(base_image))\n"
            "    def _resume_from(self, node):\n"
            "        device = RecordingDevice(node.device.snapshot())\n"
            "        device.restore_log(node.log, node.checkpoints)\n"
        ),
        "crashmonkey/replayer.py": (
            "from ..storage import record_device\n"
            "scratch = record_device.RecordingDevice(None)\n"
        ),
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/recorder.py", 5), ("src/repro/crashmonkey/replayer.py", 2)]
    assert all("outside WorkloadRecorder._mount" in message and "forked" in message
               for _, _, message in findings)


def test_a_serialiser_that_imports_a_node_type_is_caught():
    findings = _sites(**{
        "storage/spill.py": (
            "import pickle\n"
            "from ..errors import SpillMissError\n"
            "from ..crashmonkey.recorder import _PrefixNode\n"
            "from .. import fs\n"
            "import repro.fs.base\n"
        ),
        "storage/replay.py": "from ..fs.base import AbstractFileSystem\n",
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/storage/spill.py", line) for line in (3, 4, 5)]
    assert all("storage types only" in message for _, _, message in findings)


def test_a_codec_registry_coming_back_is_caught():
    findings = _sites(**{
        "storage/spill.py": "class SpineStore:\n    def register_codec(self, kind): pass\n",
        "crashmonkey/recorder.py": "def bind(store, codec):\n    store.register_codec(*codec)\n",
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/recorder.py", 2), ("src/repro/storage/spill.py", 2)]
    assert all("register_codec" in message for _, _, message in findings)


# ---------------------------------------------------------------- rule 14: one clock


def test_the_repo_clock_behind_a_call_chain_is_caught():
    trees = _trees(**{"core/results.py": (
        "from ..clock import span\n"
        "from .. import clock\n"
        "class R:\n"
        "    def canonical_dict(self):\n"
        "        return self._timed_payload()\n"
        "    def _timed_payload(self):\n"
        "        with span(self, 'payload_seconds'):\n"
        "            return {'at': clock.now()}\n"
    )})
    findings = repro_lint.check_canonical_paths_are_clock_free(trees)
    assert [(line, "canonical_dict -> _timed_payload" in message)
            for _, line, message in findings] == [(7, True), (8, True)]
    assert "`span`" in findings[0][2] and "`clock.now`" in findings[1][2]


def test_a_clock_read_outside_clock_py_is_caught():
    findings = _sites(**{
        "engine/engine.py": (
            "import time\n"
            "def run(self):\n"
            "    start = time.perf_counter()\n"
            "    time.sleep(0)\n"
        ),
        "crashmonkey/checker.py": "from time import perf_counter\n",
        "service/service.py": "from ..clock import now, span\nstart = now()\n",
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/checker.py", 1),
        ("src/repro/engine/engine.py", 1), ("src/repro/engine/engine.py", 3)]
    assert all("repro.clock" in message for _, _, message in findings)
    assert any("`time.perf_counter()`" in message for _, _, message in findings)


def test_clock_py_itself_lints_clean():
    trees = repro_lint.parse_tree()
    clock = {path: tree for path, tree in trees.items()
             if path == repro_lint.SRC_ROOT / "clock.py"}
    assert len(clock) == 1
    assert repro_lint.check_site_owners(clock) == []
    assert repro_lint.check_site_owners(trees) == []


# ------------------------------------------------------- rule 15: one owner per import


def test_a_second_database_is_caught():
    source = "import sqlite3\ndef open_store(path):\n    return sqlite3.connect(path)\n"
    findings = _sites(**{
        "crashmonkey/harness.py": source,
        "engine/backends.py": "from sqlite3 import connect\n",
        "service/statedb.py": source,
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/harness.py", 1), ("src/repro/engine/backends.py", 1)]
    assert all("outside service/statedb.py" in message for _, _, message in findings)


#: the standard modules IMPORT_OWNERS gives one importer each
OWNED = ("pickle", "sqlite3", "time")


def _owner_row(module):
    """The IMPORT_OWNERS row that flags ``import module`` where it is not owned."""
    probe = _trees(**{"engine/engine.py": f"import {module}\n"})
    return next(row for row in repro_lint.IMPORT_OWNERS
                if repro_lint.check_site_owners(probe, (row,)))


@pytest.mark.parametrize("module", OWNED)
def test_every_spelling_of_an_owned_import_is_caught(module):
    row = _owner_row(module)
    reason = row.message.split(" — ", 1)[1]
    findings = _sites(**{
        "engine/engine.py": (
            f"import {module}\n"
            f"import {module} as alias\n"
            f"from {module} import name\n"
            f"import os, {module}.sub\n"
            "def run():\n"
            f"    from {module}.sub import name\n"
        ),
    })
    assert [line for _, line, _ in findings] == [1, 2, 3, 4, 6]
    assert all(f"outside {row.site} — {reason}" in message for _, _, message in findings)


@pytest.mark.parametrize("module", OWNED)
def test_the_owner_and_relative_imports_are_not_flagged(module):
    assert _sites(**{
        _owner_row(module).site: f"import {module}\nfrom {module} import name\n",
        "engine/engine.py": f"from . import {module}\nfrom .{module} import name\n",
    }) == []


@pytest.mark.parametrize("module", OWNED)
def test_every_owner_row_names_a_file_that_imports_its_module(module):
    """A row whose owner no longer imports the module is stale: delete it."""
    row = _owner_row(module)
    owner = repro_lint.SRC_ROOT / row.site
    assert repro_lint.check_site_owners({owner: repro_lint.parse_tree()[owner]},
                                        (row._replace(site=""),))
    # Every module owned across the whole tree is one of these.
    assert {_owner_row(owned) for owned in OWNED} == {
        row for row in repro_lint.IMPORT_OWNERS if row.site and not row.scope}


# ------------------------------------------------------- rule 16: one campaign driver


def _driver_row():
    return next(row for row in repro_lint.SITE_OWNERS
                if "CampaignEngine" in row.message)


def test_a_second_campaign_driver_is_caught():
    findings = _sites(**{
        "service/runner.py": (
            "from ..engine.engine import CampaignEngine\n"
            "def _chunk_engine(spec):\n"
            "    return CampaignEngine(spec)\n"
        ),
        "cluster/runner.py": "from .. import engine\nrun = engine.CampaignEngine(None).run\n",
        "core/campaign.py": (
            "class B3Campaign:\n"
            "    def engine(self):\n"
            "        return CampaignEngine(self.spec)\n"
            "    def run(self):\n"
            "        return CampaignEngine(self.spec).run(())\n"
        ),
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/cluster/runner.py", 2), ("src/repro/core/campaign.py", 5),
        ("src/repro/service/runner.py", 3)]
    assert all("outside B3Campaign.engine" in message for _, _, message in findings)


def test_the_tree_builds_its_engines_at_one_call_site():
    """Without its site the row flags exactly one call in the tree: the owner's."""
    findings = repro_lint.check_site_owners(repro_lint.parse_tree(),
                                            (_driver_row()._replace(site=""),))
    assert [path for path, _, _ in findings] == ["src/repro/core/campaign.py"]


# ------------------------------- rule 18: one result-row codec, one durable result reader


def _row_of(text):
    return next(row for row in repro_lint.SITE_OWNERS if text in row.message)


#: the codec as report.py spells it
CODEC = (
    "class CrashTestResult:\n"
    "    def to_row(self):\n"
    "        return json.dumps(self.to_dict(), separators=(',', ':'))\n"
    "    @classmethod\n"
    "    def from_row(cls, row):\n"
    "        return cls.from_dict(json.loads(row))\n"
)


def test_a_second_durable_result_decoder_is_caught():
    decode = "def load(payloads):\n    return [CrashTestResult.from_dict(p) for p in payloads]\n"
    findings = _sites(**{
        "crashmonkey/report.py": CODEC + decode,
        "engine/backends.py": decode,
        "service/runner.py": decode + "def one(row):\n    return CrashTestResult.from_row(row)\n",
        "service/statedb.py": decode + (
            "def _decode(payload):\n"
            "    return CrashTestResult.from_row(payload)\n"),
        # Outside the codec's file, engine/ and service/ the rows have nothing to say.
        "core/results.py": decode,
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/crashmonkey/report.py", 8), ("src/repro/engine/backends.py", 2),
        ("src/repro/service/runner.py", 2), ("src/repro/service/runner.py", 4),
        ("src/repro/service/statedb.py", 2)]
    messages = [message for _, _, message in findings]
    assert sum("outside CrashTestResult.from_row" in message for message in messages) == 4
    assert "outside statedb.py:_decode" in messages[3]


def test_a_second_result_row_encoder_is_caught():
    encode = ("def rows(results):\n"
              "    return [json.dumps(r.to_dict(), separators=(',', ':')) for r in results]\n")
    findings = _sites(**{
        "crashmonkey/report.py": CODEC,
        "engine/backends.py": encode,
        "service/statedb.py": "import json\n" + encode.replace("json.dumps", "dumps"),
        # A campaign's --json-out document is not a stored row.
        "cli/main.py": encode,
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/engine/backends.py", 2), ("src/repro/service/statedb.py", 3)]
    assert all("outside CrashTestResult.to_row" in message for _, _, message in findings)


def test_the_store_decodes_results_at_one_call_site():
    """Without their sites the codec's and the reader's rows each flag exactly
    one call in the tree: the owner's."""
    for text, owner in (("outside CrashTestResult.to_row", "src/repro/crashmonkey/report.py"),
                        ("outside CrashTestResult.from_row", "src/repro/crashmonkey/report.py"),
                        ("outside statedb.py:_decode", "src/repro/service/statedb.py")):
        findings = repro_lint.check_site_owners(repro_lint.parse_tree(),
                                                (_row_of(text)._replace(site=""),))
        assert [path for path, _, _ in findings] == [owner], text


# ----------------------------------- rule 19: a count is computed once, where its results are


def test_a_roll_up_of_results_outside_where_they_are_is_caught():
    roll_up = "def totals(results):\n    return roll_ups_of(results)\n"
    findings = _sites(**{
        "engine/backends.py": (
            "class ChunkOutcome:\n"
            "    @classmethod\n"
            "    def of(cls, index, results):\n"
            "        return roll_ups_of(results)\n"
            "    def stats(self):\n"
            "        return report.roll_ups_of(self.results)\n"),
        "engine/engine.py": roll_up,
        "core/results.py": (
            "class CampaignResult:\n"
            "    def __post_init__(self):\n"
            "        self.totals = roll_ups_of(self.results)\n"
            "    def roll_ups(self):\n"
            "        return roll_ups_of(self.results)\n"),
        "service/statedb.py": (
            "class CampaignStateDB:\n"
            "    def _upgrade(self, rows):\n"
            "        return [roll_ups_of(rows)]\n"
            "    def campaign_result(self, rows):\n"
            "        return merge_roll_ups([roll_ups_of(rows)])\n") + roll_up,
    })
    # The store's one site is the migration on open: a chunk's roll-ups put back
    # into the read are caught.
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/core/results.py", 5), ("src/repro/engine/backends.py", 6),
        ("src/repro/engine/engine.py", 2), ("src/repro/service/statedb.py", 5),
        ("src/repro/service/statedb.py", 7)]
    assert all(message.startswith("`roll_ups_of(...)` outside engine/backends.py:ChunkOutcome.of")
               for _, _, message in findings)


def test_a_merge_of_totals_outside_the_owners_of_outcomes_is_caught():
    merge = "def totals(parts):\n    return merge_roll_ups(parts)\n"
    findings = _sites(**{
        "engine/engine.py": "from ..crashmonkey import report\n" + merge.replace(
            "merge_roll_ups", "report.merge_roll_ups"),
        "service/statedb.py": merge,
        "service/runner.py": merge,
        "core/results.py": merge,
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/engine/engine.py", 3), ("src/repro/service/runner.py", 2)]
    assert all("outside core/results.py and service/statedb.py" in message
               for _, _, message in findings)


def test_the_tree_rolls_up_results_only_at_the_three_sites():
    """Without their sites the rows flag exactly the owners' calls in the tree."""
    for text, owners in (
            ("`roll_ups_of(...)`", ["src/repro/core/results.py", "src/repro/engine/backends.py",
                                    "src/repro/service/statedb.py"]),
            ("`merge_roll_ups(...)`", ["src/repro/core/results.py",
                                       "src/repro/service/statedb.py"]),
            ("`partial_of(...)`", ["src/repro/core/results.py", "src/repro/engine/backends.py",
                                   "src/repro/service/statedb.py"]),
            ("`merge_partials(...)`", ["src/repro/core/results.py",
                                       "src/repro/service/statedb.py"])):
        findings = repro_lint.check_site_owners(repro_lint.parse_tree(),
                                                (_row_of(text)._replace(site=""),))
        assert [path for path, _, _ in findings] == owners, text


# ------------------------------------------------------- rule 21: operations are spelt once


def test_an_operation_kind_named_in_the_language_or_executor_is_caught():
    ladder = ("def run(fs, op):\n"
              "    if op.op == OpKind.CREAT:\n"
              "        fs.creat(op.args[0])\n")
    lookup = ("def run(fs, op):\n"
              "    spec = spec_of(op)\n"
              "    spec.run(fs, spec.bind(op), 0)\n")
    findings = _sites(**{
        "workload/language.py": "SPELLINGS = {OpKind.RENAME: ('mv',)}\n" + lookup,
        "workload/executor.py": ladder,
        # The table and ACE name kinds: that is where they are declared and generated.
        "workload/operations.py": ladder,
        "ace/phase2.py": ladder,
    })
    assert [(path, line) for path, line, _ in findings] == [
        ("src/repro/workload/executor.py", 2), ("src/repro/workload/language.py", 1)]
    assert "`OpKind.CREAT`" in findings[0][2]
    assert all("operations are spelt once" in message for _, _, message in findings)
