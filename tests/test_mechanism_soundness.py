"""Proven soundness of mechanism pruning: exhaustive-comparison harness.

The ``mechanism`` planner claims its representative crash states find every
bug the exhaustive planners find.  That claim is *proven by comparison*, not
assumed: these tests run the pruned and the exhaustive campaigns side by
side and assert the reported bug set — ``(checkpoint, primary consequence)``
per workload — is identical,

* over the **full seq-1 space** of all four simulated file systems (with
  each family's reference bugs enabled, so audit demotions fire and the
  fallback windows they cause still find the same bugs),
* over a **seq-2 slice** of the write-heavy flashfs family, where the
  pruning must also deliver at least a 3x scenario-count reduction, and
* over a **seq-2 slice** of the log-structured logfs family, where pruning
  segment-record windows must deliver at least a 2x reduction.

The contract auditor gets its own obligations: a *correct* file system
(every reference bug patched out) must produce **zero** demotions and zero
fallbacks, while each of the two contract-violating reference bugs must
provably *fire* the demotion path — and the demoted (exhaustive-fallback)
windows must still catch the bug the pruned plan would otherwise miss.

A harness that cannot fail proves nothing: a planner that skips the
checkpoint-chunk tears, one that drops every data-epoch state, one that keeps
only the last journal entry's drop, and an auditor that passes every claim
are each rejected by the lanes above.

Any divergence here means a representative state stopped representing its
equivalence class — a soundness regression, never an acceptable trade.
"""

import pytest

from repro.analysis import audit
from repro.analysis.mechanisms import AuditVerdict
from repro.crashmonkey import CrashMonkey
from repro.crashmonkey.crashplan import PLAN_NAMES, MechanismPlanner
from repro.fs.bugs import BugConfig

import differential
from conftest import SMALL_DEVICE_BLOCKS
from differential import ALL_FS

#: seq-2 slice size: large enough to cover every flashfs window shape the
#: slice's sibling families produce, small enough for CI.
SEQ2_SLICE = 60

#: the acceptance bar for the seq-2 pruning (ISSUE: >= 3x on a seq-2 family)
MIN_SEQ2_REDUCTION = 3.0

#: logfs seq-2: segment windows prune to the baseline (recovery ignores the
#: lazily-written usage summary), so >= 2x over the torn plan is the bar
LOGFS_SEQ2_SLICE = 30
MIN_LOGFS_SEQ2_REDUCTION = 2.0

#: the two reference bugs that violate a claimed mechanism contract; each
#: must demonstrably fire the auditor's demotion path on its file system
CONTRACT_BUGS = [("logfs", "lsw_unfenced_append"),
                 ("seqfs", "replica_commit_no_fua")]


def _bug_set(result):
    """The campaign-visible finding set: primary consequence per checkpoint."""
    return {(r.checkpoint_id, r.primary.consequence)
            for r in result.bug_reports if r.primary}


def _scenario_count(result):
    """All enumerated scenarios, whether executed or dedup-skipped."""
    return result.scenarios_tested + result.deduped_scenarios


def assert_pruned_finds_what_exhaustive_finds(fs_name, bugs=None, **space):
    """Per workload: the pruned bug set is the exhaustive one, from no more scenarios."""
    pruned = differential.run(fs_name, crash_plan="mechanism", bugs=bugs, **space)
    exhaustive = differential.reference(fs_name, crash_plan="torn", bugs=bugs, **space)
    assert pruned.results
    differential.assert_same(pruned, exhaustive, project=_bug_set)
    for mine, theirs in zip(pruned.results, exhaustive.results):
        assert _scenario_count(mine) <= _scenario_count(theirs), mine.workload.display_name()
    return pruned, exhaustive


def assert_reduction(pruned, exhaustive, bar):
    before = sum(map(_scenario_count, exhaustive.results))
    after = sum(map(_scenario_count, pruned.results))
    assert before / after >= bar, (
        f"seq-2 reduction {before / after:.2f}x fell below {bar}x "
        f"({before} exhaustive vs {after} pruned scenarios)")


# ------------------------------------------------------------ registry coverage

def test_parametrization_covers_the_whole_planner_registry():
    """Keeps the explicit plan-name parametrize below in sync with the
    registry (and the repo linter's soundness-coverage rule honest)."""
    assert set(PLAN_NAMES) == {"prefix", "reorder", "torn", "mechanism"}


@pytest.mark.parametrize("plan", ["prefix", "reorder", "torn", "mechanism"])
def test_every_registered_planner_runs_a_campaign(plan):
    """Every registry entry drives a real campaign: at least the baseline
    state per persistence point, and never fewer scenarios than prefix."""
    harness = CrashMonkey("flashfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan)
    result = harness.test_workload(differential.space()[0])
    assert result.checkpoints_tested > 0
    assert _scenario_count(result) >= result.checkpoints_tested


# ------------------------------------------------------------- seq-1 identity

@pytest.mark.parametrize("fs_name", ALL_FS)
def test_full_seq1_bug_set_is_identical_to_the_exhaustive_plan(fs_name):
    """Every seq-1 workload: pruned findings == exhaustive findings.

    Reference bugs stay enabled (the default), so on logfs and seqfs the
    contract auditor demotes the violated family and parts of the campaign
    run on the exhaustive fallback — the identity must hold *through* that
    demotion, and every fallback must be one the auditor caused.
    """
    pruned, _ = assert_pruned_finds_what_exhaustive_finds(fs_name)
    # Every fallback is audit-attributed: a window is delegated back to the
    # exhaustive plan only because the auditor demoted its family's claim,
    # never because attribution silently failed.
    assert (pruned.total("mechanism_fallback_checkpoints")
            == pruned.total("mechanism_demoted_checkpoints"))


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_correct_filesystems_audit_clean_over_seq1(fs_name):
    """With every reference bug patched out, the auditor demotes nothing and
    no window falls back: each claimed contract survives its audit."""
    patched = differential.run(fs_name, crash_plan="mechanism", bugs=BugConfig.none())
    for result in patched.results:
        assert _bug_set(result) == set(), \
            f"{fs_name} {result.workload.display_name()}: patched fs reported a bug"
    assert patched.total("audit_demotions") == 0
    assert patched.total("mechanism_fallback_checkpoints") == 0


# --------------------------------------------------------- demotion soundness

@pytest.mark.parametrize("fs_name,bug_id", CONTRACT_BUGS)
def test_contract_bugs_fire_the_demotion_path_and_stay_caught(fs_name, bug_id):
    """Each contract-violating reference bug must (a) demote its family's
    claim at least once and (b) still be found by the pruned campaign —
    the demoted windows' exhaustive fallback is what finds it."""
    pruned, _ = assert_pruned_finds_what_exhaustive_finds(fs_name, BugConfig.only(bug_id))
    assert pruned.total("audit_demotions") >= 1, f"{bug_id} never demoted a claim"
    assert pruned.total("mechanism_demoted_checkpoints") >= 1, \
        f"{bug_id} never forced a fallback window"
    assert any(map(_bug_set, pruned.results)), \
        f"{bug_id} was never observed by the pruned campaign"


# ------------------------------------------------------------- seq-2 slices

def test_seq2_slice_bug_set_identity_and_reduction():
    """The seq-2 acceptance bar: same bugs, >= 3x fewer scenarios."""
    pruned, exhaustive = assert_pruned_finds_what_exhaustive_finds(
        "flashfs", space="seq-2", limit=SEQ2_SLICE)
    assert pruned.total("mechanism_fallback_checkpoints") == 0
    assert_reduction(pruned, exhaustive, MIN_SEQ2_REDUCTION)


def test_logfs_seq2_slice_identity_and_reduction():
    """Log-structured pruning pays: on a logfs whose LSW contract holds
    (the reference bug patched out, every other logfs bug kept), segment
    windows reduce to their baseline and the slice prunes >= 2x."""
    bugs = BugConfig.all_for("logfs").without("lsw_unfenced_append")
    pruned, exhaustive = assert_pruned_finds_what_exhaustive_finds(
        "logfs", bugs, space="seq-2", limit=LOGFS_SEQ2_SLICE)
    assert pruned.total("audit_demotions") == 0
    assert_reduction(pruned, exhaustive, MIN_LOGFS_SEQ2_REDUCTION)


@pytest.mark.parametrize("fs_name", ["seqfs", "flashfs"])
def test_seq2_exhaustive_only_filesystems_also_agree(fs_name):
    """A broader (mechanism-light) seq-2 sample stays divergence-free."""
    assert_pruned_finds_what_exhaustive_finds(fs_name, space="seq-2-sample")


# ------------------------------------------------------------- seeded-unsound variants

def planner_without(unwanted):
    """A mechanism planner that never emits the scenarios ``unwanted`` picks."""
    def variant(patch):
        real = MechanismPlanner.scenarios
        patch.setattr(MechanismPlanner, "scenarios", lambda planner, *args: (
            scenario for scenario in real(planner, *args) if not unwanted(scenario)))

    return variant


def decomposed(transform):
    """A mechanism planner that enumerates ``transform(*parts)`` of each window."""
    def variant(patch):
        real = MechanismPlanner._decompose
        patch.setattr(MechanismPlanner, "_decompose", staticmethod(
            lambda by_block: (lambda parts: parts and transform(*parts))(real(by_block))))

    return variant


def test_a_planner_that_skips_the_chunk_tears_is_caught():
    variant = planner_without(lambda scenario: scenario.plan == "mechanism" and scenario.torn)
    differential.rejects(variant, test_full_seq1_bug_set_is_identical_to_the_exhaustive_plan,
                         "flashfs")
    differential.rejects(variant, test_seq2_slice_bug_set_identity_and_reduction)


def test_a_planner_that_drops_every_data_epoch_state_is_caught():
    variant = decomposed(lambda entries, chunks, records, summaries, data:
                         (entries, chunks, records, summaries, []))
    differential.rejects(variant, test_full_seq1_bug_set_is_identical_to_the_exhaustive_plan,
                         "flashfs")


def test_a_planner_that_keeps_only_the_last_journal_entry_drop_is_caught():
    variant = decomposed(lambda entries, chunks, records, summaries, data:
                         (entries[-1:], chunks, records, summaries, data))
    differential.rejects(variant, test_seq2_slice_bug_set_identity_and_reduction)


def test_an_auditor_that_passes_every_claim_is_caught():
    def variant(patch):
        patch.setattr(audit, "_audit_evidence",
                      lambda evidence, *_: AuditVerdict(evidence.mechanism, True, ()))

    differential.rejects(variant, test_full_seq1_bug_set_is_identical_to_the_exhaustive_plan,
                         "seqfs")
    for fs_name, bug_id in CONTRACT_BUGS:
        differential.rejects(variant, test_contract_bugs_fire_the_demotion_path_and_stay_caught,
                             fs_name, bug_id)
