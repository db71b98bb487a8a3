#!/usr/bin/env python3
"""Repo invariant linter: AST checks for rules ruff cannot express.

Fifteen invariants, each protecting a guarantee a past change was built on:

1. **No wall-clock reads reachable from ``canonical_dict()``.**  Canonical
   payloads must be schedule-invariant — two runs of the same campaign
   (uninterrupted, crash-resumed, serial or pooled) compare equal.  A clock
   read anywhere on the serialization path breaks that silently.  The check
   walks the call graph (name-resolved across the ``src/repro`` tree, an
   over-approximation that errs toward flagging) from every
   ``canonical_dict`` definition and rejects reachable ``time.time``,
   ``time.perf_counter``, ``time.monotonic``, ``datetime.now`` и co. — and
   the repo's own clock, ``now`` / ``span`` bare or ``clock.``-qualified
   (the walk follows function names only, so it would step over the
   ``span`` class and the ``now`` alias without them).

2. **No ``bytes(...)`` copies in storage hot paths.**  Crash-state
   construction is zero-copy: recorded payloads live in shared slabs and
   flow as read-only memoryviews.  A stray ``bytes(view)`` (or
   ``view.tobytes()``) on the replay path silently reintroduces a per-block
   copy.  Only ``block.py`` — the one module whose *job* is materializing
   padded/torn payloads — may call ``bytes``.

3. **Every ``CrashTestResult`` counter is declared once.**  A field with a
   default is a ``counter(...)`` call carrying its help, a literal
   ``CANONICAL`` / ``SESSION`` tag and its roll-up rule (structured payloads
   are ``field(default_factory=...)``); codec, ``canonical_dict()``, gather
   and aggregates derive from it, so a plain ``x: int = 0`` would silently
   vanish from the state store.  Counters known to depend on what a spine
   still held (``inherited_verdicts``: a spill or a pool split changes it)
   must be tagged ``SESSION`` — in ``canonical_dict()`` they would make
   serial, pooled and spilled runs of one campaign compare unequal.  And
   outside ``report.py`` nothing aggregates one by hand: no ``sum(r.<counter>
   for r in ...)`` / ``max(...)`` — ``roll_up`` applies the declared rule.

4. **Every planner in the registry has soundness coverage.**  Each name in
   ``PLAN_NAMES`` (crashplan.py's registry) must be referenced by the
   soundness test module (``tests/test_mechanism_soundness.py``).  The
   soundness harness is the repo's proof that pruning plans find the same
   bugs as exhaustive ones — a planner registered without a reference
   there ships unproven.

5. **``analysis/`` never imports ``crashmonkey.harness``.**  The static
   pass must stay runnable without the dynamic harness (no device, no
   mounts): the harness imports analysis, never the reverse.  An import in
   that direction is a layering cycle waiting to happen.

6. **Spill code never holds slab internals.**  ``storage/spill.py`` writes
   frozen spine nodes to disk; its two reducers (devices, requests) flatten
   slab-backed memoryviews through ``materialize_payload`` as the node is
   pickled.  A reference to a slab chunk (``_chunk``/``_chunks``/``.obj``) or
   a raw ``bytearray`` in that module means a spill file (or the pickle
   buffer building it) can capture — or worse, alias — a live slab arena.

7. **The ACE space index has one definition of phase-4 output, and sampling
   never strides the space.**  ``ace/index.py`` may construct a ``Workload``
   only with ``ops=resolve_dependencies(...)`` over the operation list it
   unranked — dependency set-up written a second time would drift from
   ``generate()`` and silently move every pinned sample.  Under ``ace/``
   only ``phase4.py`` instantiates ``DependencyResolver``: the generator and
   the index both step through its ``DependencySteps`` table, and a
   hand-driven resolver elsewhere is a second transition table.  And
   ``AceSynthesizer.sample_stream`` must not call ``self.generate(``: the
   index exists so that a sample costs O(sample), not O(space).

8. **One mount site, and twins are never re-checked.**  Within
   ``crashmonkey/`` a crash-state device is mounted (``fs_class(...)`` /
   ``.mount()``) only inside ``CrashStateGenerator._construct`` — the one
   place that consults the checkpoint record's verdict memo first (filled
   by this workload's pass or inherited from a sibling that shares the
   record and its oracle / tracker view objects), so a second mount site
   would silently re-pay for states already known equal.  (``recorder.py``
   mounts the live *recording* device while profiling, never a crash
   state, and is exempt.)  And ``harness.py`` may call ``check_timed`` only
   on the not-a-twin side of an ``is_twin`` test: a twin has no mounted fs,
   its verdict is its representative's — whichever workload mounted it.

9. **Options are spelt once.**  ``options.py`` declares every option as one
   dataclass field carrying its default, help, CLI flag and identity /
   execution tag; the harness constructor, the JSON codec, the argparse
   groups and the resume check are derived from the fields.  Outside that
   module nothing may re-spell one: no ``add_argument`` of a schema field's
   flag, no call copying three or more ``name=<expr>.name`` schema-field
   keywords (the hand-copy pattern that let five copies drift), and no
   ``os.environ`` read of a ``REPRO_*`` name beyond the box resource limit
   and the fault hook — an environment variable is an option with no
   declaration at all.

10. **One decode site, one hash site, no capability probing.**  Under
    ``fs/`` on-disk text becomes structure in exactly one function —
    ``layout.decode_json``, which memoises on a digest of the text — and file
    content becomes a SHA-1 in exactly one — ``inode.content_sha1``, which
    memoises on the content.  A second ``json.loads`` or ``hashlib.sha1(``
    is a path that re-derives per mount what the memo already holds (and a
    second place to get the read-only contract wrong).  And no ``except
    TypeError`` may wrap a device call: every device accepts the recording
    annotations, so a ``TypeError`` there is a bug to surface, not a plain
    device to retry bare.

11. **Snapshots serialise in one place.**  A spine node holds live forks
    (``AbstractFileSystem.fork`` / ``PersistenceTracker.fork``); the only
    bytes are the ones ``storage/spill.py`` writes when a node is evicted —
    the node object itself, pickled as it is (the ``pickle`` row of rule
    15; a node type says what must not ride along with ``__reduce__`` /
    ``__getstate__``, which need no import).  And the copies stay the cheap,
    explicit ones: no ``copy.deepcopy`` under ``crashmonkey/`` or ``fs/``,
    and ``tracker.py`` clones its records with their ``clone()`` methods,
    never ``dataclasses.replace`` (a full re-``__init__`` per record per
    persistence point).

12. **A verdict depends on exactly what the read log holds.**  A crash
    state's verdict is shared with every state that agrees with it on the
    blocks its recovery and checks *read*, so the read log must be complete
    and the checks must see the state as recovery left it.  Under ``fs/`` a
    device is read only through ``read_block`` — the one call the log hangs
    on; ``written_blocks`` / ``overlay_delta`` and friends would read behind
    its back.  Inside ``crashmonkey/checks/`` only ``write.py`` (which
    mutates the recovered tree, last) and ``mount.py`` may reach for the
    file system itself: every other check asks ``ctx.lookup`` /
    ``ctx.names_of``, which answer from one resolution per state.  And
    ``mount(inspect=...)`` — the mount that builds no commit tables — is
    spelt only at the mount site of invariant 8: anywhere else it would hand
    out a file system on which fsync cannot work.

13. **One spine, one serialiser that knows storage only.**  Under
    ``src/repro/`` a spine store's ``put`` / ``get`` / ``drop`` are called
    only inside ``storage/spill.py`` — by ``Spine``, the one cached path both
    the recorder and the replay cache hold — so there is one truncate loop
    and one answer to a lost node.  Each spine has one admission point, a
    row of ``SPINE_ADMISSION``: in ``crashmonkey/replay_cache.py`` the trail
    is pushed only inside ``SharedReplayCache.begin`` (a build stages its
    frozen nodes, and only the next ``begin`` knows which of them its stream
    shares), in ``crashmonkey/recorder.py`` the prefix spine only inside
    ``WorkloadRecorder._keep`` (which applies the chunk's spine plan) — a
    push anywhere else sizes, budgets and spills nodes nobody will read.
    ``storage/spill.py`` imports nothing from
    ``repro.crashmonkey`` or ``repro.fs``: it pickles whatever node it is
    handed and reduces only ``CowDevice`` and ``IORequest``.  And the name
    ``register_codec`` does not exist: a per-owner freeze / thaw pair is the
    hand-written copy of pickle's memo this design deleted.

14. **One clock.**  Every duration ``repro`` reports is read from
    ``repro/clock.py`` — ``now`` or a ``span`` charging a timing field — so
    which clock is read, and whether a raising block is charged, is decided
    in one place.  Under ``src/repro/`` no other module calls
    ``time.perf_counter`` / ``time.time`` / ``time.monotonic`` /
    ``time.process_time`` (nor imports ``time``: the ``time`` row of rule 15).

15. **One owner per module import.**  Some standard modules are a decision
    one module makes for the rest: ``pickle`` (only ``storage/spill.py``
    turns a snapshot into bytes), ``time`` (only ``clock.py`` reads the
    clock) and ``sqlite3`` (only ``service/statedb.py`` holds durable
    campaign state — a second database is a second ledger for crash
    recovery to miss).  ``IMPORT_OWNERS`` is that table, one row per
    module; an ``import`` / ``from ... import`` of a row's module anywhere
    else under ``src/repro/`` is flagged with the row's reason.

Run from the repo root (CI runs it next to ruff):

    python tools/repro_lint.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: wall-clock callables forbidden on canonical serialization paths, as
#: (module-ish receiver, attribute) pairs
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "monotonic"),
    ("time", "strftime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
    # the repo's own clock (rule 14), imported bare or as a module
    ("", "now"),
    ("", "span"),
    ("clock", "now"),
    ("clock", "span"),
}

#: serialization entry points whose transitive callees must be clock-free
CANONICAL_ROOTS = ("canonical_dict",)

#: the one storage module allowed to materialize bytes (padding / tearing)
BYTES_ALLOWLIST = {"block.py"}

#: where CrashTestResult declares its counters, how, and with which tags
RESULT_MODULE = Path("crashmonkey") / "report.py"
COUNTER_DECLARATOR = "counter"
COUNTER_TAGS = {"CANONICAL", "SESSION"}

#: CrashTestResult counters that depend on spine residency (spill budget,
#: chunk -> worker assignment) and therefore must stay out of canonical_dict
RESIDENCY_DEPENDENT_FIELDS = {"inherited_verdicts"}

#: slab internals the spill module must never reach for (rule 6): the chunk
#: list of a BlockSlab and the ``.obj`` backdoor from a memoryview to its
#: backing bytearray
SLAB_CHUNK_ATTRS = {"_chunk", "_chunks", "obj"}


class Finding(Tuple[str, int, str]):
    """(path, line, message) — a plain tuple with a nicer constructor."""

    def __new__(cls, path: str, line: int, message: str):
        return super().__new__(cls, (path, line, message))


def _call_name(node: ast.Call) -> Tuple[str, str]:
    """Best-effort (receiver, attribute) of a call; ('', name) for bare calls."""
    func = node.func
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id, func.attr
        if isinstance(receiver, ast.Attribute):
            return receiver.attr, func.attr
        return "", func.attr
    if isinstance(func, ast.Name):
        return "", func.id
    return "", ""


# --------------------------------------------------------------- rule 1: clocks


def _function_index(trees: Dict[Path, ast.Module]) -> Dict[str, List[Tuple[Path, ast.FunctionDef]]]:
    """Every function/method definition across the tree, indexed by bare name."""
    index: Dict[str, List[Tuple[Path, ast.FunctionDef]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index.setdefault(node.name, []).append((path, node))
    return index


def check_canonical_paths_are_clock_free(trees: Dict[Path, ast.Module]) -> List[Finding]:
    """Walk the call graph from canonical_dict; reject reachable clock reads.

    Name resolution is deliberately coarse: a call ``self.to_dict()`` follows
    *every* ``to_dict`` definition in the tree.  The over-approximation can
    only produce false positives (a clock in a same-named function on an
    unrelated path), never false negatives — the right bias for an invariant
    whose violation is silent.
    """
    index = _function_index(trees)
    findings: List[Finding] = []
    seen: Set[Tuple[Path, int]] = set()
    frontier: List[Tuple[Path, ast.FunctionDef, List[str]]] = [
        (path, node, [node.name])
        for root in CANONICAL_ROOTS
        for path, node in index.get(root, [])
    ]
    while frontier:
        path, func, chain = frontier.pop()
        if (path, func.lineno) in seen:
            continue
        seen.add((path, func.lineno))
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            receiver, attr = _call_name(node)
            if (receiver, attr) in WALL_CLOCK_CALLS:
                findings.append(Finding(
                    str(path.relative_to(REPO_ROOT)), node.lineno,
                    f"wall-clock read `{receiver + '.' if receiver else ''}{attr}` reachable from "
                    f"canonical_dict via {' -> '.join(chain)} — canonical "
                    "payloads must be schedule-invariant",
                ))
            elif attr in index and attr not in chain:
                for callee_path, callee in index[attr]:
                    frontier.append((callee_path, callee, chain + [attr]))
    return findings


# ---------------------------------------------------------- rule 2: byte copies


def check_storage_stays_zero_copy(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "storage" or path.name in BYTES_ALLOWLIST:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            receiver, attr = _call_name(node)
            relative = str(path.relative_to(REPO_ROOT))
            if receiver == "" and attr == "bytes" and node.args:
                findings.append(Finding(
                    relative, node.lineno,
                    "bytes(...) copy in a storage hot path — payloads flow "
                    "as read-only memoryviews; only block.py materializes "
                    "bytes (padding / tearing)",
                ))
            elif attr == "tobytes":
                findings.append(Finding(
                    relative, node.lineno,
                    ".tobytes() copy in a storage hot path — slice the "
                    "memoryview instead",
                ))
    return findings


# -------------------------------------------------------- rule 3: result fields


def _hand_roll_up(node: ast.AST, counters: Dict[str, Tuple[str, int]]) -> str:
    """The counter a ``sum(... for x in ...)`` / ``max(...)`` call aggregates by hand."""
    if not (isinstance(node, ast.Call) and _call_name(node) in {("", "sum"), ("", "max")}
            and node.args and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))):
        return ""
    variables = {gen.target.id for gen in node.args[0].generators
                 if isinstance(gen.target, ast.Name)}
    return next((sub.attr for sub in ast.walk(node.args[0])
                 if isinstance(sub, ast.Attribute) and sub.attr in counters
                 and isinstance(sub.value, ast.Name) and sub.value.id in variables), "")


def check_result_fields_are_accounted(trees: Dict[Path, ast.Module]) -> List[Finding]:
    path = SRC_ROOT / RESULT_MODULE
    relative = str(path.relative_to(REPO_ROOT))
    findings: List[Finding] = []
    tags: Dict[str, Tuple[str, int]] = {}  # declared counter -> (tag, line)
    result = next(node for node in ast.walk(trees[path])
                  if isinstance(node, ast.ClassDef) and node.name == "CrashTestResult")
    for node in result.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.value is not None and "ClassVar" not in ast.dump(node.annotation)):
            continue
        if _is_call_to(node.value, "field") and any(
                kw.arg == "default_factory" for kw in node.value.keywords):
            continue  # a structured payload, serialized explicitly
        keywords = (node.value.keywords if _is_call_to(node.value, COUNTER_DECLARATOR)
                    else None)
        tag = next((kw.value for kw in keywords or () if kw.arg == "tag"), None)
        literal = "CANONICAL" if tag is None else getattr(tag, "id", "")
        if keywords is None or literal not in COUNTER_TAGS:
            findings.append(Finding(
                relative, node.lineno,
                f"CrashTestResult.{node.target.id} must be declared `counter(help, "
                "tag=<CANONICAL or SESSION, spelt literally>, rollup=...)` — "
                "undeclared, it would silently vanish from the state store and "
                "from every roll-up",
            ))
        else:
            tags[node.target.id] = (literal, node.lineno)
    for name in sorted(RESIDENCY_DEPENDENT_FIELDS & set(tags)):
        if tags[name][0] != "SESSION":
            findings.append(Finding(
                relative, tags[name][1],
                f"`{name}` depends on what the spines still hold and must be tagged "
                "SESSION — in canonical_dict() it breaks serial == pool == spilled",
            ))
    for other, tree in trees.items():
        for node in ast.walk(tree) if other != path else ():
            name = _hand_roll_up(node, tags)
            if name:
                findings.append(Finding(
                    str(other.relative_to(REPO_ROOT)), node.lineno,
                    f"hand-written roll-up of `{name}` — `roll_up` and the RollUps "
                    "attributes apply the rule the counter declares",
                ))
    return findings


# ------------------------------------------------ rule 4: planner soundness


def _plan_names(trees: Dict[Path, ast.Module]) -> Tuple[Path, Set[str], int]:
    """The PLAN_NAMES registry literal: (defining path, names, line)."""
    for path, tree in trees.items():
        if path.name != "crashplan.py":
            continue
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets, value = [node.target.id], node.value
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            if "PLAN_NAMES" in targets and isinstance(value, ast.Tuple):
                names = {el.value for el in value.elts
                         if isinstance(el, ast.Constant) and isinstance(el.value, str)}
                return path, names, node.lineno
    raise LookupError("PLAN_NAMES")


def check_planners_have_soundness_coverage(
    trees: Dict[Path, ast.Module],
    soundness_path: Path = REPO_ROOT / "tests" / "test_mechanism_soundness.py",
) -> List[Finding]:
    """Every registered planner name is referenced by the soundness module.

    A reference is any string constant in the module equal to the planner
    name (``CrashMonkey(..., planner="torn")``, ``make_planner("reorder")``,
    a parametrize id...).  Coarse on purpose: the rule guards against a
    planner added to the registry with *no* soundness story at all, not
    against weak assertions.
    """
    path, names, line = _plan_names(trees)
    relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
    if not soundness_path.exists():
        return [Finding(
            relative, line,
            f"soundness test module {soundness_path.name} is missing — every "
            "PLAN_NAMES planner must be proven against the exhaustive plan",
        )]
    referenced = {
        node.value
        for node in ast.walk(ast.parse(soundness_path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    findings: List[Finding] = []
    for name in sorted(names - referenced):
        findings.append(Finding(
            relative, line,
            f"planner `{name}` is registered in PLAN_NAMES but never "
            f"referenced by {soundness_path.name} — a pruning plan without "
            "soundness coverage ships unproven",
        ))
    return findings


# ------------------------------------------------- rule 5: analysis layering


def check_analysis_does_not_import_harness(trees: Dict[Path, ast.Module]) -> List[Finding]:
    """The static pass must not depend on the dynamic harness."""
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "analysis":
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        for node in ast.walk(tree):
            offending = False
            if isinstance(node, ast.Import):
                offending = any(
                    "crashmonkey.harness" in alias.name for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                offending = "crashmonkey.harness" in module or (
                    module.endswith("crashmonkey")
                    and any(alias.name == "harness" for alias in node.names)
                )
            if offending:
                findings.append(Finding(
                    relative, node.lineno,
                    "analysis/ imports crashmonkey.harness — the static pass "
                    "must stay runnable without the dynamic harness (the "
                    "harness imports analysis, never the reverse)",
                ))
    return findings


# -------------------------------------------------- rule 6: spill vs slab guts


def check_spill_never_references_slab_chunks(trees: Dict[Path, ast.Module]) -> List[Finding]:
    """``storage/spill.py`` must not touch slab chunks or raw bytearrays.

    The spill layer serializes frozen spine nodes whose payloads live in
    shared slab arenas.  Its only sanctioned route to the payload bytes is
    ``materialize_payload`` (which lives in ``block.py``); reaching for a
    slab's ``_chunks`` list, a memoryview's ``.obj``, or allocating a
    ``bytearray`` of its own would let a spill file capture or alias a live
    arena — exactly the copy/aliasing bugs the zero-copy design rules out.
    """
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "storage" or path.name != "spill.py":
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                receiver, attr = _call_name(node)
                if receiver == "" and attr == "bytearray":
                    findings.append(Finding(
                        relative, node.lineno,
                        "bytearray(...) in the spill layer — spill codecs "
                        "flatten payloads via materialize_payload, they never "
                        "build mutable buffers of their own",
                    ))
            elif isinstance(node, ast.Attribute) and node.attr in SLAB_CHUNK_ATTRS:
                findings.append(Finding(
                    relative, node.lineno,
                    f"spill layer reaches into slab internals (`.{node.attr}`) "
                    "— a spill file must never capture or alias a live slab "
                    "arena; go through materialize_payload",
                ))
    return findings


# ------------------------------------------- rule 7: ACE index vs the generator


def _is_call_to(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and _call_name(node)[1] == name


def check_ace_index_reuses_phase4_and_sampling_unranks(
        trees: Dict[Path, ast.Module]) -> List[Finding]:
    """``ace/index.py`` builds workloads only via ``resolve_dependencies``;
    only ``phase4.py`` makes a ``DependencyResolver``; ``sample_stream``
    never iterates ``self.generate(``."""
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "ace":
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        if path.name != "phase4.py":
            for node in ast.walk(tree):
                if _is_call_to(node, "DependencyResolver"):
                    findings.append(Finding(
                        relative, node.lineno,
                        "DependencyResolver(...) outside ace/phase4.py — phase 4 is "
                        "one transition table; step through `DependencySteps`",
                    ))
        if path.name == "index.py":
            for node in ast.walk(tree):
                if not _is_call_to(node, "Workload"):
                    continue
                ops = next((kw.value for kw in node.keywords if kw.arg == "ops"),
                           node.args[0] if node.args else None)
                if not _is_call_to(ops, "resolve_dependencies"):
                    findings.append(Finding(
                        relative, node.lineno,
                        "ace/index.py constructs a Workload whose ops are not "
                        "`resolve_dependencies(...)` of the unranked operation "
                        "list — phase-4 output has one definition",
                    ))
        elif path.name == "synthesizer.py":
            for func in ast.walk(tree):
                if not (isinstance(func, ast.FunctionDef) and func.name == "sample_stream"):
                    continue
                for node in ast.walk(func):
                    if _is_call_to(node, "generate") and _call_name(node)[0] == "self":
                        findings.append(Finding(
                            relative, node.lineno,
                            "sample_stream iterates self.generate(...) — "
                            "sampling unranks through the space index, it "
                            "never strides the whole space",
                        ))
    return findings


# ------------------------------------- rule 8: one mount site, twins not re-checked


#: where crash states are mounted: (file, class, method)
MOUNT_SITE = ("replayer.py", "CrashStateGenerator", "_construct")


def _site_nodes(path: Path, tree: ast.Module, site: Tuple[str, str, str]) -> Set[ast.AST]:
    """Every AST node inside the ``(file, class, method)`` site, when ``path``
    is its file."""
    if path.name != site[0]:
        return set()
    return {sub
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == site[1]
            for func in cls.body
            if isinstance(func, ast.FunctionDef) and func.name == site[2]
            for sub in ast.walk(func)}


def _mentions_is_twin(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "is_twin"
               for sub in ast.walk(node))


def _guarded_against_twins(call: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether ``call`` sits on the not-a-twin side of an ``is_twin`` test."""
    child: ast.AST = call
    while child in parents:
        parent = parents[child]
        if isinstance(parent, ast.If) and _mentions_is_twin(parent.test):
            negated = isinstance(parent.test, ast.UnaryOp) and isinstance(parent.test.op, ast.Not)
            on_twin_side = child in parent.orelse if negated else child in parent.body
            if child is not parent.test and not on_twin_side:
                return True
        child = parent
    return False


def check_single_mount_site_and_twins_not_rechecked(
        trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if SRC_ROOT / "crashmonkey" not in path.parents or path.name == "recorder.py":
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        parents = {child: parent for parent in ast.walk(tree)
                   for child in ast.iter_child_nodes(parent)}
        allowed = _site_nodes(path, tree, MOUNT_SITE)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)[1]
            if name in ("mount", "fs_class") and node not in allowed:
                findings.append(Finding(
                    relative, node.lineno,
                    f"`{name}(...)` outside CrashStateGenerator._construct — crash "
                    "states are mounted in one place, behind the verdict memo",
                ))
            elif (name == "check_timed" and path.name == "harness.py"
                    and not _guarded_against_twins(node, parents)):
                findings.append(Finding(
                    relative, node.lineno,
                    "harness calls check_timed without an `is_twin` guard — a twin "
                    "has no mounted fs; it takes its representative's verdict",
                ))
    return findings


# ------------------------------------------------- rule 9: options are spelt once


#: the module that declares the options, and the call that declares one
OPTIONS_MODULE = "options.py"
OPTION_DECLARATOR = "option"

#: environment variables that are not options: a box resource limit and the
#: durable runner's fault-injection hook
ALLOWED_ENV_VARS = {"REPRO_SPINE_BUDGET", "REPRO_SELFCRASH_AFTER_CHUNKS"}

#: a call copying this many ``name=<expr>.name`` schema keywords is a hand copy
HAND_COPY_THRESHOLD = 3


def _option_schema(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """(field names, CLI flags) declared by ``name: T = option(...)`` fields."""
    names: Set[str] = set()
    flags: Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and _is_call_to(node.value, OPTION_DECLARATOR)):
            continue
        names.add(node.target.id)
        for keyword in node.value.keywords:
            if keyword.arg == "flags":
                flags.update(el.value for el in ast.walk(keyword.value)
                             if isinstance(el, ast.Constant) and isinstance(el.value, str))
    return names, flags


def _env_var_read(node: ast.AST, constants: Dict[str, str]) -> str:
    """The variable name ``node`` reads from the environment, if it is such a read."""
    key = None
    if isinstance(node, ast.Call) and node.args:
        receiver, attr = _call_name(node)
        if (receiver, attr) in {("environ", "get"), ("os", "getenv")}:
            key = node.args[0]
    elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "environ"):
        key = node.slice
    if isinstance(key, ast.Name):
        return constants.get(key.id, "")
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return ""


def check_options_are_spelt_once(trees: Dict[Path, ast.Module]) -> List[Finding]:
    schema_path = SRC_ROOT / OPTIONS_MODULE
    names, flags = _option_schema(trees[schema_path])
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path == schema_path:
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        constants = {
            target.id: node.value.value
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            variable = _env_var_read(node, constants)
            if variable.startswith("REPRO_") and variable not in ALLOWED_ENV_VARS:
                findings.append(Finding(
                    relative, node.lineno,
                    f"environment read of `{variable}` — an env var is an option with "
                    f"no declaration; declare a field in {OPTIONS_MODULE} instead",
                ))
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node)[1] == "add_argument":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and arg.value in flags:
                        findings.append(Finding(
                            relative, node.lineno,
                            f"add_argument(`{arg.value}`) re-spells a schema flag — derive "
                            f"it with `add_arguments` from {OPTIONS_MODULE}",
                        ))
            copied = [kw.arg for kw in node.keywords
                      if kw.arg in names and isinstance(kw.value, ast.Attribute)
                      and kw.value.attr == kw.arg]
            if len(copied) >= HAND_COPY_THRESHOLD:
                findings.append(Finding(
                    relative, node.lineno,
                    f"call hand-copies schema options ({', '.join(copied)}) keyword by "
                    f"keyword — pass the spec, or loop over `dataclasses.fields()`",
                ))
    return findings


# ------------------------------------- rule 10: one decode site, one hash site


#: under fs/: the call, and the (file, function) that alone may make it
SINGLE_SITE_CALLS = {
    ("json", "loads"): ("layout.py", "decode_json"),
    ("hashlib", "sha1"): ("inode.py", "content_sha1"),
}

#: the block-device surface a file system drives
DEVICE_METHODS = {"read_block", "write_block", "write_sectors", "discard_block", "flush"}


def _catches_type_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(name, ast.Name) and name.id == "TypeError" for name in names)


def check_fs_decodes_and_hashes_in_one_place(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "fs":
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        for (module, name), (filename, function) in SINGLE_SITE_CALLS.items():
            site: Set[ast.AST] = set()
            if path.name == filename:
                for func in ast.walk(tree):
                    if isinstance(func, ast.FunctionDef) and func.name == function:
                        site = set(ast.walk(func))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call) and node not in site
                        and _call_name(node) in {(module, name), ("", name)}):
                    findings.append(Finding(
                        relative, node.lineno,
                        f"`{module}.{name}(...)` outside {filename}:{function} — the "
                        "file-system model decodes and hashes in one memoised place",
                    ))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Try) and any(map(_catches_type_error, node.handlers))):
                continue
            for call in (sub for stmt in node.body for sub in ast.walk(stmt)):
                if isinstance(call, ast.Call) and _call_name(call)[1] in DEVICE_METHODS:
                    findings.append(Finding(
                        relative, call.lineno,
                        f"`{_call_name(call)[1]}(...)` inside `except TypeError` — devices "
                        "take one call shape; a TypeError there is a bug, not a capability",
                    ))
    return findings


# ---------------------------------------------- rule 11: one serialisation site


#: the one module under src/repro that may turn a snapshot into bytes
PICKLE_MODULE = Path("storage") / "spill.py"

#: packages whose state copies are structural forks, never generic deep copies
FORKED_PACKAGES = {"crashmonkey", "fs"}


def check_snapshots_serialise_in_one_place(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        forked = not FORKED_PACKAGES.isdisjoint(path.relative_to(SRC_ROOT).parts)
        tracker = path.parent.name == "crashmonkey" and path.name == "tracker.py"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            receiver, name = _call_name(node)
            if forked and name == "deepcopy" and receiver in ("", "copy"):
                findings.append(Finding(
                    relative, node.lineno,
                    "`copy.deepcopy(...)` of recorder / file-system state — fork it "
                    "(copy exactly what operations mutate) instead",
                ))
            if tracker and name == "replace" and receiver in ("", "dataclasses"):
                findings.append(Finding(
                    relative, node.lineno,
                    "`dataclasses.replace(...)` in the tracker — records are copied "
                    "with their `clone()` methods",
                ))
    return findings


# ------------------------------------- rule 12: verdicts depend on logged reads only


#: device calls that read content without passing the read log
UNLOGGED_DEVICE_READS = {"written_blocks", "used_blocks", "content_equal", "overlay_delta",
                         "materialize", "_visible_block", "_merged_overlay"}

#: check modules that may use the recovered file system directly; ``base.py``
#: is where ``CheckContext`` wraps it
FS_TOUCHING_CHECKS = {"write.py", "mount.py", "base.py"}


def check_verdicts_depend_on_logged_reads_only(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        in_fs = path.parent == SRC_ROOT / "fs"
        in_checks = path.parent == SRC_ROOT / "crashmonkey" / "checks"
        site = _site_nodes(path, tree, MOUNT_SITE)
        for node in ast.walk(tree):
            if (in_checks and path.name not in FS_TOUCHING_CHECKS
                    and isinstance(node, ast.Attribute) and node.attr == "fs"):
                findings.append(Finding(
                    relative, node.lineno,
                    "a read-only check reaches for `.fs` — ask `ctx.lookup(path)` / "
                    "`ctx.names_of(ino)`; only write.py and mount.py touch the file system",
                ))
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)[1]
            if in_fs and name in UNLOGGED_DEVICE_READS:
                findings.append(Finding(
                    relative, node.lineno,
                    f"`{name}(...)` under fs/ — a file system reads its device through "
                    "`read_block` only, so a crash state's read log is complete",
                ))
            if (name == "mount" and node not in site
                    and any(keyword.arg == "inspect" for keyword in node.keywords)):
                findings.append(Finding(
                    relative, node.lineno,
                    "`mount(inspect=...)` outside CrashStateGenerator._construct — an "
                    "inspection mount builds no commit tables; only a crash state that is "
                    "checked and dropped may have one",
                ))
    return findings


# ------------------------------------- rule 13: one spine, a storage-only serialiser


#: the store calls only ``Spine`` makes
SPINE_STORE_CALLS = {"put", "get", "drop"}

#: packages the serialiser must not know
SPILL_FORBIDDEN_IMPORTS = {"crashmonkey", "fs"}

#: each spine's one admission point — ``(module, class, method, why)``: the
#: only place its module pushes
SPINE_ADMISSION = (
    ("replay_cache.py", "SharedReplayCache", "begin",
     "a build stages its nodes; only the next begin, knowing the shared prefix, admits them"),
    ("recorder.py", "WorkloadRecorder", "_keep",
     "the chunk's spine plan says which frozen nodes a later workload reads from the store"),
)


def check_one_spine_and_a_storage_only_serialiser(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        spill = path == SRC_ROOT / PICKLE_MODULE
        # (class, method, why, nodes of the site) of this module's spine, if any
        admission = next(((owner, method, why, _site_nodes(path, tree, (module, owner, method)))
                          for module, owner, method, why in SPINE_ADMISSION
                          if path == SRC_ROOT / "crashmonkey" / module), None)
        for node in ast.walk(tree):
            if (admission and isinstance(node, ast.Call) and _call_name(node)[1] == "push"
                    and node not in admission[3]):
                owner, method, why, _ = admission
                findings.append(Finding(
                    relative, node.lineno,
                    f"`push(...)` on a spine outside {owner}.{method} — {why}",
                ))
            name = getattr(node, "name", None) or getattr(node, "attr", None) \
                or getattr(node, "id", None)
            if name == "register_codec":
                findings.append(Finding(
                    relative, node.lineno,
                    "`register_codec` — the spill layer pickles nodes as they are; a node "
                    "type declares what must not ride with `__reduce__` / `__getstate__`",
                ))
            if spill and isinstance(node, (ast.Import, ast.ImportFrom)):
                # ``from .. import fs`` names the package in ``names``, not ``module``
                modules = [alias.name for alias in node.names] + [getattr(node, "module", "") or ""]
                for module in modules:
                    if not SPILL_FORBIDDEN_IMPORTS.isdisjoint(module.split(".")):
                        findings.append(Finding(
                            relative, node.lineno,
                            f"storage/spill.py imports `{module}` — the serialiser knows "
                            "storage types only; the node's owner declares the rest",
                        ))
            if not spill and isinstance(node, ast.Call):
                receiver, called = _call_name(node)
                if called in SPINE_STORE_CALLS and "store" in receiver.lower():
                    findings.append(Finding(
                        relative, node.lineno,
                        f"`{receiver}.{called}(...)` outside storage/spill.py — hold a "
                        "`Spine` (push / truncate / fetch / deepest) instead",
                    ))
    return findings


# ------------------------------------------------------------------ rule 14: one clock


#: the one module under src/repro that reads the clock
CLOCK_MODULE = "clock.py"

#: clock reads of the ``time`` module
TIME_CLOCK_CALLS = {"perf_counter", "time", "monotonic", "process_time"}


#: why a duration is read in one place (the call rule here, the import row of rule 15)
CLOCK_REASON = "a duration is a `span` (or a `now()` read) from repro.clock, the one clock"


def check_durations_come_from_one_clock(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path == SRC_ROOT / CLOCK_MODULE:
            continue
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        for node in ast.walk(tree):
            receiver, called = _call_name(node) if isinstance(node, ast.Call) else ("", "")
            if receiver == "time" and called in TIME_CLOCK_CALLS:
                findings.append(Finding(
                    relative, node.lineno,
                    f"`time.{called}()` outside {CLOCK_MODULE} — {CLOCK_REASON}",
                ))
    return findings


# ------------------------------------------------------- rule 15: one owner per import


#: module -> (the one file under src/repro that may import it, why)
IMPORT_OWNERS: Dict[str, Tuple[Path, str]] = {
    "pickle": (PICKLE_MODULE,
               "snapshots are forks; only a spill file holds one as bytes"),
    "time": (Path(CLOCK_MODULE), CLOCK_REASON),
    "sqlite3": (Path("service") / "statedb.py",
                "campaign state has one durable store; a second database is a second "
                "ledger for crash recovery to miss"),
}


def _imported_modules(node: ast.AST) -> List[Tuple[str, str]]:
    """``(top-level module, how it is spelt)`` of each absolute import in ``node``."""
    if isinstance(node, ast.Import):
        return [(alias.name.split(".")[0], f"`import {alias.name}`") for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [(node.module.split(".")[0], f"`from {node.module} import ...`")]
    return []


def check_module_imports_have_one_owner(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        relative = str(path.relative_to(REPO_ROOT)) if path.is_absolute() else str(path)
        for node in ast.walk(tree):
            for module, spelt in _imported_modules(node):
                owner, reason = IMPORT_OWNERS.get(module, (None, ""))
                if owner is not None and path != SRC_ROOT / owner:
                    findings.append(Finding(
                        relative, node.lineno, f"{spelt} outside {owner} — {reason}"))
    return findings


# ------------------------------------------------------------------------ driver


def parse_tree(root: Path = SRC_ROOT) -> Dict[Path, ast.Module]:
    trees: Dict[Path, ast.Module] = {}
    for path in sorted(root.rglob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return trees


def run_lint(root: Path = SRC_ROOT) -> List[Finding]:
    trees = parse_tree(root)
    findings: List[Finding] = []
    findings.extend(check_canonical_paths_are_clock_free(trees))
    findings.extend(check_storage_stays_zero_copy(trees))
    findings.extend(check_result_fields_are_accounted(trees))
    findings.extend(check_planners_have_soundness_coverage(trees))
    findings.extend(check_analysis_does_not_import_harness(trees))
    findings.extend(check_spill_never_references_slab_chunks(trees))
    findings.extend(check_ace_index_reuses_phase4_and_sampling_unranks(trees))
    findings.extend(check_single_mount_site_and_twins_not_rechecked(trees))
    findings.extend(check_options_are_spelt_once(trees))
    findings.extend(check_fs_decodes_and_hashes_in_one_place(trees))
    findings.extend(check_snapshots_serialise_in_one_place(trees))
    findings.extend(check_verdicts_depend_on_logged_reads_only(trees))
    findings.extend(check_one_spine_and_a_storage_only_serialiser(trees))
    findings.extend(check_durations_come_from_one_clock(trees))
    findings.extend(check_module_imports_have_one_owner(trees))
    return findings


def main(argv: List[str] | None = None) -> int:
    findings = run_lint()
    for path, line, message in findings:
        print(f"{path}:{line}: {message}")
    if findings:
        print(f"repro_lint: {len(findings)} invariant violation(s)")
        return 1
    print("repro_lint: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
