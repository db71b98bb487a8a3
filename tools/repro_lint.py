#!/usr/bin/env python3
"""Repo invariant linter: AST checks for rules ruff cannot express.

Twenty invariants, each protecting a guarantee a past change was built on.
Most say the same thing — *X may appear only at site Y* — so they are rows of
one table, not visitors: ``SITE_OWNERS`` (calls, attributes, names and
environment reads) and ``IMPORT_OWNERS`` (imports).  A :class:`Row` holds what
it matches, the scope it applies to, the one site allowed and its message, and
:func:`check_site_owners` walks each module once and applies every row.  Scopes
and sites are named by their path under ``src/repro/``: ``dir/``, ``file``,
``file:Class.method`` or ``file:function``.  Each row's reason is its comment
in the table, numbered by invariant (numbers 2 and 6 are retired); a new
"only here" rule is one row.

What cannot be a row keeps a visitor:

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

7. **Phase-4 output has one definition.**  ``ace/index.py`` may construct a
   ``Workload`` only with ``ops=resolve_dependencies(...)`` over the
   operation list it unranked — dependency set-up written a second time
   would drift from ``generate()`` and silently move every pinned sample.

8. **Twins are never re-checked.**  ``harness.py`` may call ``check_timed``
   only on the not-a-twin side of an ``is_twin`` test: a twin has no mounted
   fs, its verdict is its representative's — whichever workload mounted it.

9. **Options are spelt once.**  ``options.py`` declares every option as one
   dataclass field carrying its default, help, CLI flag and identity /
   execution tag; the harness constructor, the JSON codec, the argparse
   groups and the resume check are derived from the fields.  Outside that
   module nothing may re-spell one: no ``add_argument`` of a schema field's
   flag, and no call copying three or more ``name=<expr>.name`` schema-field
   keywords (the hand-copy pattern that let five copies drift).

10. **No capability probing.**  Under ``fs/`` no ``except TypeError`` may
    wrap a device call: every device accepts the recording annotations, so a
    ``TypeError`` there is a bug to surface, not a plain device to retry bare.

Run from the repo root (CI runs it next to ruff):

    python tools/repro_lint.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


class Finding(Tuple[str, int, str]):
    """(path, line, message) — a plain tuple with a nicer constructor."""

    def __new__(cls, path: str, line: int, message: str):
        return super().__new__(cls, (path, line, message))


def _relative(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


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


def _is_call_to(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and _call_name(node)[1] == name


# ------------------------------------------------------------ the site table


class Match(NamedTuple):
    """What a row looks for: a node of ``types`` for which ``fields(node,
    path under src/repro/, module)`` returns the message's format fields
    (``None``: not this node)."""

    types: Tuple[type, ...]
    fields: Callable[[ast.AST, str, ast.Module], Optional[Dict[str, str]]]


class Row(NamedTuple):
    """``match`` anywhere in ``scope`` (empty: all of src/repro/) but at
    ``site`` (empty: nowhere) is a finding.  Several places are separated by
    spaces; ``message`` is formatted with the match's fields and ``site``."""

    match: Match
    scope: str
    site: str
    message: str


def call(*names: str, receiver: Optional[str] = None, keyword: Optional[str] = None,
         args: bool = False) -> Match:
    """A call of one of ``names``: ``receiver`` is a regex the receiver must
    match in full (``""``: a bare call), ``keyword`` one it must pass, and
    ``args`` asks for a positional argument."""
    def fields(node: ast.Call, path: str, module: ast.Module) -> Optional[Dict[str, str]]:
        spelt, name = _call_name(node)
        if (name in names and (receiver is None or re.fullmatch(receiver, spelt))
                and (keyword is None or any(kw.arg == keyword for kw in node.keywords))
                and (node.args or not args)):
            return {"name": name, "receiver": spelt}
        return None
    return Match((ast.Call,), fields)


def attribute(*names: str) -> Match:
    """A ``.name`` access of one of ``names``."""
    return Match((ast.Attribute,),
                 lambda node, path, module: {"name": node.attr} if node.attr in names else None)


def named(*names: str) -> Match:
    """One of ``names`` defined, imported, read or called."""
    def fields(node: ast.AST, path: str, module: ast.Module) -> Optional[Dict[str, str]]:
        name = getattr(node, "name", None) or getattr(node, "attr", None) \
            or getattr(node, "id", None)
        return {"name": name} if name in names else None
    return Match((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.alias,
                  ast.Attribute, ast.Name), fields)


def member_of(owner: str) -> Match:
    """A ``owner.NAME`` access: a member of the class ``owner`` named."""
    def fields(node: ast.Attribute, path: str, module: ast.Module) -> Optional[Dict[str, str]]:
        if isinstance(node.value, ast.Name) and node.value.id == owner:
            return {"name": f"{owner}.{node.attr}"}
        return None
    return Match((ast.Attribute,), fields)


def dumps_of(method: str) -> Match:
    """A ``json.dumps(<x>.method(...), ...)``: text made on the spot from the
    payload ``method`` returns."""
    def fields(node: ast.Call, path: str, module: ast.Module) -> Optional[Dict[str, str]]:
        if (_call_name(node) in {("json", "dumps"), ("", "dumps")} and node.args
                and isinstance(node.args[0], ast.Call)
                and _call_name(node.args[0])[1] == method):
            return {"name": method, "receiver": _call_name(node.args[0])[0]}
        return None
    return Match((ast.Call,), fields)


def _env_var_read(node: ast.AST, module: ast.Module) -> str:
    """The variable name ``node`` reads from the environment, if it is such a
    read: spelt literally or through a module-level ``NAME = 'text'``."""
    key = None
    if isinstance(node, ast.Call) and node.args:
        if _call_name(node) in {("environ", "get"), ("os", "getenv")}:
            key = node.args[0]
    elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "environ"):
        key = node.slice
    if isinstance(key, ast.Name):
        constants = {target.id: stmt.value.value
                     for stmt in module.body if isinstance(stmt, ast.Assign)
                     and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
                     for target in stmt.targets if isinstance(target, ast.Name)}
        return constants.get(key.id, "")
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return ""


def environ_read(prefix: str) -> Match:
    """A read of an environment variable named ``prefix...``, spelt literally
    or through a module-level constant."""
    def fields(node: ast.AST, path: str, module: ast.Module) -> Optional[Dict[str, str]]:
        name = _env_var_read(node, module)
        return {"name": name} if name.startswith(prefix) else None
    return Match((ast.Call, ast.Subscript), fields)


def _imported(node: ast.AST, path: str) -> Iterator[Tuple[str, str, str]]:
    """``(absolute dotted name, statement as spelt, name as spelt)`` of what
    ``node`` imports; ``from m import a`` imports ``m`` and ``m.a`` (``a`` may
    be a submodule), relative imports resolved against ``path``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, f"`import {alias.name}`", alias.name
        return
    package = ["repro", *path.split("/")[:-1]]
    base = package[:len(package) + 1 - node.level] if node.level else []
    module = ".".join(base + ([node.module] if node.module else []))
    spelt = f"`from {'.' * node.level}{node.module or ''} import ...`"
    yield module, spelt, node.module or ""
    for alias in node.names:
        yield f"{module}.{alias.name}", spelt, alias.name


def imports(*modules: str) -> Match:
    """An import of one of ``modules`` or of anything under it: ``..fs.base``
    in a ``repro`` subpackage imports ``repro.fs``; ``from . import pickle``
    is no import of ``pickle``."""
    def fields(node: ast.AST, path: str, module: ast.Module) -> Optional[Dict[str, str]]:
        for imported, spelt, name in _imported(node, path):
            if any(imported == owned or imported.startswith(owned + ".")
                   for owned in modules):
                return {"spelt": spelt, "name": name}
        return None
    return Match((ast.Import, ast.ImportFrom), fields)


#: why a duration is read in one place (the call row of 14, the import row of 15)
CLOCK_REASON = "a duration is a `span` (or a `now()` read) from repro.clock, the one clock"

SITE_OWNERS: Tuple[Row, ...] = (
    # 7. Phase 4 is one transition table: the generator and the index both step through
    #    ``DependencySteps``.  And the index exists so that a sample costs O(sample).
    Row(call("DependencyResolver"), "ace/", "ace/phase4.py",
        "DependencyResolver(...) outside ace/phase4.py — phase 4 is one transition table; "
        "step through `DependencySteps`"),
    Row(call("generate", receiver="self"), "ace/synthesizer.py:AceSynthesizer.sample_stream",
        "", "sample_stream iterates self.generate(...) — sampling unranks through the space "
        "index, it never strides the whole space"),
    # 8. One mount site: _construct consults the checkpoint record's verdict memo first, so
    #    a second site would re-pay for states already known equal.  The recorder mounts the
    #    live recording device, never a crash state.
    Row(call("mount", "fs_class"), "crashmonkey/",
        "crashmonkey/replayer.py:CrashStateGenerator._construct crashmonkey/recorder.py",
        "`{name}(...)` outside CrashStateGenerator._construct — crash states are mounted "
        "in one place, behind the verdict memo"),
    # 9. An environment variable is an option with no declaration.
    Row(environ_read("REPRO_"), "", "",
        "environment read of `{name}` — an env var is an option with no declaration; "
        "declare a field in options.py instead"),
    # 10. On-disk text becomes structure, and content a SHA-1, in one function each, which
    #     memoises; a second site re-derives per mount what the memo already holds.
    Row(call("loads", receiver="json|"), "fs/", "fs/layout.py:decode_json",
        "`json.loads(...)` outside layout.py:decode_json — the file-system model decodes "
        "and hashes in one memoised place"),
    Row(call("sha1", receiver="hashlib|"), "fs/", "fs/inode.py:content_sha1",
        "`hashlib.sha1(...)` outside inode.py:content_sha1 — the file-system model decodes "
        "and hashes in one memoised place"),
    # 11. Copies are the cheap explicit ones: spine nodes hold live forks, and the tracker
    #     clones its records (``replace`` re-runs ``__init__`` per record per checkpoint).
    Row(call("deepcopy", receiver="copy|"), "crashmonkey/ fs/", "",
        "`copy.deepcopy(...)` of recorder / file-system state — fork it (copy exactly what "
        "operations mutate) instead"),
    Row(call("replace", receiver="dataclasses|"), "crashmonkey/tracker.py", "",
        "`dataclasses.replace(...)` in the tracker — records are copied with their "
        "`clone()` methods"),
    # 12. A verdict is shared by every state that agrees on the blocks recovery and checks
    #     read, so the read log must be complete (a file system reads through
    #     ``read_block``), checks ask ``ctx`` (one resolution per state; base.py builds it,
    #     write.py mutates the tree last), and only the mount site may build no commit
    #     tables.
    Row(call("written_blocks", "used_blocks", "content_equal", "overlay_delta",
             "_visible_block", "_merged_overlay"), "fs/", "",
        "`{name}(...)` under fs/ — a file system reads its device through `read_block` "
        "only, so a crash state's read log is complete"),
    Row(attribute("fs"), "crashmonkey/checks/",
        "crashmonkey/checks/write.py crashmonkey/checks/mount.py crashmonkey/checks/base.py",
        "a read-only check reaches for `.fs` — ask `ctx.lookup(path)` / `ctx.names_of(ino)`; "
        "only write.py and mount.py touch the file system"),
    Row(call("mount", keyword="inspect"), "",
        "crashmonkey/replayer.py:CrashStateGenerator._construct",
        "`mount(inspect=...)` outside CrashStateGenerator._construct — an inspection mount "
        "builds no commit tables; only a crash state that is checked and dropped may have one"),
    # 13. One spine, held by the recorder and admitted through the chunk's spine plan: one
    #     truncate loop, one answer to a lost node, no node sized and spilled for nobody.
    #     Nodes pickle as they are; a codec registry was the hand copy of pickle's memo.
    Row(call("put", "get", "drop", receiver="(?i).*store.*"), "", "storage/spill.py",
        "`{receiver}.{name}(...)` outside storage/spill.py — hold a `Spine` "
        "(push / truncate / fetch / deepest) instead"),
    Row(call("push"), "", "crashmonkey/recorder.py:WorkloadRecorder._keep",
        "`push(...)` on a spine outside WorkloadRecorder._keep — the chunk's spine plan says "
        "which frozen nodes a later workload reads from the store"),
    Row(call("Spine"), "", "crashmonkey/recorder.py:WorkloadRecorder.__init__",
        "`Spine(...)` outside WorkloadRecorder.__init__ — the recorder holds the one spine; "
        "a second one sizes, budgets and spills nodes its own way"),
    Row(named("register_codec"), "", "",
        "`register_codec` — the spill layer pickles nodes as they are; a node type declares "
        "what must not ride with `__reduce__` / `__getstate__`"),
    # 22. A recording run is mounted once, then forked: a spine node is a detached
    #     ``_LiveRun.fork`` and a resume forks it again, so a recording device built anywhere
    #     else is a run's state copied by hand.
    Row(call("RecordingDevice"), "", "crashmonkey/recorder.py:WorkloadRecorder._mount",
        "`RecordingDevice(...)` outside WorkloadRecorder._mount — a recording run is mounted "
        "once, then forked (`_LiveRun.fork`); never rebuild one from copied fields"),
    # 14. Which clock is read, and whether a raising block is charged, is decided in one place.
    Row(call("perf_counter", "time", "monotonic", "process_time", receiver="time"), "",
        "clock.py", "`time.{name}()` outside clock.py — " + CLOCK_REASON),
    # 16. One campaign driver: a campaign configuration becomes chunks and an engine in one
    #     place, which a plain run and the durable runner both go through.
    Row(call("CampaignEngine"), "", "core/campaign.py:B3Campaign.engine",
        "`CampaignEngine(...)` outside B3Campaign.engine — drive a `B3Campaign`: it owns the "
        "chunk stream, the engine set-up and where the campaign's progress stands"),
    # 18. A stored result row has one codec, ``CrashTestResult.to_row`` / ``from_row`` side
    #     by side: the code that tested a chunk encodes its rows, the store decodes them, and
    #     a second encoder or decoder would drift from the rows stores already hold.  And a
    #     durable campaign's result is read in one place: the state store decodes its rows
    #     one at a time (the failing ones alone for reports), so nothing else under service/
    #     holds a decoded result set.
    Row(dumps_of("to_dict"), "crashmonkey/ engine/ service/",
        "crashmonkey/report.py:CrashTestResult.to_row",
        "`json.dumps({receiver}.to_dict(...))` outside CrashTestResult.to_row — a result row "
        "has one encoder, beside its decoder `from_row`"),
    Row(call("from_dict", receiver="CrashTestResult|cls"), "crashmonkey/report.py engine/ service/",
        "crashmonkey/report.py:CrashTestResult.from_row",
        "`{receiver}.from_dict(...)` outside CrashTestResult.from_row — a stored result row has "
        "one decoder, beside its encoder `to_row`"),
    Row(call("from_row"), "service/", "service/statedb.py:_decode",
        "`{receiver}.from_row(...)` outside statedb.py:_decode — a durable campaign's result is "
        "read from its store in one place: `CampaignStateDB.campaign_result`"),
    # 19. A count is computed once, where its results are: a chunk's where it ran, a
    #     result built from a list when it is built, an old store's chunk from its rows
    #     by the migration on open.  Everything else merges those roll-ups, in the two
    #     owners of outcomes alone: a plain run's result and the store.
    Row(call("roll_ups_of"), "",
        "engine/backends.py:ChunkOutcome.of core/results.py:CampaignResult.__post_init__ "
        "service/statedb.py:CampaignStateDB._upgrade",
        "`roll_ups_of(...)` outside {site} — a count is computed once, where its results are; "
        "merge the chunks' `totals` instead of rolling up results again"),
    Row(call("merge_roll_ups"), "", "core/results.py service/statedb.py",
        "`merge_roll_ups(...)` outside core/results.py and service/statedb.py — a campaign's "
        "totals are merged by the owner of its outcomes that builds its `CampaignResult`"),
    #     The Figure-5 groups are a roll-up too: a chunk's group partial is computed at the
    #     same three sites and merged by the same two owners.
    Row(call("partial_of"), "",
        "engine/backends.py:ChunkOutcome.of core/results.py:CampaignResult.__post_init__ "
        "service/statedb.py:CampaignStateDB._upgrade",
        "`partial_of(...)` outside {site} — a group partial is computed once, where its "
        "results are; merge the chunks' `groups` instead of grouping results again"),
    Row(call("merge_partials"), "", "core/results.py service/statedb.py",
        "`merge_partials(...)` outside core/results.py and service/statedb.py — a campaign's "
        "groups are merged by the owner of its outcomes that builds its `CampaignResult`"),
    # 21. Operations are spelt once: each kind's spellings, argument schema and run are one
    #     row of ``workload/operations.py:OPERATIONS``, and the parser, the printer and the
    #     executor look a kind up there.  A kind named in them is a ladder coming back.
    Row(member_of("OpKind"), "workload/language.py workload/executor.py", "",
        "`{name}` in the workload language or executor — operations are spelt once; declare "
        "the kind's spellings, arguments and run in `OPERATIONS` and look it up there"),
)

IMPORT_OWNERS: Tuple[Row, ...] = (
    # 5. The static pass stays runnable without the dynamic harness (no device, no mounts).
    Row(imports("repro.crashmonkey.harness"), "analysis/", "",
        "analysis/ imports crashmonkey.harness — the static pass must stay runnable without "
        "the dynamic harness (the harness imports analysis, never the reverse)"),
    # 17. Mechanism planning has one home: a mechanism plan binds a workload's analysis
    #     (``MechanismPlanner.for_profile``), and the generic layers ask the plan for it.
    Row(imports("repro.analysis"), "crashmonkey/ engine/ core/ service/ options.py",
        "crashmonkey/crashplan.py",
        "{spelt} outside {site} — mechanism planning has one home; ask the plan "
        "`for_profile` returns for its report"),
    # 20. The engine only dispatches: it hands each outcome to its owner, so it needs
    #     nothing from the layers that own results (which import it).
    Row(imports("repro.core", "repro.service"), "engine/", "",
        "engine/ imports `{name}` — the engine is a dispatcher below core/ and service/: "
        "hand the outcome to its sink and let its owner build the result"),
    # 13. The serialiser pickles whatever node it is handed and reduces storage types only.
    Row(imports("repro.crashmonkey", "repro.fs"), "storage/spill.py", "",
        "storage/spill.py imports `{name}` — the serialiser knows storage types only; "
        "the node's owner declares the rest"),
    # 15. Some standard modules are a decision one module makes for the rest.
    Row(imports("pickle"), "", "storage/spill.py",
        "{spelt} outside {site} — snapshots are forks; only a spill file holds one as bytes"),
    Row(imports("time"), "", "clock.py", "{spelt} outside {site} — " + CLOCK_REASON),
    Row(imports("sqlite3"), "", "service/statedb.py",
        "{spelt} outside {site} — campaign state has one durable store; a second database "
        "is a second ledger for crash recovery to miss"),
)


def _within(places: str, path: str, qualname: str) -> bool:
    """Whether the code at ``qualname`` of ``path`` lies in one of ``places``."""
    for place in places.split():
        file, _, qual = place.partition(":")
        if ((path == file or (file.endswith("/") and path.startswith(file)))
                and (not qual or qualname == qual or qualname.startswith(qual + "."))):
            return True
    return False


def check_site_owners(trees: Dict[Path, ast.Module],
                      rows: Tuple[Row, ...] = SITE_OWNERS + IMPORT_OWNERS) -> List[Finding]:
    """Walk each module once and apply every row to every node."""
    by_type: Dict[type, List[Row]] = {}
    for row in rows:
        for node_type in row.match.types:
            by_type.setdefault(node_type, []).append(row)
    findings: List[Finding] = []
    for path, tree in trees.items():
        where = path.relative_to(SRC_ROOT).as_posix()
        stack: List[Tuple[ast.AST, str]] = [(tree, "")]
        while stack:
            node, qualname = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{qualname}.{node.name}".lstrip(".")
            for row in by_type.get(type(node), ()):
                fields = row.match.fields(node, where, tree)
                if (fields is not None and (not row.scope or _within(row.scope, where, qualname))
                        and not _within(row.site, where, qualname)):
                    findings.append(Finding(_relative(path), node.lineno,
                                            row.message.format(site=row.site, **fields)))
            stack.extend((child, qualname) for child in ast.iter_child_nodes(node))
    return sorted(findings)


# --------------------------------------------------------------- rule 1: clocks


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
                    _relative(path), node.lineno,
                    f"wall-clock read `{receiver + '.' if receiver else ''}{attr}` reachable from "
                    f"canonical_dict via {' -> '.join(chain)} — canonical "
                    "payloads must be schedule-invariant",
                ))
            elif attr in index and attr not in chain:
                for callee_path, callee in index[attr]:
                    frontier.append((callee_path, callee, chain + [attr]))
    return findings


# -------------------------------------------------------- rule 3: result fields


#: where CrashTestResult declares its counters, how, and with which tags
RESULT_MODULE = Path("crashmonkey") / "report.py"
COUNTER_DECLARATOR = "counter"
COUNTER_TAGS = {"CANONICAL", "SESSION"}

#: CrashTestResult counters that depend on spine residency (spill budget,
#: chunk -> worker assignment) and therefore must stay out of canonical_dict
RESIDENCY_DEPENDENT_FIELDS = {"inherited_verdicts"}


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
    relative = _relative(path)
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
                    _relative(other), node.lineno,
                    f"hand-written roll-up of `{name}` — `roll_up` applies the rule the "
                    "counter declares, and a holder's `totals` (the Totals mixin) keep it",
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
    relative = _relative(path)
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
    return [Finding(relative, line,
                    f"planner `{name}` is registered in PLAN_NAMES but never "
                    f"referenced by {soundness_path.name} — a pruning plan without "
                    "soundness coverage ships unproven")
            for name in sorted(names - referenced)]


# ------------------------------------------- rule 7: ACE index vs the generator


def check_index_builds_workloads_through_phase4(trees: Dict[Path, ast.Module]) -> List[Finding]:
    path = SRC_ROOT / "ace" / "index.py"
    findings: List[Finding] = []
    for node in ast.walk(trees.get(path, ast.Module(body=[]))):
        if not _is_call_to(node, "Workload"):
            continue
        ops = next((kw.value for kw in node.keywords if kw.arg == "ops"),
                   node.args[0] if node.args else None)
        if not _is_call_to(ops, "resolve_dependencies"):
            findings.append(Finding(
                _relative(path), node.lineno,
                "ace/index.py constructs a Workload whose ops are not "
                "`resolve_dependencies(...)` of the unranked operation "
                "list — phase-4 output has one definition",
            ))
    return findings


# ------------------------------------------------- rule 8: twins not re-checked


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


def check_harness_never_rechecks_twins(trees: Dict[Path, ast.Module]) -> List[Finding]:
    path = SRC_ROOT / "crashmonkey" / "harness.py"
    tree = trees.get(path, ast.Module(body=[]))
    parents = {child: parent for parent in ast.walk(tree)
               for child in ast.iter_child_nodes(parent)}
    return [Finding(_relative(path), node.lineno,
                    "harness calls check_timed without an `is_twin` guard — a twin "
                    "has no mounted fs; it takes its representative's verdict")
            for node in ast.walk(tree)
            if _is_call_to(node, "check_timed") and not _guarded_against_twins(node, parents)]


# ------------------------------------------------- rule 9: options are spelt once


#: the module that declares the options, and the call that declares one
OPTIONS_MODULE = "options.py"
OPTION_DECLARATOR = "option"

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


def check_options_are_spelt_once(trees: Dict[Path, ast.Module]) -> List[Finding]:
    schema_path = SRC_ROOT / OPTIONS_MODULE
    names, flags = _option_schema(trees[schema_path])
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path == schema_path:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node)[1] == "add_argument":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and arg.value in flags:
                        findings.append(Finding(
                            _relative(path), node.lineno,
                            f"add_argument(`{arg.value}`) re-spells a schema flag — derive "
                            f"it with `add_arguments` from {OPTIONS_MODULE}",
                        ))
            copied = [kw.arg for kw in node.keywords
                      if kw.arg in names and isinstance(kw.value, ast.Attribute)
                      and kw.value.attr == kw.arg]
            if len(copied) >= HAND_COPY_THRESHOLD:
                findings.append(Finding(
                    _relative(path), node.lineno,
                    f"call hand-copies schema options ({', '.join(copied)}) keyword by "
                    f"keyword — pass the spec, or loop over `dataclasses.fields()`",
                ))
    return findings


# ------------------------------------------------- rule 10: no capability probing


#: the block-device surface a file system drives
DEVICE_METHODS = {"read_block", "write_block", "write_sectors", "flush"}


def _catches_type_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(name, ast.Name) and name.id == "TypeError" for name in names)


def check_devices_are_never_probed(trees: Dict[Path, ast.Module]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if path.parent != SRC_ROOT / "fs":
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Try) and any(map(_catches_type_error, node.handlers))):
                continue
            for call in (sub for stmt in node.body for sub in ast.walk(stmt)):
                if isinstance(call, ast.Call) and _call_name(call)[1] in DEVICE_METHODS:
                    findings.append(Finding(
                        _relative(path), call.lineno,
                        f"`{_call_name(call)[1]}(...)` inside `except TypeError` — devices "
                        "take one call shape; a TypeError there is a bug, not a capability",
                    ))
    return findings


# ------------------------------------------------------------------------ driver


CHECKS = (
    check_site_owners,
    check_canonical_paths_are_clock_free,
    check_result_fields_are_accounted,
    check_planners_have_soundness_coverage,
    check_index_builds_workloads_through_phase4,
    check_harness_never_rechecks_twins,
    check_options_are_spelt_once,
    check_devices_are_never_probed,
)


def parse_tree(root: Path = SRC_ROOT) -> Dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(root.rglob("*.py"))}


def run_lint(root: Path = SRC_ROOT) -> List[Finding]:
    trees = parse_tree(root)
    return [finding for check in CHECKS for finding in check(trees)]


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
