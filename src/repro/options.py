"""Every option of the crash tester, declared once.

B3's method is to state its bounds explicitly; this module is where the
reproduction states its own.  Each option is one dataclass field carrying its
default, help text, CLI flag and a tag:

* ``identity`` — ``CampaignResult.canonical_dict()`` or the durable chunk
  census depends on it.  A different value is a different campaign.
* ``execution`` — how (fast, wide, where) the same result is produced; the
  parity suites prove these cannot change ``canonical_dict()``, so every
  session, a resume included, may pick its own.

Everything else that needs the options — the harness constructor, the JSON
codec, the argparse groups, the campaign id and the state store's drift check
— is derived from ``dataclasses.fields()``, so adding a knob is one field
here.  This is the bottom layer: it imports only value types, and
:meth:`HarnessSpec.build` imports the harness lazily.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from .ace.bounds import Bounds
from .fs.bugs import BugConfig
from .storage.block import DEFAULT_DEVICE_BLOCKS

IDENTITY = "identity"
EXECUTION = "execution"

#: options an earlier version had and this one does not, that were tagged
#: ``execution``: a stored campaign configuration naming one resumes without
#: it, whatever its value.  A retired name not listed here is taken to have
#: been ``identity``, and a stored value other than null or false refuses.
RETIRED_EXECUTION_OPTIONS = frozenset({"share_replay"})


def positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def nonnegative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return number


def option(default: Any, help: str, *, tag: str = IDENTITY, flags: Tuple[str, ...] = (),
           type: Optional[Callable[[str], Any]] = None, metavar: Optional[str] = None,
           coerce: Optional[Callable[[Any], Any]] = None):
    """Declare one option: a field whose metadata holds its other spellings.

    ``flags`` are the CLI spellings (none = library-only), ``type``/``metavar``
    go to argparse, and ``coerce`` normalizes a non-``None`` value at
    construction — which is also how a decoded JSON value becomes the field's
    real type again.
    """
    return field(default=default, metadata={
        "help": help, "tag": tag, "flags": flags, "type": type, "metavar": metavar,
        "coerce": coerce,
    })


def _bugs(value) -> BugConfig:
    return value if isinstance(value, BugConfig) else BugConfig(frozenset(value))


def _bounds(value) -> Bounds:
    if isinstance(value, Bounds):
        return value
    return Bounds(**{key: tuple(item) if isinstance(item, list) else item
                     for key, item in value.items()})


def _jsonable(value):
    if isinstance(value, BugConfig):
        return sorted(value.enabled)
    if isinstance(value, (Bounds, HarnessSpec)):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass(frozen=True)
class HarnessSpec:
    """Everything needed to build a :class:`CrashMonkey` in any process.

    Frozen, hashable and picklable: execution backends ship the spec, never a
    live harness, and each worker builds its own harness from it once.
    """

    fs_name: str = option(
        "btrfs", "file system under test: a simulator, or the real one it models",
        flags=("--filesystem", "-f"))
    bugs: Optional[BugConfig] = option(
        None, "bug mechanisms the simulated file system exhibits (None = every mechanism "
              "applicable to it: the unpatched kernels the paper tested)", coerce=_bugs)
    device_blocks: int = option(
        DEFAULT_DEVICE_BLOCKS, "size of the freshly formatted initial image, in blocks "
                               "(a bare harness formats the paper's 100 MB image)")
    only_last_checkpoint: bool = option(
        False, "crash-test only the final persistence point (the paper's seq-1 before "
               "seq-2 before seq-3 strategy makes earlier ones redundant)")
    checks: Optional[Tuple[str, ...]] = option(
        None, "comma-separated consistency checks to run, by registered name (default: "
              "all; a custom check must be registered by a module the pool workers "
              "also import)", flags=("--checks",), metavar="A,B", coerce=tuple)
    skip_checks: Tuple[str, ...] = option(
        (), "comma-separated consistency checks to skip", flags=("--skip-checks",),
        metavar="C,D", coerce=tuple)
    crash_plan: str = option(
        "prefix", "crash scenarios per persistence point: 'prefix' tests the "
                  "fully-persisted state, 'reorder' also drops bounded subsets of in-flight "
                  "(post-flush, non-FUA) writes, 'torn' additionally tears in-flight writes "
                  "at 512-byte sector granularity (metadata-tagged blocks first), "
                  "'mechanism' statically infers the trace's persistence mechanisms and "
                  "tests representative states per mechanism epoch (falling back to 'torn' "
                  "wherever no mechanism is inferable)", flags=("--crash-plan",))
    reorder_bound: int = option(
        2, "reorder/torn plans: max blocks deviating from the baseline per scenario",
        flags=("--reorder-bound",), type=positive_int, metavar="N")
    torn_bound: int = option(
        2, "torn plan: max in-flight writes torn per checkpoint, commit-area blocks first",
        flags=("--torn-bound",), type=positive_int, metavar="N")
    dedup_scenarios: bool = option(
        True, "skip crash states at a checkpoint that provably repeats an earlier one "
              "(same stable fork, window and expectations: no flush or write intervened)")
    share_prefixes: bool = option(
        True, "record shared ACE-sibling operation prefixes once and resume each sibling "
              "from an O(1) snapshot fork; off records every workload from scratch "
              "(profiles are byte-for-byte identical either way)",
        tag=EXECUTION, flags=("--share-prefixes",))
    spine_memory_budget: Optional[int] = option(
        None, "resident-byte budget for the cached trie spine of prefix recording; "
              "frozen nodes beyond it spill to disk and rehydrate "
              "transparently with byte-identical results (0 spills everything; default: "
              "256 MiB)",
        tag=EXECUTION, flags=("--spine-memory-budget",), type=nonnegative_int,
        metavar="BYTES")
    spine_spill_dir: Optional[str] = option(
        None, "directory for spilled spine nodes, shared by every worker (default: a "
              "private temporary directory per worker; durable campaigns keep one beside "
              "the state database)",
        tag=EXECUTION, flags=("--spine-spill-dir",), metavar="PATH")
    kernel_version: str = option("4.16", "kernel label attached to bug reports")

    def __post_init__(self):
        for spec_field in fields(self):
            coerce, value = spec_field.metadata["coerce"], getattr(self, spec_field.name)
            if coerce is not None and value is not None:
                object.__setattr__(self, spec_field.name, coerce(value))

    def build(self):
        """Construct a :class:`~repro.crashmonkey.harness.CrashMonkey` for this spec."""
        from .crashmonkey.harness import CrashMonkey

        return CrashMonkey(spec=self)

    # ----------------------------------------------------------------- JSON codec

    def to_dict(self) -> dict:
        """JSON-ready encoding, one key per field (equal to its own JSON round-trip)."""
        return _jsonable(self)

    @classmethod
    def from_dict(cls, payload: dict):
        """Inverse of :meth:`to_dict`; a null or missing key is the field's default."""
        return cls(**{f.name: payload[f.name] for f in fields(cls)
                      if payload.get(f.name) is not None})

    def identity(self) -> dict:
        """The encoded identity fields: what makes two configurations one campaign."""
        payload = self.to_dict()
        return {f.name: payload[f.name] for f in fields(self)
                if f.metadata["tag"] == IDENTITY}

    # ------------------------------------------------------------------------ CLI

    @classmethod
    def add_arguments(cls, parser: argparse.ArgumentParser, *,
                      only: Optional[Iterable[str]] = None, tag: Optional[str] = None,
                      default: Any = None, **overrides: Dict[str, Any]) -> None:
        """Add every flagged field (``only`` these names / this ``tag``) to ``parser``.

        ``dest`` is the field name.  A ``bool`` that defaults on gets a
        ``--flag`` / ``--no-flag`` pair, one that defaults off a plain
        switch.  ``default`` replaces every field default (a resume session
        passes ``argparse.SUPPRESS`` to see only what was typed);
        ``overrides`` maps a field name to extra ``add_argument`` keywords
        for what only an upper layer knows (``choices``, a validating
        ``type``).
        """
        for spec_field in fields(cls):
            meta = spec_field.metadata
            if (not meta["flags"] or (only is not None and spec_field.name not in only)
                    or (tag is not None and meta["tag"] != tag)):
                continue
            kwargs: Dict[str, Any] = {
                "dest": spec_field.name, "help": meta["help"],
                "default": spec_field.default if default is None else default,
            }
            if spec_field.default is True:
                kwargs["action"] = argparse.BooleanOptionalAction
            elif spec_field.default is False:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=meta["type"], metavar=meta["metavar"])
            kwargs.update(overrides.get(spec_field.name, {}))
            parser.add_argument(*meta["flags"], **kwargs)

    @classmethod
    def from_args(cls, args: argparse.Namespace, **values):
        """Build from a namespace :meth:`add_arguments` filled, plus ``values``."""
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                      if hasattr(args, f.name)}, **values)


@dataclass(frozen=True)
class CampaignConfig(HarnessSpec):
    """Configuration of one testing campaign: a harness spec plus the space to test."""

    device_blocks: int = option(
        4096, "size of the freshly formatted initial image, in blocks (campaigns format a "
              "16 MiB image)")
    bounds: Optional[Bounds] = option(
        None, "the bounded workload space ACE explores (None = seq-2)", coerce=_bounds)
    max_workloads: Optional[int] = option(
        None, "cap on the number of generated workloads to test (default: exhaustive)",
        flags=("--limit",), type=int, metavar="N")
    sample: bool = option(
        False, "spread --limit workloads over the whole space instead of taking a prefix",
        flags=("--sample",))
    chunk_size: Optional[int] = option(
        None, "workloads per dispatched chunk (default: engine default)",
        flags=("--chunk-size",), type=positive_int, metavar="N")
    processes: int = option(
        1, "worker processes: 1 = serial in-process, more = the process-pool backend",
        tag=EXECUTION, flags=("--processes", "-j"), type=positive_int, metavar="N")

    def harness_spec(self) -> HarnessSpec:
        """The harness part of this configuration."""
        return HarnessSpec(**{f.name: getattr(self, f.name) for f in fields(HarnessSpec)})

