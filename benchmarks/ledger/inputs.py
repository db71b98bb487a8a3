"""Named campaigns of the perf ledger and the samplers that build their inputs.

Every campaign runs on the default bug set with default options unless its
spec says otherwise.  ``--seed`` only ever moves *which* workloads of the
bounded space are picked; the program receives the generated workloads (or,
for the two config-driven campaigns, its own ``CampaignConfig``) and nothing
else.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.ace.bounds import Bounds, seq2_bounds, seq3_data_bounds
from repro.ace.synthesizer import AceSynthesizer
from repro.core.campaign import CampaignConfig
from repro.workload.workload import Workload

#: Size of the full seq-2 space (``AceSynthesizer(seq2_bounds()).count()``).
#: The samplers space their picks over it; running out of workloads before
#: the last pick raises, so a changed space cannot go unnoticed.
SEQ2_SPACE = 305_498
#: Only this prefix of the 10.7 M seq-3-data space is sampled: striding the
#: whole space would cost minutes of set-up per run.
SEQ3_WINDOW = 240_000



def _load_poison() -> Dict[str, FrozenSet[str]]:
    """Workloads the program cannot test yet, per bounds label.

    ``poison_workloads.json`` lists every workload of the sampled spaces on
    which ``CrashMonkey.test_workload`` raises instead of reporting (a torn
    log block that still parses makes recovery die with a ``KeyError``),
    found by testing each space exhaustively under the plans the campaigns
    use.  One such workload aborts a whole serial campaign, so the samplers
    never pick them; the list doubles as the reproducer set for the fix.
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "poison_workloads.json")
    with open(path, encoding="utf-8") as handle:
        listed = json.load(handle)["workloads"]
    return {label: frozenset(names) for label, names in listed.items()}


POISON = _load_poison()

#: Seed multiplier for block shifts: a prime well above any block size, so
#: consecutive seeds land on unrelated parts of the space.
_SHIFT_PRIME = 7919


# --------------------------------------------------------------------------- samplers


def block_offsets(space: int, blocks: int, block_size: int, seed: int) -> List[int]:
    """Start positions of ``blocks`` evenly spaced, seed-shifted blocks."""
    if blocks <= 0 or block_size <= 0:
        raise ValueError("blocks and block_size must be positive")
    spacing = space // blocks
    # Leave room for the family alignment of the last block (families are
    # at most a few dozen workloads long).
    slack = spacing - 2 * block_size
    if slack <= 0:
        raise ValueError(f"{blocks} blocks of {block_size} do not fit in {space} positions")
    shift = (seed * _SHIFT_PRIME) % slack
    return [index * spacing + shift for index in range(blocks)]


def block_sample(stream: Iterator[Workload], offsets: Sequence[int],
                 block_size: int) -> List[Workload]:
    """``block_size`` consecutive workloads from each offset of ``stream``.

    Each block starts at the first sibling-family boundary at or after its
    offset, so no block opens in the middle of a family: the recorder's
    prefix sharing and the replay trail see whole families, the way a
    contiguous campaign does.
    """
    picked: List[Workload] = []
    pending = list(offsets)
    taking = 0
    last_family: Optional[str] = None
    for position, workload in enumerate(stream):
        if taking:
            picked.append(workload)
            taking -= 1
            continue
        if not pending:
            break
        if position >= pending[0] - 1:
            family = workload.family_key()
            if position >= pending[0] and family != last_family:
                pending.pop(0)
                picked.append(workload)
                taking = block_size - 1
            last_family = family
    if pending or taking:
        raise ValueError(
            f"workload space ended with {len(pending)} block(s) still to take"
        )
    return picked


def stride_sample(stream: Iterator[Workload], space: int, count: int,
                  seed: int) -> List[Workload]:
    """Every stride-th workload of ``stream``, offset by ``seed mod stride``."""
    if count <= 0:
        raise ValueError("count must be positive")
    stride = max(space // count, 1)
    offset = seed % stride
    picked: List[Workload] = []
    for position, workload in enumerate(stream):
        if position % stride == offset:
            picked.append(workload)
            if len(picked) >= count:
                break
    if len(picked) < count:
        raise ValueError(f"workload space ended after {len(picked)} of {count} picks")
    return picked


# --------------------------------------------------------------------------- campaigns


@dataclass(frozen=True)
class CampaignSpec:
    """One named campaign: what runs, on what inputs, and why it exists."""

    name: str
    why: str
    fs_name: str
    crash_plan: str
    bounds_label: str = "seq-2"
    #: "blocks" / "stride" build the inputs in set-up and pass them to
    #: ``run(workloads=...)``; "config" leaves generation to the program,
    #: inside the timed region
    sampler: str = "blocks"
    blocks: int = 0
    block_size: int = 0
    #: stride picks, or ``max_workloads`` of a config-driven campaign
    count: int = 0
    #: config-driven only: ``CampaignConfig.sample``
    sample: bool = False
    spine_memory_budget: Optional[int] = None
    #: run through ``DurableCampaignRunner`` on a fresh sqlite file
    durable: bool = False
    processes: int = 1

    @property
    def workloads(self) -> int:
        """Workloads submitted to the program (the fixed input size)."""
        if self.sampler == "blocks":
            return self.blocks * self.block_size
        return self.count

    def bounds(self) -> Bounds:
        return seq3_data_bounds() if self.bounds_label == "seq-3-data" else seq2_bounds()

    def scaled(self, scale: float) -> "CampaignSpec":
        """A proportionally smaller campaign (self-tests and smoke runs)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            blocks=max(1, round(self.blocks * scale)) if self.blocks else 0,
            count=max(1, round(self.count * scale)) if self.count else 0,
        )

    def config(self, spine_spill_dir: Optional[str] = None) -> CampaignConfig:
        """The ``CampaignConfig`` handed to the program."""
        config_driven = self.sampler == "config"
        return CampaignConfig(
            fs_name=self.fs_name,
            bounds=self.bounds(),
            crash_plan=self.crash_plan,
            max_workloads=self.count if config_driven else None,
            sample=self.sample,
            spine_memory_budget=self.spine_memory_budget,
            spine_spill_dir=spine_spill_dir if self.spine_memory_budget is not None else None,
            processes=self.processes,
        )

    def build_inputs(self, seed: int) -> Tuple[Optional[List[Workload]], int]:
        """Materialise the inputs; returns (workloads, positions enumerated).

        Config-driven campaigns return ``(None, 0)``: the program generates
        its own workloads inside the timed region.
        """
        if self.sampler == "config":
            return None, 0
        synthesizer = AceSynthesizer(self.bounds())
        poison = POISON.get(self.bounds_label, frozenset())
        stream = (w for w in synthesizer.generate() if w.name not in poison)
        space = SEQ3_WINDOW if self.bounds_label == "seq-3-data" else SEQ2_SPACE
        space -= len(poison)
        if self.sampler == "blocks":
            offsets = block_offsets(space, self.blocks, self.block_size, seed)
            picked = block_sample(stream, offsets, self.block_size)
        else:
            picked = stride_sample(stream, space, self.count, seed)
        return picked, synthesizer.stats.final


CAMPAIGNS: Tuple[CampaignSpec, ...] = (
    CampaignSpec(
        name="seq2_blocks_prefix",
        why="paper's standard mode: adjacent sibling families, so prefix/replay sharing is on; "
            "recorder does most of the work, ace and spill none",
        fs_name="btrfs", crash_plan="prefix",
        sampler="blocks", blocks=22, block_size=125,
    ),
    CampaignSpec(
        name="seq2_sample_generate",
        why="config-driven --sample --limit run with generation inside the timed region: "
            "the only workload where ace dominates wall-clock",
        fs_name="flashfs", crash_plan="prefix",
        sampler="config", count=400, sample=True,
    ),
    CampaignSpec(
        name="seq2_sample_torn",
        why="stride-sampled inputs under the torn plan: fs mount/recovery and checks dominate, "
            "and split families bypass prefix/replay sharing",
        fs_name="flashfs", crash_plan="torn",
        sampler="stride", count=420,
    ),
    CampaignSpec(
        name="seq2_sample_mechanism",
        why="same inputs as seq2_sample_torn under the mechanism plan on default-bug logfs, "
            "where the auditor demotes every checkpoint: analysis and crashplan work",
        fs_name="logfs", crash_plan="mechanism",
        sampler="stride", count=420,
    ),
    CampaignSpec(
        name="seq2_limit_durable_j2",
        why="contiguous config-driven campaign through DurableCampaignRunner with two workers: "
            "the only workload where engine dispatch and statedb ingest do work",
        fs_name="btrfs", crash_plan="prefix",
        sampler="config", count=4500, durable=True, processes=2,
    ),
    CampaignSpec(
        name="seq3_blocks_spill",
        why="seq-3-data blocks under a 64 KiB spine budget: the only workload where the spill "
            "store freezes and rehydrates deep spines",
        fs_name="flashfs", crash_plan="mechanism", bounds_label="seq-3-data",
        sampler="blocks", blocks=8, block_size=70,
        spine_memory_budget=65536,
    ),
)

BY_NAME: Dict[str, CampaignSpec] = {spec.name: spec for spec in CAMPAIGNS}
