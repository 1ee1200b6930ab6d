"""Section 3.3 ablation: both of ECN#'s components are necessary.

ECN# itself, with one component switched off by its own parameters, over
the Figure 10 rig at a 200-flow burst (past the loss onset of
persistent-only marking):

* instantaneous-only (``pst_interval`` outlasts the run, so Algorithm 1
  never detects a persistent queue): ECN# degenerates to DCTCP-RED / TCN and
  keeps a standing queue at the threshold -- the latency problem ECN# fixes;
* persistent-only (``ins_target`` beyond what the buffer can hold): controls
  the standing queue but reacts too slowly to the burst and loses packets --
  CoDel's failure mode;
* full ECN#: low standing queue *and* burst-clean.

The paper argues this in prose; here it is a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ...core import EcnSharp, EcnSharpConfig
from ...sim.units import ms, us
from ..report import format_table
from .fig10 import MicroscopicRun, run_microscopic

__all__ = [
    "AblationResult",
    "VARIANTS",
    "run_ablation",
    "summarize",
    "derived",
    "render",
]

VARIANTS: Dict[str, EcnSharpConfig] = {
    # The rig runs 45 ms: a one-second interval never elapses.
    "instantaneous-only": EcnSharpConfig(
        ins_target=us(220), pst_target=us(10), pst_interval=1.0
    ),
    # A 10 ms ins_target never fires on a 1 MB (800 us) buffer.
    "persistent-only": EcnSharpConfig(
        ins_target=ms(10), pst_target=us(10), pst_interval=us(240)
    ),
    "full ECN#": EcnSharpConfig(
        ins_target=us(220), pst_target=us(10), pst_interval=us(240)
    ),
}

BURST_FANOUT = 200


@dataclass
class AblationResult:
    runs: Dict[str, MicroscopicRun]


def run_ablation(seed: int = 91) -> AblationResult:
    return AblationResult(
        {
            name: run_microscopic(
                lambda config=config: EcnSharp(config),
                scheme_name=name,
                fanout=BURST_FANOUT,
                seed=seed,
            )
            for name, config in VARIANTS.items()
        }
    )


def summarize(result: AblationResult) -> Dict[str, Dict[str, float]]:
    return {f"variant={name}": run.metrics() for name, run in result.runs.items()}


def derived(result: AblationResult) -> Dict[str, float]:
    """Full ECN#'s standing queue as a fraction of instantaneous-only's, and
    each variant's drops under the burst."""
    runs = result.runs
    numbers = {f"drops|variant={name}": float(run.drops) for name, run in runs.items()}
    if runs["instantaneous-only"].standing_queue_pkts > 0:
        numbers["full_standing_ratio"] = (
            runs["full ECN#"].standing_queue_pkts
            / runs["instantaneous-only"].standing_queue_pkts
        )
    return numbers


def render(result: AblationResult) -> str:
    rows: List[List[str]] = [
        [
            name,
            f"{run.standing_queue_pkts:.1f}",
            f"{run.floor_queue_pkts:.1f}",
            str(run.drops),
            str(run.query_timeouts),
        ]
        for name, run in result.runs.items()
    ]
    return format_table(
        ["variant", "standing q (pkt)", "floor q (5ms)", "drops", "timeouts"],
        rows,
        title=(
            f"Ablation: ECN# components ({BURST_FANOUT}-flow burst over "
            "background flows)"
        ),
    )
