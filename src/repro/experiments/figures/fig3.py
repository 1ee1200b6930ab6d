"""Figure 3: larger RTT variations cause more performance degradation.

For each variation in 2x..5x, derives the two "current practice" thresholds
from the emulated RTT distribution itself (average RTT and 90th-percentile
RTT, Equation 1 with lambda = 1 as operators configure it) and runs
DCTCP-RED with both.  The paper's observation: the average-RTT threshold's
throughput loss *and* the tail-RTT threshold's short-flow 99p penalty both
grow with the variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...netem.profiles import RttProfile
from ...sim.units import us
from ...workloads.websearch import WEB_SEARCH
from ..fct import FctSummary
from ..report import fmt_ratio, format_table
from ..specs import AqmSpec, Cell, RunSpec

__all__ = [
    "Fig3Result",
    "cells",
    "assemble",
    "derived",
    "render",
    "DEFAULT_VARIATIONS",
    "LARGE_MIN",
]

DEFAULT_VARIATIONS: Tuple[float, ...] = (2.0, 3.0, 4.0, 5.0)

LARGE_MIN = 2_000_000
"""The figure re-cuts the paper's >=10MB "large flow" bucket at 2MB so the
throughput-sensitive statistic is populated at reduced flow counts (the
ordering claims are insensitive to the cut point)."""


@dataclass
class Fig3Result:
    """Per-variation summaries for the avg-RTT and tail-RTT thresholds."""

    variations: Tuple[float, ...]
    avg_threshold: Dict[float, FctSummary]
    tail_threshold: Dict[float, FctSummary]
    thresholds_us: Dict[float, Tuple[float, float]]  # (avg, p90) sojourn us
    load: float

    def large_flow_gap(self, variation: float) -> Optional[float]:
        """Avg-threshold large-flow FCT over tail-threshold's (throughput
        loss of the low threshold; grows with variation)."""
        mine = self.avg_threshold[variation].large_avg
        theirs = self.tail_threshold[variation].large_avg
        if mine is None or theirs is None or theirs == 0:
            return None
        return mine / theirs

    def short_tail_gap(self, variation: float) -> Optional[float]:
        """Tail-threshold short-flow 99p over avg-threshold's (queueing
        penalty of the high threshold; grows with variation)."""
        mine = self.tail_threshold[variation].short_p99
        theirs = self.avg_threshold[variation].short_p99
        if mine is None or theirs is None or theirs == 0:
            return None
        return mine / theirs


def cells(
    seed: int = 11,
    n_flows: int = 150,
    load: float = 0.5,
    variations: Tuple[float, ...] = DEFAULT_VARIATIONS,
    rtt_min: float = us(70),
    n_seeds: int = 2,
) -> Dict[Tuple[float, str], Cell]:
    """The variation sweep, one cell per ``(variation, "avg" | "tail")``
    coordinate; each cell's marking threshold is that statistic of the
    variation's sampled RTT distribution."""
    stats_rng = np.random.default_rng(seed + 1000)
    grid: Dict[Tuple[float, str], Cell] = {}
    for variation in variations:
        profile = RttProfile.from_variation(rtt_min, variation, shape="testbed")
        stats = profile.statistics(stats_rng, n=100_000)
        for label, sojourn in (("avg", stats.mean), ("tail", stats.p90)):
            grid[(variation, label)] = Cell.pooled(
                "fig3",
                f"variation={variation:g}|threshold={label}",
                RunSpec.star(
                    AqmSpec.make("sojourn-red", sojourn=sojourn),
                    workload=WEB_SEARCH.name,
                    load=load,
                    n_flows=n_flows,
                    seed=seed,
                    label=f"{label}@{variation:g}x",
                    variation=variation,
                    rtt_min=rtt_min,
                ),
                n_seeds,
            )
    return grid


def assemble(
    cells: Dict[Tuple[float, str], Cell], runs: Sequence[Sequence[Any]]
) -> Fig3Result:
    """Pool each cell's seed runs and summarise them at :data:`LARGE_MIN`;
    the thresholds are read back off the cells' AQM parameters."""
    summaries: Dict[str, Dict[float, FctSummary]] = {"avg": {}, "tail": {}}
    sojourn_us: Dict[str, Dict[float, float]] = {"avg": {}, "tail": {}}
    for ((variation, label), cell), cell_runs in zip(cells.items(), runs):
        summaries[label][variation] = cell.pool(cell_runs).collector.summary(
            large_min=LARGE_MIN
        )
        sojourn = dict(cell.specs[0].aqm.params)["sojourn"]
        sojourn_us[label][variation] = sojourn * 1e6
    return Fig3Result(
        variations=tuple(summaries["avg"]),
        avg_threshold=summaries["avg"],
        tail_threshold=summaries["tail"],
        thresholds_us={
            variation: (avg_us, sojourn_us["tail"][variation])
            for variation, avg_us in sojourn_us["avg"].items()
        },
        load=next(iter(cells.values())).specs[0].load,
    )


def derived(result: Fig3Result) -> Dict[str, float]:
    """Both gaps per variation (what the figure claims grows), the latency
    gap's growth across the sweep and the throughput gap's range."""
    numbers = {}
    for variation in result.variations:
        large_gap = result.large_flow_gap(variation)
        if large_gap is not None:
            numbers[f"large_flow_gap|variation={variation:g}"] = large_gap
        short_gap = result.short_tail_gap(variation)
        if short_gap is not None:
            numbers[f"short_tail_gap|variation={variation:g}"] = short_gap
    first = result.short_tail_gap(result.variations[0])
    last = result.short_tail_gap(result.variations[-1])
    if first and last is not None:
        numbers["short_tail_gap_at_max_variation"] = last
        numbers["short_tail_gap_growth"] = last / first
    large_gaps = [v for k, v in numbers.items() if k.startswith("large_flow_gap|")]
    if len(large_gaps) == len(result.variations):
        numbers["min_large_flow_gap"] = min(large_gaps)
        numbers["max_large_flow_gap"] = max(large_gaps)
    return numbers


def render(result: Fig3Result) -> str:
    """Render the per-variation gap table (thresholds and both gaps)."""
    rows: List[List[str]] = []
    for variation in result.variations:
        avg_us, p90_us = result.thresholds_us[variation]
        rows.append(
            [
                f"{variation:.0f}x",
                f"{avg_us:.0f}us",
                f"{p90_us:.0f}us",
                fmt_ratio(result.large_flow_gap(variation)),
                fmt_ratio(result.short_tail_gap(variation)),
            ]
        )
    return format_table(
        [
            "variation",
            "avg-RTT T",
            "p90-RTT T",
            "large FCT avg/tail",
            "short p99 tail/avg",
        ],
        rows,
        title=(
            "Figure 3: degradation vs RTT variation (web search, "
            f"load={result.load:.0%}; both gaps should grow with variation)"
        ),
    )
