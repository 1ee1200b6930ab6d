"""Figure 2: no single instantaneous threshold wins on both axes.

Sweeps the DCTCP-RED cut-off threshold from 50 KB to 250 KB under the web
search workload at 50% load with 3x RTT variation (70-210 us).  The paper's
observation: low thresholds (average-RTT territory) hurt large-flow FCT
(throughput), high thresholds (90th-percentile territory) hurt short-flow
tail FCT (queueing delay); nothing in between achieves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...sim.units import gbps, kb, us
from ...workloads.websearch import WEB_SEARCH
from ..fct import FctSummary
from ..report import fmt_ratio, fmt_us, format_table
from ..schemes import bytes_to_sojourn
from ..specs import AqmSpec, Cell, RunSpec

__all__ = [
    "Fig2Result",
    "cells",
    "assemble",
    "derived",
    "render",
    "DEFAULT_THRESHOLDS_KB",
]

DEFAULT_THRESHOLDS_KB: Tuple[int, ...] = (50, 100, 150, 200, 250)


@dataclass
class Fig2Result:
    """FCT summaries per threshold, plus normalization to the first one."""

    thresholds_kb: Tuple[int, ...]
    summaries: Dict[int, FctSummary]
    load: float
    variation: float

    def normalized(self, field: str) -> Dict[int, Optional[float]]:
        """Per-threshold ratio of ``field`` to the smallest threshold's."""
        base = getattr(self.summaries[self.thresholds_kb[0]], field)
        out: Dict[int, Optional[float]] = {}
        for threshold in self.thresholds_kb:
            value = getattr(self.summaries[threshold], field)
            # A legitimate 0.0 value must normalize to 0.0 -- only a
            # missing/zero *base* makes the ratio undefined.
            out[threshold] = (value / base) if (value is not None and base) else None
        return out


def cells(
    seed: int = 7,
    n_flows: int = 150,
    load: float = 0.5,
    thresholds_kb: Tuple[int, ...] = DEFAULT_THRESHOLDS_KB,
    variation: float = 3.0,
    rtt_min: float = us(70),
    n_seeds: int = 2,
) -> Dict[int, Cell]:
    """The (threshold x seed) grid, one cell per threshold in KB: identical
    arrivals across thresholds, pooled over ``n_seeds`` seeds as the paper
    averages runs."""
    return {
        threshold: Cell.pooled(
            "fig2",
            f"threshold={threshold}KB",
            RunSpec.star(
                AqmSpec.make(
                    "sojourn-red", sojourn=bytes_to_sojourn(kb(threshold), gbps(10))
                ),
                workload=WEB_SEARCH.name,
                load=load,
                n_flows=n_flows,
                seed=seed,
                label=f"{threshold}KB",
                variation=variation,
                rtt_min=rtt_min,
            ),
            n_seeds,
        )
        for threshold in thresholds_kb
    }


def assemble(
    cells: Dict[int, Cell], runs: Sequence[Sequence[Any]]
) -> Fig2Result:
    """Pool each cell's seed runs into ``summaries[threshold]``."""
    spec = next(iter(cells.values())).specs[0]
    return Fig2Result(
        thresholds_kb=tuple(cells),
        summaries={
            threshold: cell.pool(cell_runs).summary
            for (threshold, cell), cell_runs in zip(cells.items(), runs)
        },
        load=spec.load,
        variation=spec.variation,
    )


def derived(result: Fig2Result) -> Dict[str, float]:
    """The dilemma as three numbers, all relative to the sweep's own ends:
    what the tail (largest) threshold does to each axis, and the smallest
    price any threshold pays on its worse axis -- short-flow p99 against
    the lowest threshold's, large-flow FCT against the tail threshold's.
    Empty when a statistic is missing (no flow in a bucket)."""
    short = result.normalized("short_p99")
    large = result.normalized("large_avg")
    tail = result.thresholds_kb[-1]
    if None in short.values() or None in large.values() or not large[tail]:
        return {}
    return {
        "tail_threshold_large_avg": large[tail],
        "tail_threshold_short_p99": short[tail],
        "min_worse_axis_penalty": min(
            max(short[t], large[t] / large[tail]) for t in result.thresholds_kb
        ),
    }


def render(result: Fig2Result) -> str:
    """Render the threshold-sweep table (normalized to the 50 KB point)."""
    norm_large = result.normalized("large_avg")
    norm_short99 = result.normalized("short_p99")
    norm_overall = result.normalized("overall_avg")
    rows: List[List[str]] = []
    for threshold in result.thresholds_kb:
        summary = result.summaries[threshold]
        rows.append(
            [
                f"{threshold}KB",
                fmt_us(summary.overall_avg),
                fmt_us(summary.short_p99),
                fmt_us(summary.large_avg),
                fmt_ratio(norm_overall[threshold]),
                fmt_ratio(norm_short99[threshold]),
                fmt_ratio(norm_large[threshold]),
            ]
        )
    return format_table(
        [
            "threshold",
            "overall avg",
            "short p99",
            "large avg",
            "n.overall",
            "n.short99",
            "n.large",
        ],
        rows,
        title=(
            f"Figure 2: threshold sweep (web search, load={result.load:.0%}, "
            f"{result.variation:.0f}x RTT variation; normalized to 50KB)"
        ),
    )
