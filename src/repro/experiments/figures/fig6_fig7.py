"""Figures 6-7: testbed FCT vs load under both production workloads.

For each load point, runs the four Section 5.2 schemes (DCTCP-RED-Tail,
DCTCP-RED-AVG, CoDel, ECN#) over the 7-to-1 testbed star with 3x RTT
variation, and normalizes every FCT statistic to DCTCP-RED-Tail -- exactly
how the paper plots panels (a)-(d).

Shape targets: ECN# beats RED-Tail on short-flow avg/99p (up to ~23%/37%),
matches it on large-flow avg; RED-AVG wins short flows but loses large
flows; CoDel loses badly on short flows (timeouts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ...sim.units import us
from ...workloads.datamining import DATA_MINING
from ...workloads.distributions import EmpiricalCdf
from ...workloads.websearch import WEB_SEARCH
from ..fct import FctSummary, NormalizedFct
from ..report import fmt_ratio, format_table
from ..schemes import testbed_scheme_specs
from ..specs import Cell, RunSpec

__all__ = [
    "FctVsLoadResult",
    "cells",
    "assemble",
    "derived",
    "fig6_cells",
    "fig7_cells",
    "render",
]

BASELINE = "DCTCP-RED-Tail"


@dataclass
class FctVsLoadResult:
    """summaries[load][scheme] plus the workload identity."""

    workload_name: str
    loads: Tuple[float, ...]
    schemes: Tuple[str, ...]
    summaries: Dict[float, Dict[str, FctSummary]]

    def normalized(self, load: float, scheme: str) -> NormalizedFct:
        return self.summaries[load][scheme].normalized_to(
            self.summaries[load][BASELINE]
        )

    def best_short_avg_gain(self, scheme: str = "ECN#") -> Optional[float]:
        """Largest relative short-flow average FCT reduction vs baseline
        across loads (paper: up to 23.4% web search / 31.2% data mining)."""
        gains = []
        for load in self.loads:
            ratio = self.normalized(load, scheme).short_avg
            if ratio is not None:
                gains.append(1.0 - ratio)
        return max(gains) if gains else None


def _figure_name(workload_name: str) -> str:
    return "fig6" if workload_name == WEB_SEARCH.name else "fig7"


def cells(
    workload: EmpiricalCdf,
    loads: Tuple[float, ...],
    n_flows: int,
    seed: int,
    n_seeds: int,
) -> Dict[Tuple[float, str], Cell]:
    """The (load x scheme x seed) grid over the testbed star (3x RTT
    variation from 70 us), one cell per ``(load, scheme)`` coordinate."""
    schemes = testbed_scheme_specs()
    return {
        (load, name): Cell.pooled(
            _figure_name(workload.name),
            f"load={load:g}|scheme={name}",
            RunSpec.star(
                aqm,
                workload=workload.name,
                load=load,
                n_flows=n_flows,
                seed=seed,
                label=name,
                variation=3.0,
                rtt_min=us(70),
            ),
            n_seeds,
        )
        for load in loads
        for name, aqm in schemes.items()
    }


def fig6_cells(
    loads: Tuple[float, ...] = (0.3, 0.5, 0.8),
    n_flows: int = 150,
    seed: int = 21,
    n_seeds: int = 2,
) -> Dict[Tuple[float, str], Cell]:
    """Figure 6's grid: web search workload."""
    return cells(WEB_SEARCH, loads, n_flows, seed, n_seeds)


def fig7_cells(
    loads: Tuple[float, ...] = (0.3, 0.5, 0.8),
    n_flows: int = 60,
    seed: int = 22,
    n_seeds: int = 2,
) -> Dict[Tuple[float, str], Cell]:
    """Figure 7's grid: data mining workload."""
    return cells(DATA_MINING, loads, n_flows, seed, n_seeds)


def assemble(
    cells: Dict[Tuple[float, str], Cell], runs: Sequence[Sequence[Any]]
) -> FctVsLoadResult:
    """Pool each cell's seed runs into ``summaries[load][scheme]``."""
    summaries: Dict[float, Dict[str, FctSummary]] = {}
    for ((load, name), cell), cell_runs in zip(cells.items(), runs):
        summaries.setdefault(load, {})[name] = cell.pool(cell_runs).summary
    return FctVsLoadResult(
        workload_name=next(iter(cells.values())).specs[0].workload,
        loads=tuple(summaries),
        schemes=tuple(dict.fromkeys(name for _, name in cells)),
        summaries=summaries,
    )


def derived(result: FctVsLoadResult) -> Dict[str, Union[float, str]]:
    """ECN#'s best short-flow gain and worst large-flow / overall ratio over
    the loads, and the RED-AVG trade-off the paper sets it against: short
    flows at the middle load, large flows at the highest.  A statistic no
    load can give is the string saying why; a scheme the grid lacks has no
    entry."""

    def worst(scheme: str, field: str, loads) -> Union[float, str]:
        ratios = [getattr(result.normalized(load, scheme), field) for load in loads]
        present = [ratio for ratio in ratios if ratio is not None]
        bucket = field.split("_")[0]
        return max(present) if present else f"no flow in the {bucket} bucket"

    numbers: Dict[str, Union[float, str]] = {}
    if "ECN#" in result.schemes:
        gain = result.best_short_avg_gain()
        numbers["best_short_avg_gain"] = (
            "no flow in the short bucket" if gain is None else gain
        )
        numbers["worst_large_avg_ratio"] = worst("ECN#", "large_avg", result.loads)
        numbers["worst_overall_avg_ratio"] = worst("ECN#", "overall_avg", result.loads)
    if "DCTCP-RED-AVG" in result.schemes:
        ordered = sorted(result.loads)
        middle = ordered[len(ordered) // 2]
        numbers["red_avg_short_avg_at_mid_load"] = worst(
            "DCTCP-RED-AVG", "short_avg", [middle]
        )
        numbers["red_avg_large_avg_at_max_load"] = worst(
            "DCTCP-RED-AVG", "large_avg", ordered[-1:]
        )
    return numbers


def render(result: FctVsLoadResult) -> str:
    """Render the normalized FCT-vs-load table plus the headline gain."""
    figure_name = _figure_name(result.workload_name).replace("fig", "Figure ")
    rows: List[List[str]] = []
    for load in result.loads:
        for scheme in result.schemes:
            norm = result.normalized(load, scheme)
            rows.append(
                [
                    f"{load:.0%}",
                    scheme,
                    fmt_ratio(norm.overall_avg),
                    fmt_ratio(norm.short_avg),
                    fmt_ratio(norm.short_p99),
                    fmt_ratio(norm.large_avg),
                ]
            )
    table = format_table(
        ["load", "scheme", "overall avg", "short avg", "short p99", "large avg"],
        rows,
        title=(
            f"{figure_name}: normalized FCT vs load "
            f"({result.workload_name}; 1.00 = DCTCP-RED-Tail)"
        ),
    )
    gain = result.best_short_avg_gain()
    suffix = (
        f"\nECN# best short-flow avg gain vs RED-Tail: {gain:.1%}"
        if gain is not None
        else ""
    )
    return table + suffix
