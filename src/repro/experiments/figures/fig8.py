"""Figure 8: ECN# vs DCTCP-RED-Tail as RTT variation grows (3x/4x/5x).

Plots NFCT = FCT(ECN#)/FCT(RED-Tail) for each variation: overall average
stays near 1.0 (within ~8%) while short-flow 99p drops further as variation
grows (paper: -37% at 3x, -71% at 4x, -73% at 5x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...sim.units import us
from ...workloads.websearch import WEB_SEARCH
from ..fct import FctSummary
from ..report import fmt_ratio, format_table
from ..schemes import testbed_scheme_specs
from ..specs import Cell, RunSpec

__all__ = [
    "Fig8Result",
    "cells",
    "assemble",
    "derived",
    "render",
    "DEFAULT_VARIATIONS",
]

DEFAULT_VARIATIONS: Tuple[float, ...] = (3.0, 4.0, 5.0)
SCHEMES: Tuple[str, ...] = ("DCTCP-RED-Tail", "ECN#")


@dataclass
class Fig8Result:
    """summaries[variation][load][scheme] for ECN# and RED-Tail."""

    variations: Tuple[float, ...]
    loads: Tuple[float, ...]
    summaries: Dict[float, Dict[float, Dict[str, FctSummary]]]

    def nfct(
        self, variation: float, load: float, field: str
    ) -> Optional[float]:
        mine = getattr(self.summaries[variation][load]["ECN#"], field)
        base = getattr(self.summaries[variation][load]["DCTCP-RED-Tail"], field)
        if mine is None or base is None or base == 0:
            return None
        return mine / base


def cells(
    variations: Tuple[float, ...] = DEFAULT_VARIATIONS,
    loads: Tuple[float, ...] = (0.5, 0.8),
    n_flows: int = 150,
    seed: int = 31,
    rtt_min: float = us(70),
    n_seeds: int = 2,
) -> Dict[Tuple[float, float, str], Cell]:
    """The (variation x load x scheme x seed) grid, one cell per
    ``(variation, load, scheme)`` coordinate."""
    schemes = testbed_scheme_specs()
    return {
        (variation, load, name): Cell.pooled(
            "fig8",
            f"variation={variation:g}|load={load:g}|scheme={name}",
            RunSpec.star(
                schemes[name],
                workload=WEB_SEARCH.name,
                load=load,
                n_flows=n_flows,
                seed=seed,
                label=name,
                variation=variation,
                rtt_min=rtt_min,
            ),
            n_seeds,
        )
        for variation in variations
        for load in loads
        for name in SCHEMES
    }


def assemble(
    cells: Dict[Tuple[float, float, str], Cell],
    runs: Sequence[Sequence[Any]],
) -> Fig8Result:
    """Pool each cell's seed runs into ``summaries[variation][load][scheme]``."""
    summaries: Dict[float, Dict[float, Dict[str, FctSummary]]] = {}
    for ((variation, load, name), cell), cell_runs in zip(cells.items(), runs):
        summaries.setdefault(variation, {}).setdefault(load, {})[name] = (
            cell.pool(cell_runs).summary
        )
    return Fig8Result(
        variations=tuple(summaries),
        loads=tuple(dict.fromkeys(load for _, load, _ in cells)),
        summaries=summaries,
    )


def derived(result: Fig8Result) -> Dict[str, float]:
    """ECN#'s short-flow p99 reduction vs RED-Tail at each sweep point, its
    mean over the loads at the smallest and the largest variation, and the
    worst overall-average NFCT anywhere in the sweep."""
    numbers = {}
    gains: Dict[float, List[float]] = {}
    overall = []
    for variation in result.variations:
        for load in result.loads:
            nfct = result.nfct(variation, load, "short_p99")
            if nfct is not None:
                numbers[
                    f"short_p99_gain|variation={variation:g}|load={load:g}"
                ] = 1.0 - nfct
                gains.setdefault(variation, []).append(1.0 - nfct)
            nfct = result.nfct(variation, load, "overall_avg")
            if nfct is not None:
                overall.append(nfct)
    for end, pick in (("min", min), ("max", max)):
        at_end = gains.get(pick(result.variations))
        if at_end:
            numbers[f"mean_short_p99_gain_at_{end}_variation"] = sum(at_end) / len(at_end)
    if overall:
        numbers["worst_overall_avg_nfct"] = max(overall)
    return numbers


def render(result: Fig8Result) -> str:
    """Render the NFCT-vs-variation table."""
    rows: List[List[str]] = []
    for variation in result.variations:
        for load in result.loads:
            rows.append(
                [
                    f"{variation:.0f}x",
                    f"{load:.0%}",
                    fmt_ratio(result.nfct(variation, load, "overall_avg")),
                    fmt_ratio(result.nfct(variation, load, "short_p99")),
                ]
            )
    return format_table(
        ["variation", "load", "NFCT overall avg", "NFCT short p99"],
        rows,
        title=(
            "Figure 8: ECN# normalized to DCTCP-RED-Tail under larger RTT "
            "variations (web search; short p99 should fall as variation grows)"
        ),
    )
