"""Figure 9: large-scale leaf-spine simulations (web search workload).

Any-to-any Poisson traffic over an ECMP leaf-spine fabric with 3x RTT
variation (80-240 us); ECN# vs DCTCP-RED-Tail (plus optional extra schemes)
normalized to RED-Tail.  Paper shape: ECN# cuts short-flow average FCT by
18.5-36.9% and overall average by 26-37% across loads.

The paper's fabric is 8 spines x 8 leaves x 16 hosts; the default here is a
reduced 4x4x4 fabric (documented substitution -- pure-Python DES), same
oversubscription ratio of 1:1 at the leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...sim.units import us
from ...workloads.websearch import WEB_SEARCH
from ..fct import FctSummary
from ..report import fmt_ratio, format_table
from ..schemes import simulation_scheme_specs
from ..specs import Cell, RunSpec

__all__ = ["Fig9Result", "cells", "assemble", "derived", "render"]

BASELINE = "DCTCP-RED-Tail"


@dataclass
class Fig9Result:
    """summaries[load][scheme] over the leaf-spine fabric."""

    loads: Tuple[float, ...]
    schemes: Tuple[str, ...]
    dims: Tuple[int, int, int]
    summaries: Dict[float, Dict[str, FctSummary]]

    def nfct(self, load: float, scheme: str, field: str) -> Optional[float]:
        mine = getattr(self.summaries[load][scheme], field)
        base = getattr(self.summaries[load][BASELINE], field)
        if mine is None or base is None or base == 0:
            return None
        return mine / base


def cells(
    loads: Tuple[float, ...] = (0.3, 0.5),
    n_flows: int = 150,
    seed: int = 41,
    dims: Tuple[int, int, int] = (4, 4, 4),
    scheme_names: Tuple[str, ...] = ("DCTCP-RED-Tail", "ECN#"),
    n_seeds: int = 2,
) -> Dict[Tuple[float, str], Cell]:
    """The (load x scheme x seed) grid over the leaf-spine fabric, one cell
    per ``(load, scheme)`` coordinate."""
    scheme_specs = simulation_scheme_specs()
    return {
        (load, name): Cell.pooled(
            "fig9",
            f"load={load:g}|scheme={name}",
            RunSpec.leafspine(
                scheme_specs[name],
                workload=WEB_SEARCH.name,
                load=load,
                n_flows=n_flows,
                seed=seed,
                label=name,
                variation=3.0,
                rtt_min=us(80),
                dims=dims,
            ),
            n_seeds,
        )
        for load in loads
        for name in scheme_names
    }


def assemble(
    cells: Dict[Tuple[float, str], Cell], runs: Sequence[Sequence[Any]]
) -> Fig9Result:
    """Pool each cell's seed runs into ``summaries[load][scheme]``."""
    summaries: Dict[float, Dict[str, FctSummary]] = {}
    for ((load, name), cell), cell_runs in zip(cells.items(), runs):
        summaries.setdefault(load, {})[name] = cell.pool(cell_runs).summary
    return Fig9Result(
        loads=tuple(summaries),
        schemes=tuple(dict.fromkeys(name for _, name in cells)),
        dims=dict(next(iter(cells.values())).specs[0].extras)["dims"],
        summaries=summaries,
    )


def derived(result: Fig9Result) -> Dict[str, float]:
    """Each non-baseline scheme's overall-average NFCT at each load, and the
    ends of ECN#'s short- and overall-average NFCT over the loads."""
    numbers = {}
    for load in result.loads:
        for scheme in result.schemes:
            if scheme == BASELINE:
                continue
            nfct = result.nfct(load, scheme, "overall_avg")
            if nfct is not None:
                numbers[f"nfct_overall|load={load:g}|scheme={scheme}"] = nfct
    if "ECN#" in result.schemes:
        for field in ("short_avg", "overall_avg"):
            nfcts = [result.nfct(load, "ECN#", field) for load in result.loads]
            nfcts = [nfct for nfct in nfcts if nfct is not None]
            if nfcts:
                numbers[f"best_{field}_nfct"] = min(nfcts)
                numbers[f"worst_{field}_nfct"] = max(nfcts)
    return numbers


def render(result: Fig9Result) -> str:
    """Render the leaf-spine normalized-FCT table."""
    rows: List[List[str]] = []
    for load in result.loads:
        for scheme in result.schemes:
            rows.append(
                [
                    f"{load:.0%}",
                    scheme,
                    fmt_ratio(result.nfct(load, scheme, "overall_avg")),
                    fmt_ratio(result.nfct(load, scheme, "short_avg")),
                ]
            )
    spines, leaves, hosts = result.dims
    return format_table(
        ["load", "scheme", "overall avg", "short avg"],
        rows,
        title=(
            f"Figure 9: leaf-spine ({spines}x{leaves}x{hosts} hosts/leaf) "
            "normalized FCT, web search (1.00 = DCTCP-RED-Tail)"
        ),
    )
