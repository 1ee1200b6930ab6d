"""Figure 12: ECN# parameter sensitivity.

Panel (a): pst_interval swept 100-250 us (rule of thumb: ~the tail RTT).
Panel (b): pst_target swept 6-18 us (rule of thumb: >= lambda x average RTT,
conservatively small).  The paper's claim: overall average FCT moves by
< ~1% across the whole grid, i.e. ECN# does not need careful tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...sim.units import us
from ...workloads.datamining import DATA_MINING
from ...workloads.websearch import WEB_SEARCH
from ..report import fmt_opt, fmt_ratio, format_table
from ..specs import AqmSpec, Cell, RunSpec

__all__ = [
    "Fig12Result",
    "cells",
    "assemble",
    "derived",
    "render",
]

DEFAULT_INTERVALS_US: Tuple[float, ...] = (100.0, 150.0, 200.0, 250.0)
DEFAULT_TARGETS_US: Tuple[float, ...] = (6.0, 10.0, 14.0, 18.0)


@dataclass
class Fig12Result:
    """Overall-average FCT per parameter setting, per workload panel."""

    intervals_us: Tuple[float, ...]
    targets_us: Tuple[float, ...]
    interval_fct: Dict[str, Dict[float, Optional[float]]]
    target_fct: Dict[str, Dict[float, Optional[float]]]

    def interval_spread(self, workload: str) -> Optional[float]:
        """(max - min) / min of overall FCT across the interval sweep."""
        return _spread(self.interval_fct[workload].values())

    def target_spread(self, workload: str) -> Optional[float]:
        return _spread(self.target_fct[workload].values())


def _spread(values) -> Optional[float]:
    """(max - min) / min over the non-missing values (0.0 is legitimate)."""
    present = [v for v in values if v is not None]
    if not present or min(present) == 0:
        return None
    return (max(present) - min(present)) / min(present)


def cells(
    load: float = 0.5,
    n_flows_web: int = 120,
    n_flows_mining: int = 50,
    seed: int = 71,
    intervals_us: Tuple[float, ...] = DEFAULT_INTERVALS_US,
    targets_us: Tuple[float, ...] = DEFAULT_TARGETS_US,
    n_seeds: int = 2,
) -> Dict[Tuple[str, str, float], Cell]:
    """Both sweep panels on both workloads, one cell per
    ``(workload, panel, value in us)`` coordinate."""
    panels = (
        # Panel (a): testbed-style parameters (70-210 us band), interval sweep.
        ("interval", "pst_interval", intervals_us,
         {"ins_target": us(200), "pst_target": us(85)}, us(70)),
        # Panel (b): simulation-style parameters (80-240 us band), target sweep.
        ("target", "pst_target", targets_us,
         {"ins_target": us(220), "pst_interval": us(240)}, us(80)),
    )
    grid: Dict[Tuple[str, str, float], Cell] = {}
    for workload, n_flows in (
        (WEB_SEARCH, n_flows_web), (DATA_MINING, n_flows_mining)
    ):
        for panel, param, values, fixed, rtt_min in panels:
            for value in values:
                spec = RunSpec.star(
                    AqmSpec.make("ecn-sharp", **fixed, **{param: us(value)}),
                    workload=workload.name,
                    load=load,
                    n_flows=n_flows,
                    seed=seed,
                    label=f"ECN# {param}={value:g}us",
                    variation=3.0,
                    rtt_min=rtt_min,
                )
                grid[(workload.name, panel, value)] = Cell.pooled(
                    "fig12", f"{workload.name}|{param}={value:g}us", spec, n_seeds
                )
    return grid


def assemble(
    cells: Dict[Tuple[str, str, float], Cell], runs: Sequence[Sequence[Any]]
) -> Fig12Result:
    """Pool each cell's seed runs into the per-panel overall-average maps."""
    workloads = dict.fromkeys(workload for workload, _, _ in cells)
    fct: Dict[str, Dict[str, Dict[float, Optional[float]]]] = {
        panel: {workload: {} for workload in workloads}
        for panel in ("interval", "target")
    }
    for ((workload, panel, value), cell), cell_runs in zip(cells.items(), runs):
        fct[panel][workload][value] = cell.pool(cell_runs).summary.overall_avg
    return Fig12Result(
        intervals_us=tuple(
            dict.fromkeys(v for _, panel, v in cells if panel == "interval")
        ),
        targets_us=tuple(
            dict.fromkeys(v for _, panel, v in cells if panel == "target")
        ),
        interval_fct=fct["interval"],
        target_fct=fct["target"],
    )


def derived(result: Fig12Result) -> Dict[str, float]:
    """Each workload's overall-FCT spread across either sweep, and the
    widest of them."""
    spreads = {}
    for workload in result.interval_fct:
        interval_spread = result.interval_spread(workload)
        if interval_spread is not None:
            spreads[f"interval_spread|{workload}"] = interval_spread
        target_spread = result.target_spread(workload)
        if target_spread is not None:
            spreads[f"target_spread|{workload}"] = target_spread
    if spreads:
        spreads["worst_spread"] = max(spreads.values())
    return spreads


def render(result: Fig12Result) -> str:
    """Render both sensitivity panels plus the spread summary.

    Each sweep is normalized to its own rule-of-thumb point -- the last
    interval, the second target (the only one in a one-value sweep)."""
    rows: List[List[str]] = []
    for param, sweep, values, reference in (
        ("pst_interval", result.interval_fct, result.intervals_us, -1),
        ("pst_target", result.target_fct, result.targets_us, 1),
    ):
        if not values:
            continue
        base_value = values[min(reference, len(values) - 1)]
        for workload, by_value in sweep.items():
            base = by_value[base_value]
            for value in values:
                fct = by_value[value]
                ratio = (fct / base) if (fct is not None and base) else None
                rows.append([workload, f"{param}={value:.0f}us", fmt_ratio(ratio)])
    table = format_table(
        ["workload", "setting", "overall FCT (normalized)"],
        rows,
        title="Figure 12: parameter sensitivity (all ratios should stay ~1.00)",
    )
    spreads = ", ".join(
        f"{workload} "
        f"interval spread={fmt_opt(result.interval_spread(workload), '.1%')} "
        f"target spread={fmt_opt(result.target_spread(workload), '.1%')}"
        for workload in result.interval_fct
    )
    return f"{table}\n{spreads}"
