"""Cross-fidelity gate: does the fluid fast model agree with the packet engine?

``repro validate crossfid`` runs a sampled subset of the validation grid at
*both* fidelities -- the discrete-event packet engine and the flow-level
fluid model of :mod:`repro.fluid` -- in one executor pass, then compares
them cell-by-cell with the verdict ladder the baseline gate uses
(:func:`~repro.validation.stats.compare_samples`: tolerance bands plus
disjoint seed ranges), under bands wide enough for a model-class change but
tight enough to catch a mis-calibrated fluid equation.

The comparison is scoped to the fluid model's validity domain:

* **fig6** (star FCT-vs-load): FCT summary statistics plus the aggregate
  marking *fraction* (raw mark counts are scheme-shaped and incomparable
  across fidelities; the fraction of traffic marked is the quantity both
  models must agree on).
* **fig10** (microscopic queue): only the standing-queue and converged
  floor averages.  Sub-RTT transients -- burst peak height and incast
  drop counts -- are below the fluid step size by construction and are
  deliberately *not* gated (see DESIGN.md's validity-domain notes).

On top of the per-metric agreement, the fluid results are assembled into
the ordinary figure objects and re-checked against the paper-trend
invariants (:mod:`.invariants`): the fast model must reproduce the paper's
*qualitative* claims, not merely track the packet numbers.

The gate's contract mirrors ``repro validate run``: PASS/WARN exit 0 (warn
is expected -- the fluid model is an approximation), FAIL exits 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from ..experiments.executor import (
    Executor,
    cell_metrics,
    get_default_executor,
    run_grid,
)
from ..experiments.faults import RunFailure, is_failure
from ..experiments.report import format_table
from ..experiments.specs import Cell
from ..sim.units import MSS
from .gates import GateReport, count_statuses, worst_status
from .grids import (
    ValidationScale,
    assemble_figures,
    build_cells,
    cell_samples,
    resolve_scale,
)
from .invariants import InvariantVerdict, evaluate_figure
from .stats import CellComparison, ToleranceBand, compare_samples

__all__ = [
    "CROSSFID_FIGURES",
    "CROSSFID_FCT_BAND",
    "CROSSFID_MARK_BAND",
    "CROSSFID_QUEUE_BAND",
    "crossfid_band_for",
    "CrossfidReport",
    "run_crossfid",
]

CROSSFID_FIGURES: Tuple[str, ...] = ("fig6", "fig10")
"""Figures certified for cross-fidelity comparison.  fig11's collapse onset
and fig12's percent-level sensitivity spread both live below the fluid
model's resolution, so they are packet-only territory."""

MICRO_METRICS: Tuple[str, ...] = ("standing_queue_pkts", "floor_queue_pkts")
"""The only microscopic metrics inside the fluid validity domain."""

CROSSFID_FCT_BAND = ToleranceBand(rel_warn=0.25, rel_fail=0.75)
"""FCT statistics: the fluid model runs ~10-25% above packet (it cannot
recover the sub-RTT pipelining that lets short packet flows finish early),
so a quarter is free drift and only a 75%+ divergence fails."""

CROSSFID_MARK_BAND = ToleranceBand(rel_warn=0.5, rel_fail=1.5, abs_warn=0.05)
"""Marking fraction: analytic marking differs in *kind* from per-packet
marking; a 5-percentage-point absolute drift always passes so near-zero
fractions on lightly-marked schemes cannot explode the relative error."""

CROSSFID_QUEUE_BAND = ToleranceBand(rel_warn=0.35, rel_fail=1.5, abs_warn=30.0)
"""Queue averages: the fluid queue has no sawtooth, which systematically
shifts window averages; 30 packets absolute covers small-floor schemes."""


def crossfid_band_for(metric: str) -> ToleranceBand:
    if metric == "mark_fraction":
        return CROSSFID_MARK_BAND
    if metric.endswith("_pkts"):
        return CROSSFID_QUEUE_BAND
    return CROSSFID_FCT_BAND


def _crossfid_scale(scale: ValidationScale) -> ValidationScale:
    figures = {
        figure: params
        for figure, params in scale.figures.items()
        if figure in CROSSFID_FIGURES
    }
    if not figures:
        raise ValueError(
            f"scale {scale.name!r} has no cross-fidelity figure "
            f"(need one of {CROSSFID_FIGURES})"
        )
    return replace(scale, figures=figures)


# ------------------------------------------------------ metric extraction


def _crossfid_metrics(cell: Cell, run: Any) -> Optional[Dict[str, float]]:
    """One run's metrics inside the fluid validity domain: the two queue
    averages for microscopic cells; the FCT statistics plus the aggregate
    marking fraction for FCT cells."""
    metrics = cell_metrics(cell, run)
    if metrics is None:
        return None
    if cell.metric_source == "micro":
        return {
            name: metrics[name] for name in MICRO_METRICS if name in metrics
        }
    total_pkts = sum(
        math.ceil(record.size_bytes / MSS)
        for record in run.collector.records
    )
    metrics["mark_fraction"] = (
        run.marks / total_pkts if total_pkts > 0 else 0.0
    )
    return metrics


def _wall_seconds(run: Any) -> Optional[float]:
    if run is None or is_failure(run):
        return None
    manifest = getattr(run, "manifest", None)
    if manifest is None:
        return None
    wall = getattr(manifest, "wall_seconds", None)
    return float(wall) if wall is not None else None


# --------------------------------------------------------------- report


@dataclass(frozen=True)
class FigureAgreement:
    """Per-figure rollup of the cross-fidelity cell verdicts."""

    figure: str
    counts: Dict[str, int]

    @property
    def status(self) -> str:
        return worst_status(self.counts)

    def to_dict(self) -> dict:
        return {"figure": self.figure, "status": self.status, **self.counts}


@dataclass
class CrossfidReport(GateReport):
    """Everything one cross-fidelity gate run decided: the shared verdict
    rollup plus per-figure agreement and the packet/fluid wall clocks."""

    verdict_kinds = ("crossfid", "crossfid_invariant")

    figures: Tuple[str, ...] = ()
    packet_wall_seconds: Optional[float] = None
    fluid_wall_seconds: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        """Aggregate packet/fluid wall-clock ratio over the sampled cells
        (from the run manifests; cache replays carry the original times)."""
        if not self.packet_wall_seconds or not self.fluid_wall_seconds:
            return None
        return self.packet_wall_seconds / self.fluid_wall_seconds

    def agreement(self) -> List[FigureAgreement]:
        figures = dict.fromkeys(
            [*self.figures, *(c.figure for c in self.comparisons)]
        )
        return [
            FigureAgreement(
                figure,
                count_statuses(
                    [c for c in self.comparisons if c.figure == figure]
                ),
            )
            for figure in figures
        ]

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "figures": list(self.figures),
            "status": self.status,
            "counts": self.counts(),
            "failed": self.failed_names(),
            "agreement": [a.to_dict() for a in self.agreement()],
            "comparisons": [c.to_dict() for c in self.comparisons],
            "fluid_invariants": [v.to_dict() for v in self.invariants],
            "run_failures": len(self.failures),
            "packet_wall_seconds": self.packet_wall_seconds,
            "fluid_wall_seconds": self.fluid_wall_seconds,
            "speedup": self.speedup,
            "executor": self.executor_line,
        }

    def render_text(self) -> str:
        sections = [
            self.comparison_text("Cross-fidelity comparisons", "fluid", "packet")
        ]
        agreement_rows = [
            [a.figure, a.status.upper(), *(str(n) for n in a.counts.values())]
            for a in self.agreement()
        ]
        sections.append(
            format_table(
                ["figure", "status", "pass", "warn", "fail", "skip"],
                agreement_rows,
                title="Per-figure agreement",
            )
        )
        sections += self.verdict_sections(
            "Paper-trend invariants on fluid results"
        )
        if self.speedup is not None:
            sections.append(
                f"Wall clock: packet {self.packet_wall_seconds:.2f}s vs "
                f"fluid {self.fluid_wall_seconds:.2f}s "
                f"({self.speedup:.0f}x speedup on the sampled cells)"
            )
        sections.append(self.summary_line("Crossfid"))
        return "\n\n".join(sections)


# ------------------------------------------------------------------ gate


def run_crossfid(
    scale: Union[str, ValidationScale],
    executor: Optional[Executor] = None,
) -> CrossfidReport:
    """Run the cross-fidelity gate at ``scale``.

    Builds the scale's fig6/fig10 cells once, duplicates every spec at
    fluid fidelity via :meth:`RunSpec.with_fidelity`, executes packet and
    fluid specs in a *single* executor pass (shared cache, shared workers),
    and compares per-cell metric samples fluid-vs-packet.
    """
    scale = _crossfid_scale(resolve_scale(scale))
    executor = executor or get_default_executor()

    cells = build_cells(scale)
    fluid_cells = [cell.with_fidelity("fluid") for cell in cells]
    per_cell = run_grid(cells + fluid_cells, executor, pool=list)
    fluid_per_cell = per_cell[len(cells):]

    comparisons: List[CellComparison] = []
    failures: List[RunFailure] = []
    packet_wall = 0.0
    fluid_wall = 0.0
    for cell, packet_runs, fluid_runs in zip(cells, per_cell, fluid_per_cell):
        failures.extend(
            run
            for run in (*packet_runs, *fluid_runs)
            if isinstance(run, RunFailure)
        )
        packet_samples = cell_samples(cell, packet_runs, _crossfid_metrics)
        fluid_samples = cell_samples(cell, fluid_runs, _crossfid_metrics)
        for run in packet_runs:
            packet_wall += _wall_seconds(run) or 0.0
        for run in fluid_runs:
            fluid_wall += _wall_seconds(run) or 0.0
        for metric in sorted(set(packet_samples) & set(fluid_samples)):
            comparisons.append(
                compare_samples(
                    cell.group,
                    cell.key,
                    metric,
                    fluid_samples[metric],   # "current" = fluid
                    packet_samples[metric],  # "baseline" = packet truth
                    band=crossfid_band_for(metric),
                )
            )

    invariants: List[InvariantVerdict] = []
    for figure, result in assemble_figures(scale, fluid_per_cell).items():
        invariants.extend(evaluate_figure(figure, result))

    report = CrossfidReport(
        scale=scale.name,
        figures=tuple(scale.figures),
        comparisons=comparisons,
        invariants=invariants,
        failures=failures,
        packet_wall_seconds=packet_wall or None,
        fluid_wall_seconds=fluid_wall or None,
        executor_line=executor.stats.merge_line(),
    )
    report.emit_verdicts()
    return report
