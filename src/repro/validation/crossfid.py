"""Cross-fidelity gate: does the fluid fast model agree with the packet engine?

``repro validate crossfid`` runs a sampled subset of the validation grid at
*both* fidelities -- the discrete-event packet engine and the flow-level
fluid model of :mod:`repro.fluid` -- in one executor pass, then compares
them cell-by-cell with the same statistical machinery the baseline gate
uses (:func:`~repro.validation.stats.compare_samples`), under bands wide
enough for a model-class change but tight enough to catch a mis-calibrated
fluid equation.

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
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from ..experiments.executor import (
    Executor,
    cell_metrics,
    get_default_executor,
    run_grid,
)
from ..experiments.faults import RunFailure, is_failure
from ..experiments.report import format_failure_table, format_table, to_json
from ..experiments.specs import Cell
from ..sim.units import MSS
from ..telemetry.runtime import get_active
from .grids import (
    ValidationScale,
    assemble_figures,
    build_cells,
    cell_samples,
    resolve_scale,
)
from .invariants import InvariantVerdict, evaluate_figure, render_verdicts
from .stats import (
    FAIL,
    PASS,
    SKIP,
    WARN,
    CellComparison,
    ToleranceBand,
    compare_samples,
)

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
    n_pass: int
    n_warn: int
    n_fail: int
    n_skip: int

    @property
    def status(self) -> str:
        if self.n_fail:
            return FAIL
        if self.n_warn:
            return WARN
        return PASS

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "status": self.status,
            "pass": self.n_pass,
            "warn": self.n_warn,
            "fail": self.n_fail,
            "skip": self.n_skip,
        }


@dataclass
class CrossfidReport:
    """Everything one cross-fidelity gate run decided."""

    scale: str
    figures: Tuple[str, ...]
    comparisons: List[CellComparison] = field(default_factory=list)
    invariants: List[InvariantVerdict] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    packet_wall_seconds: Optional[float] = None
    fluid_wall_seconds: Optional[float] = None
    executor_line: str = ""

    @property
    def speedup(self) -> Optional[float]:
        """Aggregate packet/fluid wall-clock ratio over the sampled cells
        (from the run manifests; cache replays carry the original times)."""
        if not self.packet_wall_seconds or not self.fluid_wall_seconds:
            return None
        return self.packet_wall_seconds / self.fluid_wall_seconds

    @property
    def status(self) -> str:
        if self.failures:
            return FAIL
        statuses = [c.status for c in self.comparisons]
        statuses += [v.status for v in self.invariants]
        if FAIL in statuses:
            return FAIL
        if WARN in statuses:
            return WARN
        return PASS

    def counts(self) -> Dict[str, int]:
        counts = {PASS: 0, WARN: 0, FAIL: 0, SKIP: 0}
        for item in [*self.comparisons, *self.invariants]:
            counts[item.status] = counts.get(item.status, 0) + 1
        return counts

    def agreement(self) -> List[FigureAgreement]:
        per: Dict[str, Dict[str, int]] = {
            figure: {PASS: 0, WARN: 0, FAIL: 0, SKIP: 0}
            for figure in self.figures
        }
        for c in self.comparisons:
            per.setdefault(
                c.figure, {PASS: 0, WARN: 0, FAIL: 0, SKIP: 0}
            )[c.status] += 1
        return [
            FigureAgreement(
                figure=figure,
                n_pass=counts[PASS],
                n_warn=counts[WARN],
                n_fail=counts[FAIL],
                n_skip=counts[SKIP],
            )
            for figure, counts in per.items()
        ]

    def failed_names(self) -> List[str]:
        names = [
            f"{c.figure}:{c.cell}:{c.metric}"
            for c in self.comparisons
            if c.status == FAIL
        ]
        names += [v.name for v in self.invariants if v.status == FAIL]
        return names

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

    def to_json(self, path: Optional[str] = None) -> str:
        return to_json(self.to_dict(), path)

    def render_text(self) -> str:
        sections: List[str] = []
        interesting = [c for c in self.comparisons if c.status != PASS]
        rows = [
            [
                c.figure,
                c.cell,
                c.metric,
                c.status.upper(),
                f"{c.current_mean:.6g}" if c.current_mean is not None else "-",
                f"{c.baseline_mean:.6g}" if c.baseline_mean is not None else "-",
                f"{c.rel_err:.1%}" if c.rel_err is not None else "-",
            ]
            for c in interesting
        ]
        if rows:
            sections.append(
                format_table(
                    ["figure", "cell", "metric", "status", "fluid",
                     "packet", "rel err"],
                    rows,
                    title="Cross-fidelity comparisons (non-pass cells)",
                )
            )
        else:
            sections.append(
                f"Cross-fidelity comparisons: all {len(self.comparisons)} "
                "cell-metrics pass"
            )
        agreement_rows = [
            [
                a.figure,
                a.status.upper(),
                str(a.n_pass),
                str(a.n_warn),
                str(a.n_fail),
                str(a.n_skip),
            ]
            for a in self.agreement()
        ]
        sections.append(
            format_table(
                ["figure", "status", "pass", "warn", "fail", "skip"],
                agreement_rows,
                title="Per-figure agreement",
            )
        )
        if self.invariants:
            sections.append(
                render_verdicts(
                    self.invariants, "Paper-trend invariants on fluid results"
                )
            )
        if self.failures:
            sections.append(format_failure_table(self.failures))
        if self.speedup is not None:
            sections.append(
                f"Wall clock: packet {self.packet_wall_seconds:.2f}s vs "
                f"fluid {self.fluid_wall_seconds:.2f}s "
                f"({self.speedup:.0f}x speedup on the sampled cells)"
            )
        counts = self.counts()
        sections.append(
            f"Crossfid [{self.scale}]: {self.status.upper()} "
            f"(pass={counts[PASS]} warn={counts[WARN]} fail={counts[FAIL]} "
            f"skip={counts[SKIP]}; run_failures={len(self.failures)}; "
            f"{self.executor_line})"
        )
        return "\n\n".join(sections)


def _emit_verdicts(report: CrossfidReport) -> None:
    telemetry = get_active()
    if telemetry is None:
        return
    for c in report.comparisons:
        telemetry.on_validation_verdict(
            "crossfid",
            f"{c.figure}:{c.cell}:{c.metric}",
            c.status,
            figure=c.figure,
            detail=c.detail,
        )
    for v in report.invariants:
        telemetry.on_validation_verdict(
            "crossfid_invariant",
            v.name,
            v.status,
            figure=v.figure,
            detail=v.detail,
        )


# ------------------------------------------------------------------ gate


def run_crossfid(
    scale: Union[str, ValidationScale],
    executor: Optional[Executor] = None,
    seed: int = 0,
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
                    seed=seed,
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
    _emit_verdicts(report)
    return report
