"""Fidelity gates: baseline capture and the pass/warn/fail verdict run.

``capture_baselines`` executes the validation grid and snapshots its
per-seed metric samples into a checked-in JSON baseline.  ``run_gate``
re-executes the *same* grid (pure cache hits when nothing changed),
compares cell-by-cell against the baseline with the tolerance bands and
seed ranges of :mod:`.stats`, and evaluates the paper-trend invariants in
:mod:`.invariants`.

Every verdict is mirrored into telemetry
(``validation_verdicts_total{kind,status}`` plus ``validation`` trace
events) when a telemetry hub is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..experiments.executor import Executor, get_default_executor
from ..experiments.faults import RunFailure
from ..experiments.report import format_failure_table, format_table, to_json
from ..telemetry.runtime import get_active
from .baselines import (
    Baseline,
    BaselineManifest,
    ensure_clean_tree,
)
from .grids import GridOutcome, ValidationScale, resolve_scale, run_validation_grid
from .invariants import InvariantVerdict, evaluate_figure, render_verdicts
from .stats import (
    COUNT_BAND,
    DEFAULT_BAND,
    FAIL,
    PASS,
    QUEUE_BAND,
    SKIP,
    WARN,
    CellComparison,
    ToleranceBand,
    compare_samples,
)

__all__ = [
    "band_for",
    "GateReport",
    "ValidationReport",
    "capture_baselines",
    "run_gate",
    "default_baseline_path",
]

COUNT_METRICS = ("drops", "query_timeouts")
QUEUE_METRIC_SUFFIX = "_pkts"


def band_for(metric: str) -> ToleranceBand:
    """Tolerance band by metric family: event counts are noisy and small,
    queue depths moderately so, FCT statistics tightest."""
    if metric in COUNT_METRICS:
        return COUNT_BAND
    if metric.endswith(QUEUE_METRIC_SUFFIX):
        return QUEUE_BAND
    return DEFAULT_BAND


def default_baseline_path(baseline_dir: Union[str, Path], scale_name: str) -> Path:
    return Path(baseline_dir) / f"{scale_name}.json"


# -------------------------------------------------------------- reporting


def count_statuses(items: Sequence) -> Dict[str, int]:
    """Verdicts per status, zero-filled for the four standard ones."""
    counts = {PASS: 0, WARN: 0, FAIL: 0, SKIP: 0}
    for item in items:
        counts[item.status] = counts.get(item.status, 0) + 1
    return counts


def worst_status(counts: Dict[str, int]) -> str:
    """FAIL if anything failed, else WARN if anything warned, else PASS."""
    if counts[FAIL]:
        return FAIL
    if counts[WARN]:
        return WARN
    return PASS


@dataclass
class GateReport:
    """The verdict rollup both gates share: per-cell comparisons, claim
    verdicts and run failures, with their status, counts and text.

    Subclasses name their telemetry ``kind`` labels in ``verdict_kinds``:
    one for the comparisons, one for the claims.
    """

    scale: str
    comparisons: List[CellComparison] = field(default_factory=list)
    invariants: List[InvariantVerdict] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    executor_line: str = ""

    @property
    def status(self) -> str:
        if self.failures:
            return FAIL  # cells that did not run cannot confirm fidelity
        return worst_status(self.counts())

    def counts(self) -> Dict[str, int]:
        return count_statuses([*self.comparisons, *self.invariants])

    def failed_names(self) -> List[str]:
        names = [
            f"{c.figure}:{c.cell}:{c.metric}"
            for c in self.comparisons
            if c.status == FAIL
        ]
        names += [v.name for v in self.invariants if v.status == FAIL]
        return names

    def to_json(self, path: Optional[str] = None) -> str:
        return to_json(self.to_dict(), path)

    def comparison_text(self, title: str, current: str, baseline: str) -> str:
        """The non-pass comparisons as a table, or one line if all pass."""
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
            for c in self.comparisons
            if c.status != PASS
        ]
        if not rows:
            return f"{title}: all {len(self.comparisons)} cell-metrics pass"
        return format_table(
            ["figure", "cell", "metric", "status", current, baseline, "rel err"],
            rows,
            title=f"{title} (non-pass cells)",
        )

    def verdict_sections(self, invariants_title: str) -> List[str]:
        """The claims table and the run-failure table, each if non-empty."""
        sections: List[str] = []
        if self.invariants:
            sections.append(render_verdicts(self.invariants, invariants_title))
        if self.failures:
            sections.append(format_failure_table(self.failures))
        return sections

    def summary_line(self, gate: str) -> str:
        counts = self.counts()
        return (
            f"{gate} [{self.scale}]: {self.status.upper()} "
            f"(pass={counts[PASS]} warn={counts[WARN]} fail={counts[FAIL]} "
            f"skip={counts[SKIP]}; run_failures={len(self.failures)}; "
            f"{self.executor_line})"
        )

    def emit_verdicts(self) -> None:
        """Mirror every verdict into the active telemetry hub, if any."""
        telemetry = get_active()
        if telemetry is None:
            return
        comparison_kind, invariant_kind = self.verdict_kinds
        for c in self.comparisons:
            telemetry.on_validation_verdict(
                comparison_kind,
                f"{c.figure}:{c.cell}:{c.metric}",
                c.status,
                figure=c.figure,
                detail=c.detail,
            )
        for v in self.invariants:
            telemetry.on_validation_verdict(
                invariant_kind,
                v.name,
                v.status,
                figure=v.figure,
                detail=v.detail,
            )


@dataclass
class ValidationReport(GateReport):
    """Everything one baseline gate run decided, renderable as JSON or text."""

    verdict_kinds = ("baseline", "invariant")

    baseline_manifest: Optional[BaselineManifest] = None

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "status": self.status,
            "counts": self.counts(),
            "failed": self.failed_names(),
            "comparisons": [c.to_dict() for c in self.comparisons],
            "invariants": [v.to_dict() for v in self.invariants],
            "run_failures": len(self.failures),
            "executor": self.executor_line,
            "baseline_manifest": (
                None
                if self.baseline_manifest is None
                else self.baseline_manifest.to_dict()
            ),
        }

    def render_text(self) -> str:
        return "\n\n".join([
            self.comparison_text("Baseline comparisons", "current", "baseline"),
            *self.verdict_sections("Paper-trend invariants"),
            self.summary_line("Validation"),
        ])


# --------------------------------------------------------------- capture


def capture_baselines(
    scale: Union[str, ValidationScale],
    executor: Optional[Executor] = None,
    baseline_dir: Union[str, Path] = "baselines",
    force: bool = False,
) -> Tuple[Baseline, Path, GridOutcome]:
    """Run the validation grid and write ``baselines/<scale>.json``.

    Refuses to capture from a dirty working tree (unless ``force``) and
    from a grid with failed cells -- a golden baseline must be complete
    and reproducible.
    """
    scale = resolve_scale(scale)
    dirty = ensure_clean_tree(force=force)
    executor = executor or get_default_executor()
    outcome = run_validation_grid(scale, executor)
    if outcome.failures:
        tokens = ", ".join(f.spec_key for f in outcome.failures[:5])
        raise RuntimeError(
            f"refusing to capture a baseline from a grid with "
            f"{len(outcome.failures)} failed run(s): {tokens}"
        )
    figures: Dict[str, dict] = {}
    for figure in scale.figures:
        cells = {
            key: {
                "metrics": outcome.samples[figure][key],
                "tokens": outcome.tokens[figure][key],
            }
            for key in outcome.samples.get(figure, {})
        }
        figures[figure] = {
            "params": scale.figures[figure],
            "cells": cells,
        }
    baseline = Baseline(
        manifest=BaselineManifest.collect(scale.name, dirty=dirty),
        figures=figures,
    )
    path = default_baseline_path(baseline_dir, scale.name)
    baseline.save(path)
    return baseline, path, outcome


# ------------------------------------------------------------------ gate


def run_gate(
    scale: Union[str, ValidationScale],
    executor: Optional[Executor] = None,
    baseline_path: Optional[Union[str, Path]] = None,
    baseline_dir: Union[str, Path] = "baselines",
) -> ValidationReport:
    """Execute the grid and evaluate every gate against the baseline.

    Raises :class:`FileNotFoundError` when the baseline file is missing and
    :class:`~.baselines.StaleBaselineError` when it no longer matches the
    current code or grid definition.
    """
    scale = resolve_scale(scale)
    path = (
        Path(baseline_path)
        if baseline_path is not None
        else default_baseline_path(baseline_dir, scale.name)
    )
    if not path.exists():
        raise FileNotFoundError(
            f"baseline {path} not found; run 'repro validate capture "
            f"--scale {scale.name}' first"
        )
    baseline = Baseline.load(path)
    baseline.check_compatible()

    executor = executor or get_default_executor()
    outcome = run_validation_grid(scale, executor)

    comparisons: List[CellComparison] = []
    for figure in scale.figures:
        for cell_key, metrics in outcome.samples.get(figure, {}).items():
            baseline.check_tokens(
                figure, cell_key, outcome.tokens[figure][cell_key]
            )
            for metric, current in sorted(metrics.items()):
                reference = baseline.cell_samples(figure, cell_key, metric)
                comparisons.append(
                    compare_samples(
                        figure,
                        cell_key,
                        metric,
                        current,
                        reference or [],
                        band=band_for(metric),
                    )
                )

    invariants: List[InvariantVerdict] = []
    for figure in scale.figures:
        invariants.extend(
            evaluate_figure(figure, outcome.figure_results.get(figure))
        )

    report = ValidationReport(
        scale=scale.name,
        comparisons=comparisons,
        invariants=invariants,
        failures=outcome.failures,
        executor_line=executor.stats.merge_line(),
        baseline_manifest=baseline.manifest,
    )
    report.emit_verdicts()
    return report
