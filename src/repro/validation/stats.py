"""Seed-pooled pass/warn/fail verdicts for the validation gates.

A validation run compares the current per-seed metric samples of every grid
cell against its golden baseline samples.  Exact-float equality would make
the gate useless across legitimate code evolution (event-ordering tweaks,
numeric refactors), so each cell gets a pass/warn/fail verdict from two
ingredients, which are the gate's teeth:

* **relative-tolerance bands** -- small drifts pass, a moderate band warns,
  and only a shift past the fail band can fail;
* **seed ranges** -- a shift past the fail band fails when the two sides'
  per-seed ranges are disjoint or either side has a single sample, and
  warns when both sides have two or more samples whose ranges overlap.

No significance test takes part: the gates pool at most two seeds a cell,
and at that size neither Welch's t nor Mann-Whitney U can reject once the
ranges overlap.  :func:`bootstrap_ci` stays for the workload-fidelity tests,
where a cell holds hundreds of flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.stats_util import mean_or_none

__all__ = [
    "PASS",
    "WARN",
    "FAIL",
    "SKIP",
    "BootstrapCi",
    "bootstrap_ci",
    "ToleranceBand",
    "DEFAULT_BAND",
    "COUNT_BAND",
    "QUEUE_BAND",
    "CellComparison",
    "compare_samples",
]

PASS = "pass"
WARN = "warn"
FAIL = "fail"
SKIP = "skip"

_EPS = 1e-12


# ------------------------------------------------------------- bootstrap


@dataclass(frozen=True)
class BootstrapCi:
    """A percentile-bootstrap confidence interval for one statistic."""

    low: float
    high: float
    confidence: float
    n_resamples: int

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
    statistic: Optional[Callable[[np.ndarray], float]] = None,
) -> BootstrapCi:
    """Percentile bootstrap CI of ``statistic`` (default: the mean).

    Deterministic for a given ``seed``.  A single-element sample yields the
    degenerate interval ``[v, v]`` (zero resamples) rather than an error.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("bootstrap of an empty sample is undefined")
    stat = statistic if statistic is not None else (lambda a: float(np.mean(a)))
    if data.size == 1:
        value = float(stat(data))
        return BootstrapCi(value, value, confidence, 0)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, data.size, size=(n_resamples, data.size))
    estimates = np.fromiter(
        (stat(data[row]) for row in indices), dtype=float, count=n_resamples
    )
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return BootstrapCi(float(low), float(high), confidence, n_resamples)


# -------------------------------------------------------- verdict machinery


@dataclass(frozen=True)
class ToleranceBand:
    """Pass/warn/fail thresholds for one metric comparison.

    ``abs_warn`` is an absolute-difference floor below which the comparison
    always passes -- essential for count-like metrics (drops, timeouts)
    whose baselines are legitimately zero.
    """

    rel_warn: float = 0.05
    rel_fail: float = 0.15
    abs_warn: float = 0.0


DEFAULT_BAND = ToleranceBand()
"""FCT-style continuous metrics: 5% free drift, 15% before a potential fail."""

COUNT_BAND = ToleranceBand(rel_warn=0.25, rel_fail=0.75, abs_warn=2.0)
"""Small-integer event counts (drops, timeouts): +-2 events always pass."""

QUEUE_BAND = ToleranceBand(rel_warn=0.10, rel_fail=0.30, abs_warn=3.0)
"""Queue-occupancy averages (packets): sawtooth phase makes them noisier
than FCT means, and a 3-packet absolute drift on a ~10 pkt floor is noise."""


@dataclass(frozen=True)
class CellComparison:
    """One (cell, metric) baseline-vs-current verdict with its evidence."""

    figure: str
    cell: str
    metric: str
    status: str
    current_mean: Optional[float]
    baseline_mean: Optional[float]
    rel_err: Optional[float]
    n_current: int
    n_baseline: int
    detail: str

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "cell": self.cell,
            "metric": self.metric,
            "status": self.status,
            "current_mean": self.current_mean,
            "baseline_mean": self.baseline_mean,
            "rel_err": self.rel_err,
            "n_current": self.n_current,
            "n_baseline": self.n_baseline,
            "detail": self.detail,
        }


def compare_samples(
    figure: str,
    cell: str,
    metric: str,
    current: Sequence[Optional[float]],
    baseline: Sequence[Optional[float]],
    band: ToleranceBand = DEFAULT_BAND,
) -> CellComparison:
    """Compare one cell metric's current seed samples to its baseline.

    Verdict ladder: inside ``rel_warn`` (or within ``abs_warn``
    absolutely) -> pass; inside ``rel_fail`` -> warn; beyond ``rel_fail``
    -> fail, *unless* both sides have >= 2 samples whose ranges overlap
    (then the shift is plausibly seed noise and the verdict is warn).

    Up to two samples a side -- all any validation scale pools, since
    ``SCALES`` uses the figures' two seeds -- this is the verdict the
    earlier Welch / Mann-Whitney rule gave on every input.  At three a side
    it differs only where the ranges touch or barely overlap: e.g.
    ``(0, 0, 1)`` vs ``(1, 2, 2)`` (Welch p = 0.047) used to fail and now
    warns.
    """
    cur: List[float] = [float(v) for v in current if v is not None]
    base: List[float] = [float(v) for v in baseline if v is not None]
    if not cur or not base:
        side = "current" if not cur else "baseline"
        return CellComparison(
            figure, cell, metric, SKIP, mean_or_none(cur), mean_or_none(base),
            None, len(cur), len(base), f"no {side} samples",
        )
    mean_cur = float(mean_or_none(cur))
    mean_base = float(mean_or_none(base))
    abs_err = abs(mean_cur - mean_base)
    if mean_base == 0.0:
        rel_err = 0.0 if abs_err <= _EPS else math.inf
    else:
        rel_err = abs_err / abs(mean_base)

    if abs_err <= band.abs_warn or rel_err <= band.rel_warn:
        status = PASS
        detail = f"rel_err={_fmt_rel(rel_err)} within {band.rel_warn:.0%}"
    elif rel_err <= band.rel_fail:
        status = WARN
        detail = (
            f"rel_err={_fmt_rel(rel_err)} in warn band "
            f"({band.rel_warn:.0%}..{band.rel_fail:.0%})"
        )
    else:
        if min(cur) > max(base) or max(cur) < min(base):
            status, evidence = FAIL, "; sample ranges are disjoint"
        elif len(cur) < 2 or len(base) < 2:
            status, evidence = FAIL, "; one side has a single sample"
        else:
            status, evidence = WARN, " but sample ranges overlap"
        detail = f"rel_err={_fmt_rel(rel_err)} > {band.rel_fail:.0%}{evidence}"
    return CellComparison(
        figure, cell, metric, status, mean_cur, mean_base, rel_err,
        len(cur), len(base), detail,
    )


def _fmt_rel(rel_err: float) -> str:
    return "inf" if math.isinf(rel_err) else f"{rel_err:.1%}"
