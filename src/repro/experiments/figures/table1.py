"""Table 1 / Figure 1: RTT variations from processing components.

Regenerates the five-row RTT statistics table by sampling the calibrated
processing-delay components (~3000 samples per case, as in the paper's
ApacheBench methodology) and summarising mean / std / 90th / 99th
percentiles.  The headline claim to reproduce: the mean RTT of the loaded
SLB+hypervisor case is ~2.7x the bare-stack case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ...measurement.stats import RttSummary, summarize_rtts
from ...netem.components import TABLE1_CASES, sample_case_rtts
from ..report import format_table

__all__ = ["Table1Result", "run_table1", "derived", "render", "summarize"]

PAPER_ROWS: Dict[str, Dict[str, float]] = {
    "Networking Stack": {"mean": 39.3, "std": 12.2, "p90": 59.0, "p99": 79.0},
    "Networking Stack + SLB": {"mean": 63.9, "std": 18.3, "p90": 87.0, "p99": 121.0},
    "Networking Stack + Hypervisor": {
        "mean": 69.3,
        "std": 18.8,
        "p90": 91.0,
        "p99": 130.0,
    },
    "Networking Stack + SLB + Hypervisor": {
        "mean": 99.2,
        "std": 23.0,
        "p90": 129.0,
        "p99": 161.0,
    },
    "Networking Stack(high load) + SLB + Hypervisor": {
        "mean": 105.5,
        "std": 23.6,
        "p90": 138.0,
        "p99": 178.0,
    },
}
"""The published Table 1 numbers (microseconds), for side-by-side reporting."""


@dataclass
class Table1Result:
    """Per-case RTT summaries (seconds) in paper row order."""

    cases: Dict[str, RttSummary]

    @property
    def variation_ratio(self) -> float:
        """Mean RTT of the last case over the first (paper: ~2.68x)."""
        names = list(self.cases)
        return self.cases[names[-1]].mean / self.cases[names[0]].mean


def run_table1(seed: int = 1, n_samples: int = 3000) -> Table1Result:
    """Sample every Table 1 case and summarise."""
    rng = np.random.default_rng(seed)
    cases: Dict[str, RttSummary] = {}
    for name, components in TABLE1_CASES.items():
        samples = sample_case_rtts(components, rng, n_samples=n_samples)
        cases[name] = summarize_rtts(samples)
    return Table1Result(cases=cases)


def summarize(result: Table1Result) -> Dict[str, Dict[str, float]]:
    """Each case's four statistics in microseconds (the ``cells`` of
    ``--results-out``)."""
    cells = {}
    for name, summary in result.cases.items():
        micro = summary.as_microseconds()
        cells[f"case={name}"] = {
            "mean_us": micro.mean,
            "std_us": micro.std,
            "p90_us": micro.p90,
            "p99_us": micro.p99,
        }
    return cells


def derived(result: Table1Result) -> Dict[str, float]:
    """The headline ratio plus how the sampled rows sit against the
    published ones and against each other (no step with a single row)."""
    means_us = [summary.mean * 1e6 for summary in result.cases.values()]
    numbers = {
        "variation_ratio": result.variation_ratio,
        "min_p99_over_mean": min(
            summary.p99 / summary.mean for summary in result.cases.values()
        ),
        "worst_mean_error": max(
            abs(mean - PAPER_ROWS[name]["mean"]) / PAPER_ROWS[name]["mean"]
            for name, mean in zip(result.cases, means_us)
        ),
    }
    if len(means_us) > 1:
        numbers["smallest_mean_step_us"] = min(
            later - earlier for earlier, later in zip(means_us, means_us[1:])
        )
    return numbers


def render(result: Table1Result) -> str:
    """Measured-vs-paper table in Table 1's format (microseconds)."""
    rows: List[List[str]] = []
    for name, summary in result.cases.items():
        micro = summary.as_microseconds()
        paper = PAPER_ROWS.get(name, {})
        rows.append(
            [
                name,
                f"{micro.mean:.1f}",
                f"{micro.std:.1f}",
                f"{micro.p90:.1f}",
                f"{micro.p99:.1f}",
                f"{paper.get('mean', float('nan')):.1f}",
                f"{paper.get('p90', float('nan')):.1f}",
            ]
        )
    table = format_table(
        ["combination", "mean(us)", "std(us)", "p90(us)", "p99(us)", "paper mean", "paper p90"],
        rows,
        title="Table 1: RTT statistics by processing components",
    )
    return f"{table}\nmax/min mean ratio: {result.variation_ratio:.2f}x (paper: 2.68x)"
