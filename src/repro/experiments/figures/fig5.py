"""Figure 5: flow-size distributions of the two production workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...workloads.datamining import DATA_MINING
from ...workloads.distributions import EmpiricalCdf
from ...workloads.websearch import WEB_SEARCH
from ..report import format_table

__all__ = ["Fig5Result", "run_fig5", "render", "summarize_for_validation"]

PROBE_SIZES: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000)


@dataclass
class Fig5Result:
    """CDF curves and summary stats per workload."""

    curves: Dict[str, Tuple[List[float], List[float]]]
    means: Dict[str, float]
    cdf_at_probe: Dict[str, Dict[int, float]]


def run_fig5(seed: int = 0) -> Fig5Result:
    """Evaluate both workload CDFs (curves, means, probe points).  The CDFs
    are deterministic; ``seed`` is accepted (and unused) so every figure's
    ``run`` takes one."""
    workloads: Dict[str, EmpiricalCdf] = {
        "web-search": WEB_SEARCH,
        "data-mining": DATA_MINING,
    }
    curves = {name: wl.curve() for name, wl in workloads.items()}
    means = {name: wl.mean() for name, wl in workloads.items()}
    probes = {
        name: {size: wl.cdf_at(size) for size in PROBE_SIZES}
        for name, wl in workloads.items()
    }
    return Fig5Result(curves=curves, means=means, cdf_at_probe=probes)


def summarize_for_validation(result: Fig5Result) -> dict:
    """Machine-readable grid summary (validation + ``--results-out``)."""
    cells = {}
    for name in result.means:
        metrics = {"mean_bytes": float(result.means[name])}
        for size, probability in result.cdf_at_probe[name].items():
            metrics[f"cdf_at_{size}"] = float(probability)
        cells[f"workload={name}"] = metrics
    return {"figure": "fig5", "params": {}, "cells": cells, "derived": {}}


def render(result: Fig5Result) -> str:
    """Render the CDF probe table plus per-workload means."""
    rows: List[List[str]] = []
    for size in PROBE_SIZES:
        rows.append(
            [
                f"{size:,}B",
                f"{result.cdf_at_probe['web-search'][size]:.2f}",
                f"{result.cdf_at_probe['data-mining'][size]:.2f}",
            ]
        )
    table = format_table(
        ["flow size", "web-search CDF", "data-mining CDF"],
        rows,
        title="Figure 5: flow-size CDFs (both heavy-tailed)",
    )
    means = ", ".join(
        f"{name} mean={value / 1e6:.2f}MB" for name, value in result.means.items()
    )
    return f"{table}\n{means}"
