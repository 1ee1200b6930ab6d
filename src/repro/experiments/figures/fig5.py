"""Figure 5: flow-size distributions of the two production workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...workloads.datamining import DATA_MINING
from ...workloads.distributions import EmpiricalCdf
from ...workloads.websearch import WEB_SEARCH
from ..report import format_table

__all__ = ["Fig5Result", "run_fig5", "derived", "render", "summarize"]

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


def summarize(result: Fig5Result) -> Dict[str, Dict[str, float]]:
    """Each workload's mean and probe points (the ``cells`` of
    ``--results-out``)."""
    cells = {}
    for name in result.means:
        metrics = {"mean_bytes": float(result.means[name])}
        for size, probability in result.cdf_at_probe[name].items():
            metrics[f"cdf_at_{size}"] = float(probability)
        cells[f"workload={name}"] = metrics
    return cells


def derived(result: Fig5Result) -> Dict[str, float]:
    """The shape both published curves share (mostly small flows, a tail
    past 10 MB), what sets data mining apart, and a count of the ways a
    curve fails to be a CDF (a decreasing step, a bad endpoint)."""
    web = result.cdf_at_probe["web-search"]
    mining = result.cdf_at_probe["data-mining"]
    violations = 0
    for _, probs in result.curves.values():
        violations += sum(later < earlier for earlier, later in zip(probs, probs[1:]))
        violations += (probs[0] < 0.0) + (probs[-1] != 1.0)
    return {
        "min_share_under_100KB": min(web[100_000], mining[100_000]),
        "min_share_over_10MB": 1.0 - max(web[10_000_000], mining[10_000_000]),
        "tiny_flow_share_gap": mining[1_000] - web[1_000],
        "mean_ratio_mining_over_web": (
            result.means["data-mining"] / result.means["web-search"]
        ),
        "cdf_violations": float(violations),
    }


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
