"""Section 3.5 extension: ECN# with probabilistic marking for DCQCN.

The paper predicts that rate-based transports (DCQCN) need the
instantaneous component turned into a Kmin/Kmax probability ramp, while
Algorithm 1's persistent marking already behaves probabilistically and can
stay as is.  This runs that prediction: four concurrent DCQCN flows through
(a) cut-off ECN# and (b) probabilistic ECN#, comparing fairness (Jain's
index over delivered segments) and utilization.

Cut-off marking synchronises cuts -- every flow sees marks in the same
window -- so all rates dip together and the link idles between episodes;
the ramp decorrelates the cuts.  With symmetric flows the damage shows up
as lost *utilization* rather than unfairness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ...core import (
    EcnSharp,
    EcnSharpConfig,
    EcnSharpProbabilistic,
    ProbabilisticConfig,
)
from ...sim.packet import PacketFactory
from ...sim.units import gbps, mb, ms, us
from ...tcp.factory import open_dcqcn_flow
from ...topology.star import build_star
from ..report import format_table

__all__ = ["DcqcnResult", "run_dcqcn", "summarize", "derived", "render"]

N_FLOWS = 4
DURATION = ms(40)
MSS = 1460
CONFIG = EcnSharpConfig(us(220), us(10), us(240))


@dataclass
class DcqcnResult:
    """``variants[marking]`` -> ``jain`` / ``utilization`` / ``drops``."""

    variants: Dict[str, Dict[str, float]]


def _run_variant(aqm_factory: Callable) -> Dict[str, float]:
    topo = build_star(
        n_senders=N_FLOWS + 1, aqm_factory=aqm_factory, buffer_bytes=mb(4)
    )
    factory = PacketFactory()
    flows = [
        open_dcqcn_flow(
            topo.network, factory, topo.senders[i], topo.receiver,
            200_000_000, line_rate_bps=gbps(10),
        )
        for i in range(N_FLOWS)
    ]
    topo.network.run(until=DURATION)
    delivered = np.asarray([flow.sink.expected for flow in flows], dtype=float)
    return {
        "jain": float(delivered.sum() ** 2 / (N_FLOWS * (delivered**2).sum())),
        "utilization": float(delivered.sum() * MSS * 8 / DURATION / gbps(10)),
        "drops": float(topo.bottleneck.stats.dropped_total),
    }


def run_dcqcn(seed: int = 2) -> DcqcnResult:
    """``seed`` draws the ramp's marking decisions; nothing else is random."""
    return DcqcnResult(
        {
            "cut-off ECN#": _run_variant(lambda: EcnSharp(CONFIG)),
            "probabilistic ECN#": _run_variant(
                lambda: EcnSharpProbabilistic(
                    CONFIG,
                    ProbabilisticConfig(ins_min=us(40), ins_max=us(200), pmax=0.1),
                    seed=seed,
                )
            ),
        }
    )


def summarize(result: DcqcnResult) -> Dict[str, Dict[str, float]]:
    return {f"marking={name}": dict(row) for name, row in result.variants.items()}


def derived(result: DcqcnResult) -> Dict[str, float]:
    """The ramp's own fairness, utilization and drops, and its margin over
    cut-off marking on the first two."""
    cutoff = result.variants["cut-off ECN#"]
    ramp = result.variants["probabilistic ECN#"]
    return {
        "probabilistic_jain": ramp["jain"],
        "probabilistic_utilization": ramp["utilization"],
        "probabilistic_drops": ramp["drops"],
        "jain_margin": ramp["jain"] - cutoff["jain"],
        "utilization_margin": ramp["utilization"] - cutoff["utilization"],
    }


def render(result: DcqcnResult) -> str:
    rows: List[List[str]] = [
        [name, f"{row['jain']:.3f}", f"{row['utilization']:.2f}", f"{row['drops']:.0f}"]
        for name, row in result.variants.items()
    ]
    return format_table(
        ["marking", "Jain fairness", "utilization", "drops"],
        rows,
        title=(
            f"Section 3.5 extension: {N_FLOWS} DCQCN flows, cut-off vs "
            "probabilistic instantaneous marking"
        ),
    )
