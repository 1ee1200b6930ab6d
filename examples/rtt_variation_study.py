#!/usr/bin/env python
"""The Section 2 motivation study, end to end inside the simulator.

1. *Measure* the base-RTT distribution the way operators do (sequential
   request/response probes, the PingMesh / TCP-probe stand-in), under a 3x
   RTT-variation profile.
2. *Derive* marking thresholds from the measured distribution: the
   "current practice" tail threshold, the average threshold, and ECN#'s
   rule-of-thumb parameters (Section 3.4).
3. *Demonstrate the dilemma* (Figure 2): run the same workload under the
   tail threshold, the average threshold, and ECN#, and show that only
   ECN# gets both low short-flow latency and large-flow throughput.

Run:  python examples/rtt_variation_study.py        (~1 minute)
"""

import numpy as np

from repro.core import EcnSharp, EcnSharpConfig, SojournRed, derive_ecn_sharp_params
from repro.experiments.fct import FctSummary
from repro.experiments.runner import estimate_star_network_rtt, run_star_fct
from repro.measurement import RttProber, summarize_rtts
from repro.netem import RttProfile
from repro.sim import PacketFactory
from repro.sim.units import us
from repro.topology import build_dumbbell
from repro.workloads import WEB_SEARCH


def measure_rtt_distribution(profile: RttProfile, n_probes: int = 500):
    """Step 1: probe the network and return measured RTT samples."""
    topo = build_dumbbell()
    prober = RttProber(
        network=topo.network,
        factory=PacketFactory(),
        senders=topo.senders,
        receiver=topo.receiver,
        n_probes=n_probes,
        rng=np.random.default_rng(2),
        rtt_profile=profile,
        network_rtt=estimate_star_network_rtt(),
        delay_stage_of=topo.stage_for,
    )
    prober.start()
    topo.network.sim.run_until_idle()
    return prober.samples


def main() -> None:
    profile = RttProfile.from_variation(us(70), 3.0)  # 70-210 us, long tail

    samples = measure_rtt_distribution(profile)
    summary = summarize_rtts(samples).as_microseconds()
    print("=== measured base-RTT distribution (500 probes) ===")
    print(f"mean={summary.mean:.1f}us  p50={summary.p50:.1f}us  "
          f"p90={summary.p90:.1f}us  p99={summary.p99:.1f}us")

    params = derive_ecn_sharp_params(samples)
    print("\n=== thresholds derived from the measurement ===")
    print(f"tail (p90) sojourn threshold : {params.ins_target * 1e6:7.1f} us")
    print(f"average sojourn threshold    : {params.pst_target * 1e6:7.1f} us")
    print(f"ECN# rule of thumb           : ins_target={params.ins_target * 1e6:.0f}us "
          f"pst_target={params.pst_target * 1e6:.0f}us "
          f"pst_interval={params.pst_interval * 1e6:.0f}us")

    schemes = {
        "tail threshold (current practice)": lambda: SojournRed(params.ins_target),
        "average threshold": lambda: SojournRed(params.pst_target),
        "ECN#": lambda: EcnSharp(
            EcnSharpConfig(params.ins_target, params.pst_target, params.pst_interval)
        ),
    }
    print("\n=== the dilemma (web search, 50% load, 100 flows) ===")
    print(f"{'scheme':38s} {'short avg':>10s} {'short p99':>10s} {'large avg':>10s}")
    for name, factory in schemes.items():
        result = run_star_fct(
            aqm_factory=factory,
            workload=WEB_SEARCH,
            load=0.5,
            n_flows=100,
            seed=3,
        )
        s: FctSummary = result.summary
        print(
            f"{name:38s} "
            f"{(s.short_avg or 0) * 1e6:9.0f}us "
            f"{(s.short_p99 or 0) * 1e6:9.0f}us "
            f"{(s.large_avg or 0) * 1e6:9.0f}us"
        )
    print("\nTrend to look for: the tail threshold inflates short-flow latency;")
    print("the average threshold costs large-flow FCT; ECN# balances both.")
    print("(100 flows is a small sample -- `repro run fig2` and `repro run fig6`")
    print("are the pooled versions, judged against the paper's claims.)")


if __name__ == "__main__":
    main()
