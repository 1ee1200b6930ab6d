#!/usr/bin/env python
"""Multi-service scheduling: ECN# composed with DWRR (Figure 13).

Three services with DWRR weights 2:1:1 share the bottleneck; three
long-lived flows join one per service, staggered in time.  The example
prints the per-phase goodput staircase and shows that sojourn-time ECN#
marking neither disturbs the scheduler's shares nor leaves standing queues.

Run:  python examples/dwrr_scheduling.py        (~20 s)
"""

from repro.experiments.figures import run_experiment
from repro.sim.units import ms


def main() -> None:
    outcome = run_experiment("fig13", phase=ms(30))
    print(outcome.render())

    run = outcome.result.runs["ECN#"]
    ratios = run.phase3_share_ratios()
    if ratios is not None:
        print(
            f"\nECN# phase-3 share ratios: flow1/flow2={ratios[0]:.2f}, "
            f"flow1/flow3={ratios[1]:.2f} (DWRR weights say 2.00)"
        )


if __name__ == "__main__":
    main()
