"""Figure 13: ECN# under DWRR packet scheduling, versus TCN.

Paper shape: with three DWRR services weighted 2:1:1, the long flows'
goodputs step 9.6 -> (6.42, 3.18) -> (4.82, 2.40, 2.40) Gbps as they join --
marking never disturbs the scheduler -- and ECN# beats TCN's short-flow
average FCT by ~19.6% because it removes the per-queue standing queues.
"""

import pytest

from repro.experiments.figures import run_experiment
from repro.sim.units import ms


def test_fig13_dwrr_scheduling(benchmark, report):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig13",),
        kwargs={"seed": 81, "phase": ms(40)},
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    for name, run in result.runs.items():
        phase1, phase2, phase3 = run.goodputs
        # Phase 1: flow 1 alone takes (nearly) the whole link.
        assert phase1[0] > 7e9
        assert phase1[1] == 0 and phase1[2] == 0
        # Phase 2: 2:1 split between flows 1 and 2.
        assert phase2[0] / phase2[1] == pytest.approx(2.0, rel=0.2)
        # Phase 3: 2:1:1 split.
        ratios = run.phase3_share_ratios()
        assert ratios is not None
        assert ratios[0] == pytest.approx(2.0, rel=0.2)
        assert ratios[1] == pytest.approx(2.0, rel=0.2)

    # ECN# beats TCN on short probe flows (paper: ~0.80 ratio).
    ratio = result.probe_fct_ratio()
    assert ratio is not None and ratio < 0.95
