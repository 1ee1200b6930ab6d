"""Figure 7: testbed FCT vs load under data mining (4 schemes, 3x variation).

Paper shape mirrors Figure 6 (ECN# up to -31.2% short-flow avg / -37.6% p99
vs DCTCP-RED-Tail; RED-AVG loses up to 20.5% on large flows) with ECN#
performing best overall at all loads on this workload.
"""

from repro.experiments.figures import run_experiment


def test_fig7_datamining_fct_vs_load(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig7",),
        kwargs=scale.get("fig7", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    # ECN# improves short flows somewhere in the load range without a
    # large-flow penalty.
    best_gain = result.best_short_avg_gain("ECN#")
    assert best_gain is not None and best_gain > 0.0
    for load in result.loads:
        norm = result.normalized(load, "ECN#")
        if norm.large_avg is not None:
            assert norm.large_avg < 1.12
        if norm.overall_avg is not None:
            assert norm.overall_avg < 1.10
