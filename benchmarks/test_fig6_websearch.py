"""Figure 6: testbed FCT vs load under web search (4 schemes, 3x variation).

Paper shape, normalized to DCTCP-RED-Tail:
  * ECN# wins short flows (up to -23.4% avg / -37.2% p99) at equal
    large-flow FCT;
  * DCTCP-RED-AVG wins short flows even harder but loses >20% on large
    flows;
  * overall, ECN# stays within a few percent of RED-Tail.
"""

from repro.experiments.figures import run_experiment


def test_fig6_websearch_fct_vs_load(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig6",),
        kwargs=scale.get("fig6", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    high_load = max(result.loads)
    mid_load = sorted(result.loads)[len(result.loads) // 2]

    # ECN# improves short flows vs RED-Tail somewhere in the load range...
    best_gain = result.best_short_avg_gain("ECN#")
    assert best_gain is not None and best_gain > 0.02
    # ...without losing large-flow FCT (within 10% at every load).
    for load in result.loads:
        large_ratio = result.normalized(load, "ECN#").large_avg
        if large_ratio is not None:
            assert large_ratio < 1.10

    # RED-AVG is the best short-flow scheme but pays on large flows at the
    # mid/high loads.
    red_avg_short = result.normalized(mid_load, "DCTCP-RED-AVG").short_avg
    ecn_short = result.normalized(mid_load, "ECN#").short_avg
    assert red_avg_short is not None and red_avg_short < 1.0
    red_avg_large = result.normalized(high_load, "DCTCP-RED-AVG").large_avg
    assert red_avg_large is not None and red_avg_large > 1.05
