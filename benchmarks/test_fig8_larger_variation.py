"""Figure 8: ECN# vs DCTCP-RED-Tail as RTT variation grows to 5x.

Paper shape: overall average FCT stays comparable (within ~8%) at every
variation, while ECN#'s short-flow p99 advantage widens from -37% at 3x to
-71%/-73% at 4x/5x.
"""

from repro.experiments.figures import run_experiment


def test_fig8_larger_rtt_variations(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig8",),
        kwargs=scale.get("fig8", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    high_load = max(result.loads)

    for variation in result.variations:
        overall = result.nfct(variation, high_load, "overall_avg")
        assert overall is not None and overall < 1.15  # comparable overall

    # Short-flow p99 advantage exists at 3x and is at least as strong at 5x.
    gain_3x = 1.0 - result.nfct(3.0, high_load, "short_p99")
    gain_5x = 1.0 - result.nfct(5.0, high_load, "short_p99")
    assert gain_3x > 0.0
    assert gain_5x >= gain_3x * 0.8  # stays strong / grows as in the paper
