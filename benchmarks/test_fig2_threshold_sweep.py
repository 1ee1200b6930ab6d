"""Figure 2: instantaneous marking cannot win on both axes.

Paper shape at 3x variation, web search, 50% load: raising the cut-off
threshold from 50KB to 250KB improves large-flow FCT (~8% between the
average-RTT and tail-RTT operating points) while inflating short-flow
99th-percentile FCT (the paper reports +119% at the tail threshold).
"""

from repro.experiments.figures import run_experiment


def test_fig2_threshold_sweep(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig2",),
        kwargs=scale.get("fig2", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    lowest, highest = result.thresholds_kb[0], result.thresholds_kb[-1]
    norm_large = result.normalized("large_avg")
    norm_short99 = result.normalized("short_p99")

    # Throughput axis: the tail threshold beats the low threshold on
    # large-flow FCT.
    assert norm_large[highest] < norm_large[lowest]
    # Latency axis: the tail threshold is markedly worse on short-flow p99.
    assert norm_short99[highest] > 1.5
    # No intermediate threshold wins both axes simultaneously.
    for threshold in result.thresholds_kb:
        wins_latency = norm_short99[threshold] <= 1.10
        wins_throughput = norm_large[threshold] <= norm_large[highest] * 1.03
        assert not (wins_latency and wins_throughput)
