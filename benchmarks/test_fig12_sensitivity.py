"""Figure 12: ECN# parameter sensitivity.

Paper shape: sweeping pst_interval over 100-250 us and pst_target over
6-18 us moves overall average FCT by <1% (web search) and <0.2% (data
mining) -- ECN# needs no careful tuning.  At reduced scale run-to-run noise
is larger, so the bound asserted here is a few percent.
"""

from repro.experiments.figures import run_experiment


def test_fig12_parameter_sensitivity(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig12",),
        kwargs=scale.get("fig12", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    for workload in ("web-search", "data-mining"):
        interval_spread = result.interval_spread(workload)
        target_spread = result.target_spread(workload)
        assert interval_spread is not None and target_spread is not None
        # Paper: <1%; reduced-scale runs carry ~10% seed noise (data mining
        # especially: 50 flows per point), so the bound here is loose.
        assert interval_spread < 0.15
        assert target_spread < 0.15
