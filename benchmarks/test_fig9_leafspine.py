"""Figure 9: large-scale leaf-spine simulations (web search, ECMP).

Paper shape, normalized to DCTCP-RED-Tail: ECN# delivers 18.5-36.9% lower
short-flow average FCT and 26-37% lower overall average FCT across loads.

Scale substitution: the paper's fabric is 8 spines x 8 leaves x 16
hosts/leaf (128 hosts); the reduced default is 4x4x4 (16 hosts) with the
same 1:1 oversubscription -- set REPRO_FULL=1 for the larger fabric.
"""

from repro.experiments.figures import run_experiment


def test_fig9_leafspine_fct(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig9",),
        kwargs=scale.get("fig9", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    # ECN# at least matches RED-Tail on short flows at every load and beats
    # it somewhere in the sweep.
    short_ratios = [
        result.nfct(load, "ECN#", "short_avg") for load in result.loads
    ]
    short_ratios = [ratio for ratio in short_ratios if ratio is not None]
    assert short_ratios, "no short-flow data collected"
    assert min(short_ratios) < 1.0
    assert all(ratio < 1.15 for ratio in short_ratios)

    # Overall FCT does not regress materially at any load.
    for load in result.loads:
        overall = result.nfct(load, "ECN#", "overall_avg")
        if overall is not None:
            assert overall < 1.15
