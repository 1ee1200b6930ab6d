"""Figure 5: flow-size CDFs of the two production workloads.

Both published curves are heavy-tailed: most flows are small, most bytes sit
in multi-MB flows; data mining is the heavier of the two.
"""

from repro.experiments.figures import run_experiment


def test_fig5_flow_size_cdfs(benchmark, report):
    outcome = benchmark.pedantic(
        run_experiment, args=("fig5",), rounds=1, iterations=1
    )
    result = outcome.result
    report(outcome.render())

    web = result.cdf_at_probe["web-search"]
    mining = result.cdf_at_probe["data-mining"]

    # Heavy tails: the majority of flows are under 100KB in both workloads...
    assert web[100_000] >= 0.7
    assert mining[100_000] >= 0.7
    # ...while the upper tail reaches tens of MB.
    assert web[10_000_000] < 1.0
    assert mining[10_000_000] < 1.0
    # Data mining has more tiny flows AND a longer tail (higher mean).
    assert mining[1_000] > web[1_000]
    assert result.means["data-mining"] > result.means["web-search"]
    # Curves are valid CDFs.
    for _, probs in result.curves.values():
        assert probs == sorted(probs)
        assert 0.0 <= probs[0] and probs[-1] == 1.0
