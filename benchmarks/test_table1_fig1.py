"""Table 1 / Figure 1: RTT variations from processing components.

Paper numbers: case means 39.3 / 63.9 / 69.3 / 99.2 / 105.5 us -- a 2.68x
max/min ratio; the reproduction regenerates all four statistics columns.
"""

from repro.experiments.figures import run_experiment


def test_table1_rtt_variations(benchmark, report):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("table1",),
        kwargs={"seed": 1, "n_samples": 3000},
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    # Shape assertions against the paper's Table 1.
    summaries = list(result.cases.values())
    means_us = [s.mean * 1e6 for s in summaries]
    assert means_us == sorted(means_us)  # each added component slows RTT
    assert 2.3 <= result.variation_ratio <= 3.0  # paper: 2.68x
    # Per-row calibration within 10% of the published means.
    paper_means = [39.3, 63.9, 69.3, 99.2, 105.5]
    for measured, published in zip(means_us, paper_means):
        assert abs(measured - published) / published < 0.10
    # Long tails: p99 well above the mean in every case.
    for summary in summaries:
        assert summary.p99 > summary.mean * 1.3
