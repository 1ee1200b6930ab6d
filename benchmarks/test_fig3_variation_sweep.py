"""Figure 3: performance degradation grows with RTT variation.

Paper shape: with the tail-RTT threshold, short-flow p99 inflation versus
the average threshold grows from ~41% at 2x to ~198% at 5x; with the
average-RTT threshold, throughput (large-flow FCT) loss versus the tail
threshold grows from ~7% to ~30%.

Reproduction note (also recorded in EXPERIMENTS.md): the latency-side gap
reproduces and grows with variation; the throughput-side gap is *muted*
here because an idealised DCTCP tolerates any threshold >= 0.17 x C x RTT
(the average-RTT threshold stays above that bound for every variation).
The paper's testbed loss comes from kernel effects -- GSO/TSO 64KB bursts
and delayed ACKs -- that widen queue oscillation far beyond the clean
per-segment dynamics simulated here.  The bench therefore asserts growth of
the latency gap and *no inversion* of the throughput gap.
"""

from repro.experiments.figures import run_experiment


def test_fig3_variation_sweep(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig3",),
        kwargs=scale.get("fig3", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    smallest, largest = result.variations[0], result.variations[-1]

    # Latency side: the tail threshold's short-flow p99 penalty is material
    # at high variation and larger than at the smallest variation.
    assert result.short_tail_gap(largest) > 1.15
    assert result.short_tail_gap(largest) > result.short_tail_gap(smallest)

    # Throughput side: muted (see module docstring) but must not invert --
    # the avg threshold never materially *beats* the tail threshold on
    # large flows, and stays in a sane band.
    for variation in result.variations:
        gap = result.large_flow_gap(variation)
        assert gap is not None
        assert 0.85 <= gap <= 1.6
