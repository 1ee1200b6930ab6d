"""Figure 11: query completion time vs incast fanout (25-200 senders).

Paper shape: CoDel starts losing packets well before the instantaneous
markers (paper: at ~100 senders, with ECN# surviving to ~175 -- a 1.75x
advantage); ECN# tracks DCTCP-RED-Tail throughout and additionally enjoys a
lower standing queue, so its query FCT sits at or below RED-Tail's.
"""

from repro.experiments.figures import run_experiment


def test_fig11_incast_fanout_sweep(benchmark, report, scale):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig11",),
        kwargs=scale.get("fig11", {}),
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    codel_onset = result.first_loss_fanout("CoDel")
    sharp_onset = result.first_loss_fanout("ECN#")
    max_fanout = max(result.fanouts)

    # CoDel collapses within the sweep.
    assert codel_onset is not None and codel_onset <= max_fanout
    # ECN# holds out materially longer (paper: 1.75x more senders).
    if sharp_onset is not None:
        assert sharp_onset >= codel_onset * 1.1
    # At CoDel's breaking point ECN# is clean and at least matches RED-Tail.
    sharp_run = result.runs[codel_onset]["ECN#"]
    assert sharp_run.drops == 0
    sharp_avg = result.avg_query_fct(codel_onset, "ECN#")
    tail_avg = result.avg_query_fct(codel_onset, "DCTCP-RED-Tail")
    assert sharp_avg <= tail_avg * 1.05

    # FCT grows with fanout for every scheme (sanity on the sweep).
    for scheme in result.schemes:
        first = result.avg_query_fct(min(result.fanouts), scheme)
        last = result.avg_query_fct(max_fanout, scheme)
        assert last > first
