"""Figure 10: microscopic queue occupancy under a 100-flow query burst.

Paper shape: DCTCP-RED-Tail keeps a persistent queue near its threshold
(~182 pkt at a 220 us threshold on 10 Gbps) yet absorbs the burst without
drops; ECN# collapses the standing queue toward pst_target (paper: ~8 pkt in
a 5 ms snapshot; here the converged 5 ms floor) and also absorbs the burst;
CoDel keeps a small standing queue as well but pays for it under bursts --
its loss onset is exercised by the Figure 11 fanout sweep.
"""

from repro.experiments.figures import run_experiment


def test_fig10_microscopic_queue(benchmark, report):
    outcome = benchmark.pedantic(
        run_experiment,
        args=("fig10",),
        kwargs={"fanout": 100, "seed": 51},
        rounds=1,
        iterations=1,
    )
    result = outcome.result
    report(outcome.render())

    red_tail = result.runs["DCTCP-RED-Tail"]
    codel = result.runs["CoDel"]
    sharp = result.runs["ECN#"]

    # Standing queue: RED-Tail near its threshold (paper: ~182 pkt).
    assert 100 < red_tail.standing_queue_pkts < 280
    # ECN# collapses it (long-run average well below RED-Tail, converged
    # floor within a few packets of CoDel's).
    assert sharp.standing_queue_pkts < red_tail.standing_queue_pkts * 0.4
    assert sharp.floor_queue_pkts < 40  # paper's snapshot: ~8 pkt
    # CoDel controls the standing queue too (it is persistent-marking).
    assert codel.standing_queue_pkts < red_tail.standing_queue_pkts * 0.4

    # Burst tolerance at fanout 100: nobody drops (CoDel's failure begins
    # at higher fanout -- see the Figure 11 bench).
    assert red_tail.drops == 0
    assert sharp.drops == 0
    # All queries complete.
    for run in result.runs.values():
        assert run.queries_completed == result.fanout
