"""Integration tests asserting the paper's qualitative results at small scale.

Each test runs a miniature version of an evaluation scenario and asserts the
*ordering/shape* the paper reports (who wins, roughly by how much), not
absolute numbers.  These are the guardrails that keep the reproduction
honest while staying fast enough for CI.
"""

import numpy as np
import pytest

from repro.core import Codel, EcnSharp, EcnSharpConfig, SojournRed
from repro.experiments.fct import FctCollector
from repro.experiments.runner import run_star_fct
from repro.sim.monitor import QueueMonitor
from repro.sim.packet import PacketFactory
from repro.sim.units import gbps, ms, us
from repro.tcp import open_flow
from repro.topology import build_incast
from repro.workloads import WEB_SEARCH, TransportConfig, launch_query


def sim_ecn_sharp():
    return EcnSharp(EcnSharpConfig(us(220), us(10), us(240)))


def sim_codel():
    return Codel(target_seconds=us(10), interval_seconds=us(240))


def sim_red_tail():
    return SojournRed(us(220))


class TestStandingQueueShape:
    """Figure 10's core claim: ECN# collapses the standing queue RED-Tail
    tolerates, without dropping packets."""

    @staticmethod
    def standing_queue(aqm_factory, seed=3):
        topo = build_incast(aqm_factory=aqm_factory)
        factory = PacketFactory()
        # Four small-RTT long flows build the standing queue.
        for index in range(4):
            open_flow(
                topo.network, factory, topo.senders[index], topo.receiver, 30_000_000
            )
        monitor = QueueMonitor(
            topo.sim, topo.bottleneck, interval=us(10), start=ms(5), stop=ms(15)
        )
        topo.network.run(until=ms(15))
        _, depths = monitor.series()
        return float(np.mean(depths)), topo.bottleneck.stats.dropped_total

    def test_red_tail_keeps_threshold_queue(self):
        queue, drops = self.standing_queue(sim_red_tail)
        # 220us at 10G ~ 183 packets of standing queue (paper: 182).
        assert 100 < queue < 260
        assert drops == 0

    def test_ecn_sharp_collapses_queue(self):
        # The early 5-15ms window sits on ECN#'s convergence ramp
        # (Algorithm 1's sqrt escalation restarts whenever a packet dips
        # below pst_target), so the reduction here is partial; the converged
        # floor -- the paper's 95.6% claim -- is asserted by the Figure 10
        # bench via the best-5ms-window metric.
        red_queue, _ = self.standing_queue(sim_red_tail)
        sharp_queue, drops = self.standing_queue(sim_ecn_sharp)
        assert sharp_queue < red_queue * 0.65
        assert drops == 0

    def test_throughput_preserved_despite_queue_collapse(self):
        def goodput(aqm_factory):
            topo = build_incast(aqm_factory=aqm_factory)
            factory = PacketFactory()
            flows = [
                open_flow(
                    topo.network, factory, topo.senders[i], topo.receiver, 30_000_000
                )
                for i in range(4)
            ]
            topo.network.run(until=ms(15))
            return sum(f.sink.expected for f in flows)

        red = goodput(sim_red_tail)
        sharp = goodput(sim_ecn_sharp)
        assert sharp >= red * 0.93  # no meaningful throughput loss


class TestBurstToleranceShape:
    """Figure 11's core claim: CoDel collapses under incast well before
    ECN# does."""

    @staticmethod
    def burst(aqm_factory, fanout=100, seed=0):
        topo = build_incast(aqm_factory=aqm_factory)
        collector = FctCollector()
        launch_query(
            topo.network,
            PacketFactory(),
            topo.senders,
            topo.receiver,
            fanout=fanout,
            start_time=0.001,
            rng=np.random.default_rng(seed),
            transport=TransportConfig(init_cwnd=2.0),
            on_flow_complete=collector.record,
        )
        topo.network.sim.run_until_idle(max_events=100_000_000)
        return collector, topo.bottleneck.stats.dropped_total

    def test_codel_drops_at_100(self):
        _, drops = self.burst(sim_codel, fanout=100)
        assert drops > 0

    def test_ecn_sharp_clean_at_100(self):
        collector, drops = self.burst(sim_ecn_sharp, fanout=100)
        assert drops == 0
        assert collector.total_timeouts() == 0

    def test_ecn_sharp_supports_higher_fanout_than_codel(self):
        codel_losses = {
            fanout: self.burst(sim_codel, fanout)[1] for fanout in (50, 100)
        }
        sharp_losses = {
            fanout: self.burst(sim_ecn_sharp, fanout)[1] for fanout in (50, 100, 150)
        }
        assert codel_losses[100] > 0
        assert sharp_losses[150] == 0  # at least 1.5x CoDel's breaking point

    def test_timeouts_drive_codel_fct(self):
        codel_collector, _ = self.burst(sim_codel, fanout=100)
        sharp_collector, _ = self.burst(sim_ecn_sharp, fanout=100)
        codel_p99 = np.percentile([r.fct for r in codel_collector.records], 99)
        sharp_p99 = np.percentile([r.fct for r in sharp_collector.records], 99)
        assert codel_collector.total_timeouts() > 0
        assert codel_p99 > sharp_p99


class TestFctShape:
    """Figures 2/6's core claims on the testbed star under RTT variation."""

    _cache = {}

    @classmethod
    def run(cls, scheme_name, aqm_factory, seed=21, load=0.5, n_flows=120):
        key = (scheme_name, seed, load, n_flows)
        if key not in cls._cache:
            result = run_star_fct(
                aqm_factory=aqm_factory,
                workload=WEB_SEARCH,
                load=load,
                n_flows=n_flows,
                seed=seed,
            )
            # At this scale the paper's >=10MB "large" bucket can be nearly
            # empty; a 2MB boundary populates the throughput-sensitive
            # bucket (the ordering claims are unaffected by the cut point).
            cls._cache[key] = result.collector.summary(large_min=2_000_000)
        return cls._cache[key]

    def test_ecn_sharp_beats_red_tail_on_short_flows(self):
        from repro.experiments.schemes import testbed_schemes as schemes

        factories = schemes()
        tail = self.run("DCTCP-RED-Tail", factories["DCTCP-RED-Tail"])
        sharp = self.run("ECN#", factories["ECN#"])
        assert sharp.short_p99 < tail.short_p99
        assert sharp.short_avg <= tail.short_avg * 1.02

    def test_ecn_sharp_matches_red_tail_on_large_flows(self):
        from repro.experiments.schemes import testbed_schemes as schemes

        factories = schemes()
        tail = self.run("DCTCP-RED-Tail", factories["DCTCP-RED-Tail"])
        sharp = self.run("ECN#", factories["ECN#"])
        assert sharp.large_avg == pytest.approx(tail.large_avg, rel=0.12)

    def test_red_avg_hurts_large_flows(self):
        from repro.experiments.schemes import testbed_schemes as schemes

        factories = schemes()
        tail = self.run("DCTCP-RED-Tail", factories["DCTCP-RED-Tail"])
        avg = self.run("DCTCP-RED-AVG", factories["DCTCP-RED-AVG"])
        assert avg.large_avg > tail.large_avg * 1.1  # throughput loss

    def test_low_threshold_worst_tail_latency_inversion(self):
        """Fig 2: the 250KB threshold has materially worse short-flow p99
        than the 50KB threshold; the 50KB threshold has worse large-avg."""
        from repro.experiments.schemes import bytes_to_sojourn
        from repro.sim.units import kb

        low = self.run("RED-50KB", lambda: SojournRed(bytes_to_sojourn(kb(50), gbps(10))))
        high = self.run("RED-250KB", lambda: SojournRed(bytes_to_sojourn(kb(250), gbps(10))))
        assert high.short_p99 > low.short_p99
        assert low.large_avg > high.large_avg
