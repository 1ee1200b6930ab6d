"""Integration: sojourn-time AQMs composed with multi-queue schedulers.

The property ECN# inherits from TCN (Section 3.2): because the congestion
signal is per-packet time-in-queue, it stays meaningful when the egress
port runs a packet scheduler -- each service's packets carry their own
queueing delay, whatever the scheduler interleaving.  Queue-length marking
has no per-service meaning, which is why the paper's Figure 13 compares
sojourn-based schemes only.
"""

import statistics

import pytest

from repro.core import EcnSharp, EcnSharpConfig, Tcn
from repro.sim import DwrrScheduler, PacketFactory, QueueMonitor
from repro.sim.units import gbps, ms, us
from repro.tcp import open_flow
from repro.topology import build_star


def build(aqm_factory, weights=(2.0, 1.0, 1.0)):
    return build_star(
        n_senders=6,
        aqm_factory=aqm_factory,
        bottleneck_scheduler_factory=lambda: DwrrScheduler(list(weights)),
    )


class TestDwrrWithSojournAqm:
    def test_weights_preserved_under_marking(self):
        topo = build(lambda: Tcn(us(150)))
        factory = PacketFactory()
        flows = [
            open_flow(
                topo.network, factory, topo.senders[i], topo.receiver,
                40_000_000, service=i,
            )
            for i in range(3)
        ]
        topo.network.run(until=ms(20))
        delivered = [flow.sink.expected for flow in flows]
        total = sum(delivered)
        assert delivered[0] / total == pytest.approx(0.5, abs=0.05)
        assert delivered[1] / total == pytest.approx(0.25, abs=0.05)
        assert delivered[2] / total == pytest.approx(0.25, abs=0.05)

    def test_idle_service_capacity_redistributed(self):
        topo = build(lambda: Tcn(us(150)))
        factory = PacketFactory()
        # Only services 1 and 2 are active: they split the link 1:1.
        flows = [
            open_flow(
                topo.network, factory, topo.senders[i], topo.receiver,
                40_000_000, service=i + 1,
            )
            for i in range(2)
        ]
        topo.network.run(until=ms(20))
        delivered = [flow.sink.expected for flow in flows]
        assert delivered[0] == pytest.approx(delivered[1], rel=0.1)
        # And the link stayed busy (work conservation).
        assert sum(delivered) * 1460 * 8 / ms(20) > 0.85 * gbps(10)

    def test_ecn_sharp_contains_cross_service_queueing(self):
        """A backlogged low-weight service must not see unbounded sojourn:
        ECN# marks its packets (their sojourn reflects DWRR waiting) and the
        sender backs off to its fair share."""
        topo = build(lambda: EcnSharp(EcnSharpConfig(us(220), us(10), us(240))))
        factory = PacketFactory()
        heavy = open_flow(
            topo.network, factory, topo.senders[0], topo.receiver,
            40_000_000, service=2,  # weight 1 of 4
        )
        competitor = open_flow(
            topo.network, factory, topo.senders[1], topo.receiver,
            40_000_000, service=0,  # weight 2 of 4
        )
        monitor = QueueMonitor(topo.sim, topo.bottleneck, interval=us(50), start=ms(5))
        topo.network.run(until=ms(15))
        # Marking bounded the aggregate queue despite two saturating flows.
        assert statistics.mean(monitor.series()[1]) < 350
        assert heavy.sender.stats.ece_acks > 0
        assert competitor.sink.expected > heavy.sink.expected  # weight order

    def test_service_class_travels_with_acks(self):
        topo = build(lambda: Tcn(us(150)))
        factory = PacketFactory()
        flow = open_flow(
            topo.network, factory, topo.senders[0], topo.receiver, 50_000, service=1
        )
        topo.network.sim.run_until_idle(max_events=10_000_000)
        assert flow.completed
        assert flow.sink.service == 1
