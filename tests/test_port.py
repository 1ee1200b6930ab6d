"""Unit tests for egress ports: serialization, buffering, AQM hook points."""

import pytest

from repro.core.base import Aqm, NullAqm
from repro.core.red import DctcpRed
from repro.sim.network import Network
from repro.sim.packet import Ecn
from repro.sim.port import Port
from repro.sim.units import gbps, us
from repro.telemetry import Telemetry, activate

from conftest import make_packet


class _Sink:
    """Records packet arrivals with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_port(sim, rate=gbps(10), delay=us(2), buffer_bytes=15000, aqm=None):
    port = Port(sim, "p", rate, delay, buffer_bytes, aqm=aqm)
    sink = _Sink(sim)
    port.peer = sink
    return port, sink


class TestSerialization:
    def test_single_packet_timing(self, sim):
        port, sink = make_port(sim)
        port.send(make_packet(size=1500))
        sim.run()
        # 1500B at 10G = 1.2us serialization + 2us propagation.
        assert sink.arrivals[0][0] == pytest.approx(3.2e-6)

    def test_back_to_back_packets_serialize_sequentially(self, sim):
        port, sink = make_port(sim)
        port.send(make_packet(seq=0, size=1500))
        port.send(make_packet(seq=1, size=1500))
        sim.run()
        t0, t1 = sink.arrivals[0][0], sink.arrivals[1][0]
        assert t1 - t0 == pytest.approx(1.2e-6)  # one serialization apart

    def test_fifo_delivery_order(self, sim):
        port, sink = make_port(sim)
        for seq in range(10):
            port.send(make_packet(seq=seq))
        sim.run()
        assert [p.seq for _, p in sink.arrivals] == list(range(10))

    def test_idle_port_restarts(self, sim):
        port, sink = make_port(sim)
        port.send(make_packet(seq=0))
        sim.run()
        port.send(make_packet(seq=1))
        sim.run()
        assert len(sink.arrivals) == 2

    def test_tx_stats(self, sim):
        port, _ = make_port(sim)
        port.send(make_packet(size=1500))
        port.send(make_packet(size=40))
        sim.run()
        assert port.stats.tx_packets == 2
        assert port.stats.tx_bytes == 1540

    def test_unconnected_port_rejects(self, sim):
        port = Port(sim, "p", gbps(10), us(2), 10000)
        with pytest.raises(RuntimeError):
            port.send(make_packet())


class TestBuffering:
    def test_overflow_drops_at_tail(self, sim):
        port, sink = make_port(sim, buffer_bytes=3000)
        for seq in range(4):
            port.send(make_packet(seq=seq, size=1500))
        sim.run()
        # One in flight is possible; buffer holds 2 x 1500.
        assert port.stats.dropped_overflow >= 1
        delivered = {p.seq for _, p in sink.arrivals}
        assert 0 in delivered  # head was never dropped

    def test_on_drop_callback(self, sim):
        """Every drop reaches the attached telemetry's ``on_drop`` hook."""
        with activate(Telemetry(metrics=True, profile=False)) as telemetry:
            port, _ = make_port(sim, buffer_bytes=1500)
        for seq in range(3):
            port.send(make_packet(seq=seq))
        sim.run()
        assert port.stats.dropped_overflow >= 1
        assert telemetry.registry.snapshot()["counters"] == {
            "drops_total{port=p,reason=overflow}": port.stats.dropped_overflow}

    def test_buffer_released_after_transmit(self, sim):
        port, _ = make_port(sim, buffer_bytes=3000)
        port.send(make_packet(size=1500))
        sim.run()
        assert port.queue_bytes == 0

    def test_overflow_drops_and_buffer_settles(self, sim):
        port, sink = make_port(sim, buffer_bytes=3000)
        # The head packet's reservation frees at service start (t=0), so 3
        # of 5 are admitted.
        for _ in range(5):
            port.send(make_packet(size=1500))
        sim.run()
        assert port.stats.dropped_overflow == 2
        assert len(sink.arrivals) == 3
        assert port.queue_bytes == 0
        assert port.stats.tx_packets == 3

    def test_queue_accessors(self, sim):
        port, _ = make_port(sim)
        for seq in range(5):
            port.send(make_packet(seq=seq))
        # One packet immediately entered serialization; 4 queued.
        assert port.queue_packets == 4
        assert port.queue_bytes == 4 * 1500


class _DequeueDropAqm(Aqm):
    """Drops every packet at dequeue (models CoDel dropping not-ECT)."""

    def on_dequeue(self, packet, now):
        return False


class _EnqueueVetoAqm(Aqm):
    """Rejects every packet at enqueue."""

    def on_enqueue(self, packet, now, queue_bytes):
        return False


class TestAqmHooks:
    def test_enqueue_marking_sees_prior_occupancy(self, sim):
        aqm = DctcpRed(threshold_bytes=1500)
        port, sink = make_port(sim, aqm=aqm)
        for seq in range(3):
            port.send(make_packet(seq=seq))
        sim.run()
        # First packet saw queue 0 (tx immediately); second saw 0 (first was
        # in flight, queue empty); third saw 1500 -> marked.
        marked = [p.seq for _, p in sink.arrivals if p.ce_marked]
        assert marked == [2]

    def test_enqueue_veto_counts_aqm_drop(self, sim):
        port, sink = make_port(sim, aqm=_EnqueueVetoAqm())
        port.send(make_packet())
        sim.run()
        assert port.stats.dropped_aqm == 1
        assert sink.arrivals == []

    def test_dequeue_drop_skips_to_next(self, sim):
        port, sink = make_port(sim, aqm=_DequeueDropAqm())
        for seq in range(3):
            port.send(make_packet(seq=seq))
        sim.run()
        assert sink.arrivals == []
        assert port.stats.dropped_aqm == 3
        assert port.queue_bytes == 0  # accounting stayed clean

    def test_vetoed_packet_leaves_peak_unchanged(self, sim):
        port, _ = make_port(sim, aqm=DctcpRed(threshold_bytes=1500))
        for seq in range(3):  # one on the wire, two queued
            port.send(make_packet(seq=seq))
        assert port.buffer_peak_bytes == port.queue_bytes == 3000
        # A pure ACK (not-ECT) above K is refused by the AQM; it would have
        # been a new high-water mark, but the port never held it.
        port.send(make_packet(seq=3, size=1500, ecn=Ecn.NOT_ECT))
        assert port.stats.dropped_aqm == 1
        assert port.buffer_peak_bytes == 3000

    def test_default_aqm_is_null(self, sim):
        port, _ = make_port(sim)
        assert isinstance(port.aqm, NullAqm)

    def test_enqueue_timestamp_stamped(self, sim):
        port, sink = make_port(sim)
        sim.schedule(us(5), port.send, make_packet())
        sim.run()
        _, packet = sink.arrivals[0]
        assert packet.enqueue_time == pytest.approx(us(5))
