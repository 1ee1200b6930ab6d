"""Unit tests for queue monitoring and for drop observation through
telemetry."""

import pytest

from repro.sim.monitor import QueueMonitor
from repro.sim.port import Port
from repro.sim.units import gbps, us
from repro.telemetry import Telemetry, activate

from conftest import make_packet


class _Sink:
    def __init__(self):
        self.count = 0

    def receive(self, packet):
        self.count += 1


def make_port(sim, buffer_bytes=150_000):
    port = Port(sim, "p", gbps(10), us(2), buffer_bytes)
    port.peer = _Sink()
    return port


class TestQueueMonitor:
    def test_samples_at_interval(self, sim):
        port = make_port(sim)
        monitor = QueueMonitor(sim, port, interval=us(10))
        sim.run(until=us(95))
        # Samples at 0, 10, ..., 90 us.
        assert len(monitor.samples) == 10

    def test_stop_time_respected(self, sim):
        port = make_port(sim)
        monitor = QueueMonitor(sim, port, interval=us(10), stop=us(30))
        sim.run(until=us(200))
        assert all(sample.time <= us(30) for sample in monitor.samples)
        assert sim.pending_events == 0  # monitor unscheduled itself

    def test_records_queue_depth(self, sim):
        port = make_port(sim)
        for seq in range(9):
            port.send(make_packet(seq=seq))
        monitor = QueueMonitor(sim, port, interval=us(1))
        sim.run(until=us(2))
        # 9 sent, 1 serializing: 8 queued at t=0, draining ~1/1.2us.
        assert monitor.samples[0].packets == 8
        assert monitor.max_packets() == 8

    def test_series_shape(self, sim):
        port = make_port(sim)
        monitor = QueueMonitor(sim, port, interval=us(10), stop=us(50))
        sim.run(until=us(100))
        times, packets = monitor.series()
        assert len(times) == len(packets) == len(monitor.samples)

    def test_invalid_interval(self, sim):
        port = make_port(sim)
        with pytest.raises(ValueError):
            QueueMonitor(sim, port, interval=0)

    def test_empty_monitor_stats(self, sim):
        port = make_port(sim)
        monitor = QueueMonitor(sim, port, interval=us(10), start=us(100), stop=us(50))
        sim.run(until=us(200))
        assert monitor.samples == []
        assert monitor.max_packets() == 0
        assert monitor.series() == ([], [])


class TestDropTelemetry:
    """Drops are observed through the port's telemetry: the
    ``drops_total{port,reason}`` counter and ``drop`` recorder events."""

    def test_counts_by_reason_and_flow(self, sim):
        with activate(Telemetry(trace=True, profile=False)) as telemetry:
            port = make_port(sim, buffer_bytes=1500)
        for seq in range(3):
            port.send(make_packet(flow_id=7, seq=seq))
        sim.run()
        # seq 0 goes on the wire, seq 1 fills the buffer, seq 2 overflows.
        (drop,) = telemetry.recorder.events("drop")
        assert (drop.kind, drop.fields["port"], drop.fields["flow"],
                drop.fields["seq"]) == ("overflow", "p", 7, 2)
        assert telemetry.registry.snapshot()["counters"] == {
            "drops_total{port=p,reason=overflow}": 1}
        assert port.stats.dropped_overflow == 1

    def test_no_drops_no_events(self, sim):
        with activate(Telemetry(trace=True, profile=False)) as telemetry:
            port = make_port(sim)
        port.send(make_packet())
        sim.run()
        assert telemetry.recorder.events("drop") == []
        assert telemetry.registry.snapshot()["counters"] == {}
