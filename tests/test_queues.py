"""Unit tests for packet queues and a port's drop-tail buffer budget."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.red import DctcpRed
from repro.sim.engine import Simulator
from repro.sim.packet import Ecn
from repro.sim.port import Port
from repro.sim.queues import PacketQueue
from repro.sim.units import gbps, us

from conftest import make_packet


class TestPacketQueue:
    def test_starts_empty(self):
        queue = PacketQueue()
        assert queue.is_empty()
        assert queue.byte_length == 0
        assert queue.packet_length == 0
        assert queue.peek() is None

    def test_fifo_order(self):
        queue = PacketQueue()
        packets = [make_packet(seq=i) for i in range(5)]
        for packet in packets:
            queue.push(packet)
        assert [queue.pop().seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_byte_accounting(self):
        queue = PacketQueue()
        queue.push(make_packet(size=1500))
        queue.push(make_packet(size=40))
        assert queue.byte_length == 1540
        queue.pop()
        assert queue.byte_length == 40

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PacketQueue().pop()

    def test_peek_does_not_remove(self):
        queue = PacketQueue()
        queue.push(make_packet(seq=7))
        assert queue.peek().seq == 7
        assert queue.packet_length == 1

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=9000), max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_accounting_invariant(self, sizes):
        queue = PacketQueue()
        for size in sizes:
            queue.push(make_packet(size=size))
        assert queue.byte_length == sum(sizes)
        assert queue.packet_length == len(sizes)
        popped = 0
        while not queue.is_empty():
            popped += queue.pop().size
        assert popped == sum(sizes)
        assert queue.byte_length == 0


class _Sink:
    def receive(self, packet):
        pass


def busy_port(capacity, aqm=None):
    """A port with ``capacity`` buffer bytes whose line is already busy
    serializing a 40-byte head packet, so later sends stay queued until the
    clock runs."""
    sim = Simulator()
    port = Port(sim, "p", gbps(10), us(2), capacity, aqm=aqm)
    port.peer = _Sink()
    port.send(make_packet(size=40))
    assert port.queue_bytes == 0 and port.stats.enqueued_packets == 1
    return sim, port


class TestBufferPool:
    """The port's buffer: its occupancy is the scheduler's byte counter, the
    port keeps the capacity and the high-water mark of admitted bytes."""

    def test_reserve_within_capacity(self):
        _, port = busy_port(1000)
        port.send(make_packet(size=600))
        assert port.queue_bytes == 600
        assert port.buffer_bytes - port.queue_bytes == 400

    def test_reserve_over_capacity_fails_atomically(self):
        _, port = busy_port(1000)
        port.send(make_packet(size=900))
        port.send(make_packet(size=200))
        assert port.stats.dropped_overflow == 1
        assert port.queue_bytes == 900  # the refused packet left no residue

    def test_exact_fill(self):
        _, port = busy_port(1000)
        port.send(make_packet(size=1000))
        assert port.stats.dropped_overflow == 0
        port.send(make_packet(size=1))
        assert port.stats.dropped_overflow == 1
        assert port.buffer_peak_bytes == 1000

    def test_release_returns_space(self):
        sim, port = busy_port(1000)
        port.send(make_packet(size=1000))
        sim.run()
        assert port.queue_bytes == 0
        sim, port = busy_port(1000)  # fresh busy line, same budget
        port.send(make_packet(size=1000))
        assert port.stats.dropped_overflow == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Port(Simulator(), "p", gbps(10), us(2), 0)

    @given(
        ops=st.lists(
            st.one_of(
                st.none(),  # let one event run (a serialization completes)
                st.tuples(  # send (size, ECN-capable?)
                    st.integers(min_value=40, max_value=1500), st.booleans()
                ),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity(self, ops):
        capacity, threshold = 3000, 1000
        sim = Simulator()
        port = Port(sim, "p", gbps(10), us(2), capacity,
                    aqm=DctcpRed(threshold_bytes=threshold))
        port.peer = _Sink()
        peak = 0
        for op in ops:
            if op is None:
                sim.run(max_events=1)
            else:
                size, ect = op
                before = port.queue_bytes
                enqueued = port.stats.enqueued_packets
                port.send(make_packet(size=size,
                                      ecn=Ecn.ECT0 if ect else Ecn.NOT_ECT))
                admitted = port.stats.enqueued_packets > enqueued
                # Overflow first, then DctcpRed's not-ECT veto at/above K.
                assert admitted == (before + size <= capacity
                                    and (ect or before < threshold))
                if admitted:
                    peak = max(peak, before + size)
            assert 0 <= port.queue_bytes <= capacity
            assert port.buffer_peak_bytes == peak
        sim.run()
        assert port.queue_bytes == 0
        assert port.buffer_peak_bytes == peak
