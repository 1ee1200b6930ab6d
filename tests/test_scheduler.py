"""Unit tests for packet schedulers (FIFO, strict priority, DWRR)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import DwrrScheduler, FifoScheduler, StrictPriorityScheduler

from conftest import make_packet


class TestFifo:
    def test_single_queue_order(self):
        scheduler = FifoScheduler()
        for seq in range(4):
            scheduler.enqueue(make_packet(seq=seq))
        assert [scheduler.dequeue().seq for _ in range(4)] == [0, 1, 2, 3]

    def test_empty_returns_none(self):
        assert FifoScheduler().dequeue() is None

    def test_out_of_range_service_uses_last_queue(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(make_packet(service=7))
        assert scheduler.total_packets == 1

    def test_totals(self):
        scheduler = FifoScheduler()
        scheduler.enqueue(make_packet(size=100))
        scheduler.enqueue(make_packet(size=200))
        assert scheduler.total_bytes == 300
        assert scheduler.total_packets == 2


class TestStrictPriority:
    def test_low_index_first(self):
        scheduler = StrictPriorityScheduler(num_queues=3)
        scheduler.enqueue(make_packet(seq=1, service=2))
        scheduler.enqueue(make_packet(seq=2, service=0))
        scheduler.enqueue(make_packet(seq=3, service=1))
        order = [scheduler.dequeue().service for _ in range(3)]
        assert order == [0, 1, 2]

    def test_starvation_of_low_priority(self):
        scheduler = StrictPriorityScheduler(num_queues=2)
        scheduler.enqueue(make_packet(service=1))
        scheduler.enqueue(make_packet(service=0))
        assert scheduler.dequeue().service == 0


class TestDwrrBasics:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DwrrScheduler([])
        with pytest.raises(ValueError):
            DwrrScheduler([1.0, 0.0])

    def test_single_queue_is_fifo(self):
        scheduler = DwrrScheduler([1.0])
        for seq in range(3):
            scheduler.enqueue(make_packet(seq=seq))
        assert [scheduler.dequeue().seq for _ in range(3)] == [0, 1, 2]

    def test_empty_returns_none_and_resets(self):
        scheduler = DwrrScheduler([2.0, 1.0])
        assert scheduler.dequeue() is None

    def test_work_conserving(self):
        # A single backlogged queue gets everything even with weight 1/100.
        scheduler = DwrrScheduler([100.0, 1.0])
        for seq in range(5):
            scheduler.enqueue(make_packet(seq=seq, service=1))
        served = [scheduler.dequeue() for _ in range(5)]
        assert all(p is not None and p.service == 1 for p in served)


class TestDwrrShares:
    @staticmethod
    def run_shares(weights, n_packets=3000, size=1500):
        scheduler = DwrrScheduler(weights)
        # Keep all queues persistently backlogged.
        for queue_index in range(len(weights)):
            for seq in range(n_packets):
                scheduler.enqueue(make_packet(seq=seq, service=queue_index, size=size))
        served_bytes = [0] * len(weights)
        for _ in range(n_packets):
            packet = scheduler.dequeue()
            served_bytes[packet.service] += packet.size
        return served_bytes

    def test_2_1_1_shares(self):
        served = self.run_shares([2.0, 1.0, 1.0])
        total = sum(served)
        assert served[0] / total == pytest.approx(0.5, abs=0.02)
        assert served[1] / total == pytest.approx(0.25, abs=0.02)
        assert served[2] / total == pytest.approx(0.25, abs=0.02)

    def test_equal_weights_equal_shares(self):
        served = self.run_shares([1.0, 1.0])
        assert served[0] == pytest.approx(served[1], rel=0.05)

    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=8.0), min_size=2, max_size=4
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_shares_proportional_to_weights(self, weights):
        served = self.run_shares(weights, n_packets=2000)
        total_weight = sum(weights)
        total_bytes = sum(served)
        for share, weight in zip(served, weights):
            assert share / total_bytes == pytest.approx(
                weight / total_weight, abs=0.05
            )

    def test_mixed_packet_sizes_fair_in_bytes(self):
        scheduler = DwrrScheduler([1.0, 1.0])
        # Queue 0 sends jumbo-ish packets, queue 1 small ones.
        for seq in range(2000):
            scheduler.enqueue(make_packet(seq=seq, service=0, size=1500))
        for seq in range(20000):
            scheduler.enqueue(make_packet(seq=seq, service=1, size=150))
        served_bytes = [0, 0]
        for _ in range(8000):
            packet = scheduler.dequeue()
            served_bytes[packet.service] += packet.size
        ratio = served_bytes[0] / served_bytes[1]
        assert ratio == pytest.approx(1.0, abs=0.15)

    def test_idle_queue_banks_no_credit(self):
        scheduler = DwrrScheduler([1.0, 1.0], base_quantum=1500)
        # Only queue 0 is busy for a while...
        for seq in range(100):
            scheduler.enqueue(make_packet(seq=seq, service=0))
        for _ in range(100):
            scheduler.dequeue()
        # ...then queue 1 wakes up; it must not burst ahead of queue 0.
        for seq in range(100):
            scheduler.enqueue(make_packet(seq=seq, service=0))
            scheduler.enqueue(make_packet(seq=seq, service=1))
        served = [0, 0]
        for _ in range(100):
            served[scheduler.dequeue().service] += 1
        assert abs(served[0] - served[1]) <= 2


class TestOccupancyCounters:
    """``total_bytes`` / ``total_packets`` are O(1) counters a port reads on
    every admission; they must equal the sum over the queues after any
    interleaving of enqueues and dequeues, for every discipline."""

    BUILDERS = {
        "fifo": FifoScheduler,
        "strict": lambda: StrictPriorityScheduler(num_queues=3),
        "dwrr": lambda: DwrrScheduler(weights=[2, 1, 1]),
        "dwrr-small-quantum": lambda: DwrrScheduler(weights=[1, 3], base_quantum=100),
    }

    @given(
        kind=st.sampled_from(sorted(BUILDERS)),
        ops=st.lists(
            st.one_of(
                st.none(),  # dequeue
                st.tuples(  # enqueue (service, size); service may be out of range
                    st.integers(min_value=-1, max_value=4),
                    st.integers(min_value=40, max_value=9000),
                ),
            ),
            max_size=120,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_counters_equal_recomputed_sums(self, kind, ops):
        scheduler = self.BUILDERS[kind]()
        inside = 0
        for op in ops:
            if op is None:
                packet = scheduler.dequeue()
                assert (packet is None) == (inside == 0)
                inside -= packet is not None
            else:
                service, size = op
                scheduler.enqueue(make_packet(service=service, size=size))
                inside += 1
            assert scheduler.total_packets == inside
            assert scheduler.total_packets == sum(
                q.packet_length for q in scheduler.queues
            )
            assert scheduler.total_bytes == sum(
                q.byte_length for q in scheduler.queues
            )
            assert scheduler.is_empty() == (inside == 0)
        while scheduler.dequeue() is not None:
            pass
        assert (scheduler.total_packets, scheduler.total_bytes) == (0, 0)
