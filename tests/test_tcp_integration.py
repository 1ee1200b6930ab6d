"""Transport integration: real transfers over the simulated network."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.red import SojournRed
from repro.sim.packet import PacketFactory
from repro.sim.units import gbps, kb, mb, us
from repro.tcp import open_flow
from repro.topology import build_star

from conftest import make_two_host_network


def transfer(size_bytes, cc="dctcp", n_background=0, buffer_bytes=mb(1)):
    """One flow (plus optional competitors) over a 4-sender star."""
    topo = build_star(n_senders=4, buffer_bytes=buffer_bytes)
    factory = PacketFactory()
    main = open_flow(topo.network, factory, topo.senders[0], topo.receiver, size_bytes, cc=cc)
    competitors = [
        open_flow(topo.network, factory, topo.senders[1 + i], topo.receiver, size_bytes, cc=cc)
        for i in range(n_background)
    ]
    topo.network.sim.run_until_idle(max_events=50_000_000)
    return topo, main, competitors


class TestReliableDelivery:
    @pytest.mark.parametrize("size", [1, 100, 1460, 1461, 100_000, 5_000_000])
    def test_every_size_completes(self, size):
        _, flow, _ = transfer(size)
        assert flow.completed
        assert flow.sink.expected == flow.sender.total_segments

    @pytest.mark.parametrize("cc", ["dctcp", "reno"])
    def test_both_transports_complete(self, cc):
        _, flow, _ = transfer(500_000, cc=cc)
        assert flow.completed

    def test_fct_close_to_line_rate_for_bulk(self):
        _, flow, _ = transfer(10_000_000)
        goodput = flow.size_bytes * 8 / flow.fct
        assert goodput > 0.8 * gbps(10)

    def test_short_flow_fct_close_to_rtt(self):
        _, flow, _ = transfer(1000)
        # One segment: RTT ~ 4x2us prop + serialization; FCT well under 50us.
        assert flow.fct < us(50)

    def test_completes_despite_tiny_switch_buffer(self):
        # 15KB buffer forces drops; retransmission must still finish the flow.
        topo, flow, _ = transfer(2_000_000, n_background=2, buffer_bytes=15_000)
        assert flow.completed
        total_drops = sum(p.stats.dropped_total for p in topo.switch.ports)
        assert total_drops > 0  # the scenario actually exercised loss


class TestFairnessAndSharing:
    def test_two_flows_share_fairly_with_marking(self):
        topo = build_star(
            n_senders=4, aqm_factory=lambda: SojournRed(us(60))
        )
        factory = PacketFactory()
        flows = [
            open_flow(topo.network, factory, topo.senders[i], topo.receiver, 8_000_000)
            for i in range(2)
        ]
        topo.network.sim.run_until_idle(max_events=50_000_000)
        fcts = [flow.fct for flow in flows]
        assert max(fcts) / min(fcts) < 1.3  # near-equal completion

    def test_aggregate_goodput_near_capacity(self):
        topo = build_star(n_senders=4, aqm_factory=lambda: SojournRed(us(60)))
        factory = PacketFactory()
        flows = [
            open_flow(topo.network, factory, topo.senders[i], topo.receiver, 4_000_000)
            for i in range(3)
        ]
        topo.network.sim.run_until_idle(max_events=50_000_000)
        total_bytes = sum(flow.size_bytes for flow in flows)
        duration = max(flow.sink.completion_time for flow in flows)
        assert total_bytes * 8 / duration > 0.75 * gbps(10)

    def test_marking_keeps_queue_bounded(self):
        topo = build_star(n_senders=4, aqm_factory=lambda: SojournRed(us(60)))
        factory = PacketFactory()
        for index in range(3):
            open_flow(topo.network, factory, topo.senders[index], topo.receiver, 4_000_000)
        from repro.sim.monitor import QueueMonitor

        monitor = QueueMonitor(
            topo.sim, topo.bottleneck, interval=us(20), stop=0.008
        )
        topo.network.run(until=0.009)
        # 60us sojourn at 10G ~ 50 packets; cut-off marking bounds the queue
        # near the threshold (plus slow-start overshoot transients).
        assert statistics.mean(monitor.series()[1]) < 150


class TestOpenFlowApi:
    def test_same_host_rejected(self):
        topo = build_star(n_senders=2)
        factory = PacketFactory()
        with pytest.raises(ValueError):
            open_flow(topo.network, factory, topo.senders[0], topo.senders[0], 1000)

    def test_unknown_cc_rejected(self):
        topo = build_star(n_senders=2)
        factory = PacketFactory()
        with pytest.raises(ValueError):
            open_flow(
                topo.network, factory, topo.senders[0], topo.receiver, 1000, cc="bbr"
            )

    def test_fct_before_completion_raises(self):
        topo = build_star(n_senders=2)
        factory = PacketFactory()
        flow = open_flow(topo.network, factory, topo.senders[0], topo.receiver, 1000)
        with pytest.raises(RuntimeError):
            _ = flow.fct

    def test_on_complete_receives_handle(self):
        topo = build_star(n_senders=2)
        factory = PacketFactory()
        seen = []
        flow = open_flow(
            topo.network, factory, topo.senders[0], topo.receiver, 1000,
            on_complete=seen.append,
        )
        topo.network.sim.run_until_idle()
        assert seen == [flow]

    def test_start_time_honoured(self):
        topo = build_star(n_senders=2)
        factory = PacketFactory()
        flow = open_flow(
            topo.network, factory, topo.senders[0], topo.receiver, 1000,
            start_time=0.005,
        )
        topo.network.sim.run_until_idle()
        assert flow.sink.completion_time > 0.005


class TestPropertyTransfers:
    @given(size=st.integers(min_value=1, max_value=300_000))
    @settings(max_examples=20, deadline=None)
    def test_any_size_delivers_exactly_once(self, size):
        _, flow, _ = transfer(size)
        assert flow.completed
        sink = flow.sink
        # Everything arrived, nothing left buffered out of order.
        assert sink.expected == flow.sender.total_segments
        assert not sink._out_of_order

    @given(
        sizes=st.lists(
            st.integers(min_value=1_000, max_value=200_000), min_size=2, max_size=4
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_concurrent_flows_all_complete(self, sizes):
        topo = build_star(n_senders=4, aqm_factory=lambda: SojournRed(us(100)))
        factory = PacketFactory()
        flows = [
            open_flow(
                topo.network,
                factory,
                topo.senders[index % len(topo.senders)],
                topo.receiver,
                size,
            )
            for index, size in enumerate(sizes)
        ]
        topo.network.sim.run_until_idle(max_events=50_000_000)
        assert all(flow.completed for flow in flows)
