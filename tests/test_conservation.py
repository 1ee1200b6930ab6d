"""Conservation invariants: nothing is created, lost or reordered silently.

These are the simulator-wide bookkeeping guarantees every experiment relies
on:

* port conservation -- every packet admitted to a port is eventually
  transmitted, dropped, or still queued; buffer accounting returns to zero;
* end-to-end conservation -- segments delivered to sinks equal segments
  sent minus drops (counting retransmissions);
* in-order delivery -- with per-flow ECMP and FIFO ports, a flow's packets
  never reorder, so sinks see no out-of-order buffering unless packets were
  actually dropped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.red import SojournRed
from repro.experiments.fct import FctCollector
from repro.sim import PacketFactory
from repro.sim.units import gbps, us
from repro.tcp import open_flow
from repro.topology import build_leafspine, build_star
from repro.workloads import (
    WEB_SEARCH,
    PoissonTrafficGenerator,
    star_pair_picker,
)


class TestPortConservation:
    @given(
        sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=80),
        buffer_bytes=st.integers(min_value=3_000, max_value=30_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_admitted_equals_tx_plus_dropped(self, sizes, buffer_bytes):
        from repro.sim.engine import Simulator
        from repro.sim.port import Port
        from conftest import make_packet

        sim = Simulator()
        port = Port(sim, "p", gbps(10), us(2), buffer_bytes)
        received = []

        class _Sink:
            def receive(self, packet):
                received.append(packet)

        port.peer = _Sink()
        for index, size in enumerate(sizes):
            port.send(make_packet(seq=index, size=size))
        sim.run_until_idle()

        assert port.stats.tx_packets == len(received)
        assert port.stats.tx_packets + port.stats.dropped_total == len(sizes)
        assert port.queue_bytes == 0
        assert port.queue_packets == 0
        # Bytes conserved too.
        assert port.stats.tx_bytes == sum(p.size for p in received)


class TestEndToEndConservation:
    def run_workload(self, buffer_bytes=1_048_576, n_flows=40, seed=5, aqm=None):
        topo = build_star(n_senders=5, buffer_bytes=buffer_bytes, aqm_factory=aqm)
        rng = np.random.default_rng(seed)
        collector = FctCollector()
        generator = PoissonTrafficGenerator(
            network=topo.network,
            factory=PacketFactory(),
            pair_picker=star_pair_picker(topo.senders, topo.receiver),
            workload=WEB_SEARCH,
            load=0.6,
            capacity_bps=gbps(10),
            n_flows=n_flows,
            rng=rng,
            on_flow_complete=collector.record,
        )
        generator.start()
        topo.network.sim.run_until_idle(max_events=100_000_000)
        return topo, generator, collector

    def test_all_segments_accounted_without_loss(self):
        # ECN marking keeps the drop-tail buffer from ever filling; with
        # pure drop-tail (no AQM) loss would be the *expected* behaviour.
        topo, generator, collector = self.run_workload(
            aqm=lambda: SojournRed(us(200))
        )
        total_drops = sum(
            port.stats.dropped_total
            for node in topo.network.nodes.values()
            for port in node.ports
        )
        assert total_drops == 0
        for flow in generator.flows:
            # Without loss there are no retransmissions and exactly
            # total_segments distinct deliveries.
            assert flow.sender.stats.retransmissions == 0
            assert flow.sink.expected == flow.sender.total_segments
            assert flow.sink.duplicates_received == 0
            assert not flow.sink._out_of_order

    def test_loss_accounted_by_retransmissions(self):
        topo, generator, collector = self.run_workload(buffer_bytes=30_000)
        total_drops = sum(
            port.stats.dropped_total
            for node in topo.network.nodes.values()
            for port in node.ports
        )
        assert total_drops > 0  # the tiny buffer actually bit
        for flow in generator.flows:
            assert flow.completed
            sent = flow.sender.stats.segments_sent
            retx = flow.sender.stats.retransmissions
            # Every segment was sent at least once; extras are labelled.
            assert sent >= flow.sender.total_segments
            assert sent - flow.sender.total_segments <= retx


class TestInOrderDelivery:
    def test_no_reordering_across_leafspine_without_loss(self):
        topo = build_leafspine(n_spines=3, n_leaves=2, hosts_per_leaf=3)
        factory = PacketFactory()
        flows = []
        for index in range(9):
            src = topo.hosts[index % len(topo.hosts)]
            dst = topo.hosts[(index + 3) % len(topo.hosts)]
            if src is dst:
                continue
            flows.append(open_flow(topo.network, factory, src, dst, 300_000))
        topo.network.sim.run_until_idle(max_events=100_000_000)
        total_drops = sum(
            port.stats.dropped_total
            for node in topo.network.nodes.values()
            for port in node.ports
        )
        assert total_drops == 0
        for flow in flows:
            assert flow.completed
            # Per-flow ECMP pins one path: no reordering possible.
            assert flow.sink.duplicates_received == 0
            assert flow.sender.stats.fast_retransmits == 0
