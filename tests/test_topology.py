"""Unit tests for topology builders (star/dumbbell/incast, leaf-spine)."""

import pytest

from repro.core.red import SojournRed
from repro.sim.packet import PacketFactory
from repro.sim.scheduler import DwrrScheduler
from repro.sim.units import gbps, us
from repro.tcp import open_flow
from repro.topology import build_dumbbell, build_incast, build_leafspine, build_star


class TestStar:
    def test_dumbbell_has_seven_senders(self):
        topo = build_dumbbell()
        assert len(topo.senders) == 7
        assert topo.receiver.name == "recv"

    def test_incast_has_sixteen_senders(self):
        topo = build_incast()
        assert len(topo.senders) == 16

    def test_bottleneck_is_switch_to_receiver(self):
        topo = build_star(n_senders=3)
        assert topo.bottleneck.peer is topo.receiver

    def test_aqm_factory_gives_fresh_instances(self):
        instances = []

        def factory():
            aqm = SojournRed(us(100))
            instances.append(aqm)
            return aqm

        build_star(n_senders=3, aqm_factory=factory)
        # One per switch egress port: 3 to senders + 1 to receiver.
        assert len(instances) == 4
        assert len(set(map(id, instances))) == 4

    def test_delay_stages_installed(self):
        topo = build_star(n_senders=3)
        for host in topo.senders:
            assert topo.stage_for(host) is host.egress_delay_fn

    def test_host_uplink_buffer_deeper_than_switch(self):
        topo = build_star(n_senders=2)
        host_uplink = topo.senders[0].uplink
        assert host_uplink.buffer_bytes > topo.bottleneck.buffer_bytes

    def test_custom_bottleneck_scheduler(self):
        topo = build_star(
            n_senders=2,
            bottleneck_scheduler_factory=lambda: DwrrScheduler([2.0, 1.0, 1.0]),
        )
        assert isinstance(topo.bottleneck.scheduler, DwrrScheduler)
        assert topo.bottleneck.scheduler.num_queues == 3

    def test_invalid_sender_count(self):
        with pytest.raises(ValueError):
            build_star(n_senders=0)

    def test_end_to_end_flow(self):
        topo = build_star(n_senders=2)
        flow = open_flow(
            topo.network, PacketFactory(), topo.senders[0], topo.receiver, 10_000
        )
        topo.network.sim.run_until_idle()
        assert flow.completed


class TestLeafSpine:
    def test_dimensions(self):
        topo = build_leafspine(n_spines=2, n_leaves=3, hosts_per_leaf=4)
        assert len(topo.spines) == 2
        assert len(topo.leaves) == 3
        assert len(topo.hosts) == 12
        assert len(topo.hosts_by_leaf) == 3

    def test_paper_scale_dimensions_by_default(self):
        # Default args are the paper's 8x8x16; just verify arithmetic (do
        # not build it -- 128 hosts is slow to wire in a unit test).
        import inspect

        signature = inspect.signature(build_leafspine)
        assert signature.parameters["n_spines"].default == 8
        assert signature.parameters["n_leaves"].default == 8
        assert signature.parameters["hosts_per_leaf"].default == 16

    def test_leaf_of(self):
        topo = build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=3)
        assert topo.leaf_of(0) == 0
        assert topo.leaf_of(2) == 0
        assert topo.leaf_of(3) == 1

    def test_ecmp_routes_across_spines(self):
        topo = build_leafspine(n_spines=4, n_leaves=2, hosts_per_leaf=2)
        leaf0 = topo.leaves[0]
        remote_host = topo.hosts_by_leaf[1][0]
        # Towards a remote rack, all 4 spine uplinks are equal cost.
        assert len(leaf0.routes[remote_host.name]) == 4
        # Towards a local host there is exactly one route.
        local_host = topo.hosts_by_leaf[0][0]
        assert len(leaf0.routes[local_host.name]) == 1

    def test_cross_rack_flow_completes(self):
        topo = build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=2)
        src = topo.hosts_by_leaf[0][0]
        dst = topo.hosts_by_leaf[1][1]
        flow = open_flow(topo.network, PacketFactory(), src, dst, 100_000)
        topo.network.sim.run_until_idle()
        assert flow.completed

    def test_same_rack_flow_completes(self):
        topo = build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=2)
        src, dst = topo.hosts_by_leaf[0]
        flow = open_flow(topo.network, PacketFactory(), src, dst, 100_000)
        topo.network.sim.run_until_idle()
        assert flow.completed

    def test_aqm_on_every_fabric_port(self):
        instances = []

        def factory():
            aqm = SojournRed(us(100))
            instances.append(aqm)
            return aqm

        build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=2, aqm_factory=factory)
        # leaf->host: 4; leaf->spine: 4; spine->leaf: 4.
        assert len(instances) == 12

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            build_leafspine(n_spines=0, n_leaves=2, hosts_per_leaf=2)

    def test_flows_spread_over_spines(self):
        """Many flows between two racks should use multiple spine paths."""
        topo = build_leafspine(n_spines=4, n_leaves=2, hosts_per_leaf=2)
        factory = PacketFactory()
        src = topo.hosts_by_leaf[0][0]
        dst = topo.hosts_by_leaf[1][0]
        for _ in range(32):
            open_flow(topo.network, factory, src, dst, 5_000)
        topo.network.sim.run_until_idle()
        used_spines = sum(
            1
            for spine in topo.spines
            if any(port.stats.tx_packets > 0 for port in spine.ports)
        )
        assert used_spines >= 2


class TestOversubscription:
    def fabric_ports(self, topo):
        uplinks, downlinks, host_links = [], [], []
        for leaf in topo.leaves:
            for port in leaf.ports:
                if "->spine" in port.name:
                    uplinks.append(port)
                else:
                    host_links.append(port)
        for spine in topo.spines:
            downlinks.extend(spine.ports)
        return uplinks, downlinks, host_links

    def test_uplinks_run_at_fraction_of_host_rate(self):
        topo = build_leafspine(
            n_spines=2, n_leaves=2, hosts_per_leaf=2,
            link_rate_bps=gbps(10), oversubscription=2.0,
        )
        uplinks, downlinks, host_links = self.fabric_ports(topo)
        assert uplinks and downlinks and host_links
        for port in uplinks + downlinks:
            assert port.rate_bps == gbps(10) / 2.0
        for port in host_links:
            assert port.rate_bps == gbps(10)

    def test_default_ratio_leaves_rates_untouched(self):
        topo = build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=2,
                               link_rate_bps=gbps(10))
        uplinks, downlinks, host_links = self.fabric_ports(topo)
        for port in uplinks + downlinks + host_links:
            assert port.rate_bps == gbps(10)

    def test_undersubscription_rejected(self):
        with pytest.raises(ValueError, match="oversubscription must be >= 1"):
            build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=2,
                            oversubscription=0.5)

    def test_oversubscribed_fabric_still_completes_flows(self):
        topo = build_leafspine(n_spines=2, n_leaves=2, hosts_per_leaf=2,
                               oversubscription=4.0)
        src = topo.hosts_by_leaf[0][0]
        dst = topo.hosts_by_leaf[1][0]
        flow = open_flow(topo.network, PacketFactory(), src, dst, 100_000)
        topo.network.sim.run_until_idle()
        assert flow.completed
