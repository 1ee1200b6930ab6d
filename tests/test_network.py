"""Unit tests for nodes, switches, hosts, wiring and ECMP routing."""

import pytest

from repro.sim.network import Network
from repro.sim.units import gbps, us

from conftest import make_packet, make_two_host_network


class TestConstruction:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_switch("x")

    def test_connect_creates_two_ports(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        port_ab, port_ba = net.connect(a, b, gbps(10), us(1))
        assert port_ab.peer is b and port_ba.peer is a
        assert a.neighbors["b"] is port_ab

    def test_per_direction_buffer_override(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        port_ab, port_ba = net.connect(
            a, b, gbps(10), us(1), buffer_bytes=1000, buffer_bytes_a_to_b=9999
        )
        assert port_ab.buffer_bytes == 9999
        assert port_ba.buffer_bytes == 1000


class TestRouting:
    def test_two_host_delivery(self):
        net, a, b, _ = make_two_host_network()
        received = []

        class _Endpoint:
            def receive(self, packet):
                received.append(packet.seq)

        b.register_endpoint(1, _Endpoint())
        a.transmit(make_packet(flow_id=1, seq=42, src="a", dst="b"))
        net.sim.run()
        assert received == [42]

    def test_switch_without_route_raises(self):
        net = Network()
        a = net.add_host("a")
        sw = net.add_switch("sw")
        net.connect(a, sw, gbps(10), us(1))
        # No route computed for unknown destination "zzz".
        net.compute_routes()
        packet = make_packet(dst="zzz")
        with pytest.raises(RuntimeError):
            sw.receive(packet)

    def test_ecmp_multiple_equal_paths(self):
        # diamond: a - s1 - {s2, s3} - s4 - b
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        s1, s2, s3, s4 = (net.add_switch(f"s{i}") for i in range(1, 5))
        net.connect(a, s1, gbps(10), us(1))
        net.connect(s1, s2, gbps(10), us(1))
        net.connect(s1, s3, gbps(10), us(1))
        net.connect(s2, s4, gbps(10), us(1))
        net.connect(s3, s4, gbps(10), us(1))
        net.connect(s4, b, gbps(10), us(1))
        net.compute_routes()
        assert len(s1.routes["b"]) == 2  # two equal-cost next hops
        assert len(s4.routes["b"]) == 1

    def test_ecmp_is_per_flow_deterministic(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        s1, s2, s3, s4 = (net.add_switch(f"s{i}") for i in range(1, 5))
        net.connect(a, s1, gbps(10), us(1))
        net.connect(s1, s2, gbps(10), us(1))
        net.connect(s1, s3, gbps(10), us(1))
        net.connect(s2, s4, gbps(10), us(1))
        net.connect(s3, s4, gbps(10), us(1))
        net.connect(s4, b, gbps(10), us(1))
        net.compute_routes()
        ports = s1.routes["b"]
        from repro.sim.network import _ecmp_hash

        first = _ecmp_hash(17, s1._salt) % len(ports)
        for _ in range(10):
            assert _ecmp_hash(17, s1._salt) % len(ports) == first

    def test_ecmp_spreads_flows(self):
        from repro.sim.network import _ecmp_hash

        counts = [0, 0, 0, 0]
        for flow_id in range(1000):
            counts[_ecmp_hash(flow_id, salt=3) % 4] += 1
        # Roughly uniform: every path gets 15-35% of flows.
        assert all(150 <= count <= 350 for count in counts)


class TestHost:
    def test_single_uplink_enforced(self):
        net = Network()
        a = net.add_host("a")
        with pytest.raises(RuntimeError):
            _ = a.uplink  # no ports yet

    def test_duplicate_endpoint_rejected(self):
        net, a, b, _ = make_two_host_network()

        class _Endpoint:
            def receive(self, packet):
                pass

        a.register_endpoint(5, _Endpoint())
        with pytest.raises(ValueError):
            a.register_endpoint(5, _Endpoint())

    def test_unknown_flow_packet_consumed_silently(self):
        net, a, b, _ = make_two_host_network()
        a.transmit(make_packet(flow_id=99, src="a", dst="b"))
        net.sim.run()  # must not raise

    def test_egress_delay_applied(self):
        net, a, b, _ = make_two_host_network()
        arrivals = []

        class _Endpoint:
            def receive(self, packet):
                arrivals.append(net.sim.now)

        b.register_endpoint(1, _Endpoint())
        a.egress_delay_fn = lambda packet: us(100)
        a.transmit(make_packet(flow_id=1, src="a", dst="b"))
        net.sim.run()
        assert arrivals[0] >= us(100)

    def test_unregister_endpoint_idempotent(self):
        net, a, _, _ = make_two_host_network()
        a.unregister_endpoint(123)  # no error
