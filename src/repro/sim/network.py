"""Nodes, switches, hosts and network wiring.

A :class:`Network` owns the simulator, the nodes, and the links between
them.  After topology construction, :meth:`Network.compute_routes` installs
static shortest-path routing tables with ECMP: every node learns, for each
destination host, the set of equal-cost next-hop ports; a deterministic
per-flow hash picks among them (per-flow ECMP, as in the paper's leaf-spine
simulations).

Hosts carry transport endpoints (senders and sinks, see ``repro.tcp``) and an
optional netem-style egress delay stage used to emulate base-RTT variation
(see ``repro.netem``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Tuple

from .engine import Simulator
from .packet import Packet
from .port import Port
from .scheduler import Scheduler
from .units import mb

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import Aqm

__all__ = ["Node", "Switch", "Host", "Network", "Endpoint"]

DEFAULT_BUFFER_BYTES = mb(1)
"""Default per-port buffer: 1 MB (~667 full-size packets), a typical
shallow-buffer slice of a Tofino-class shared buffer."""


class Endpoint(Protocol):
    """Anything that can receive packets addressed to a flow on a host."""

    def receive(self, packet: Packet) -> None: ...


def _ecmp_hash(flow_id: int, salt: int) -> int:
    """Deterministic multiplicative hash for per-flow ECMP path selection."""
    value = (flow_id * 2654435761 + salt * 40503) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 2246822519) & 0xFFFFFFFF
    value ^= value >> 13
    return value


class Node:
    """Base class: a named device with egress ports and neighbours."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.name = name
        self.ports: List[Port] = []
        self.neighbors: Dict[str, Port] = {}  # neighbour name -> egress port
        self._salt = 0  # set by Network when registered, for ECMP hashing

    def attach_port(self, port: Port, neighbor_name: str) -> None:
        self.ports.append(port)
        self.neighbors[neighbor_name] = port

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Switch(Node):
    """A switch forwards by destination with ECMP across equal-cost ports."""

    def __init__(self, network: "Network", name: str) -> None:
        super().__init__(network, name)
        self.routes: Dict[str, List[Port]] = {}

    def receive(self, packet: Packet) -> None:
        ports = self.routes.get(packet.dst)
        if not ports:
            raise RuntimeError(f"switch {self.name} has no route to {packet.dst}")
        if len(ports) == 1:
            port = ports[0]
        else:
            port = ports[_ecmp_hash(packet.flow_id, self._salt) % len(ports)]
        port.send(packet)


class Host(Node):
    """An end host: transport endpoints plus an optional egress delay stage.

    The delay stage emulates netem: before a packet reaches the host's NIC
    queue it is held for a per-packet delay supplied by ``egress_delay_fn``
    (typically constant per flow; see ``repro.netem.delay``).
    """

    def __init__(self, network: "Network", name: str) -> None:
        super().__init__(network, name)
        self._endpoints: Dict[int, Endpoint] = {}
        self.egress_delay_fn: Optional[Callable[[Packet], float]] = None
        self._uplink: Optional[Port] = None  # set while exactly one port is attached

    def attach_port(self, port: Port, neighbor_name: str) -> None:
        super().attach_port(port, neighbor_name)
        self._uplink = port if len(self.ports) == 1 else None

    @property
    def uplink(self) -> Port:
        """The host's single egress port (hosts are single-homed here)."""
        if self._uplink is None:
            raise RuntimeError(
                f"host {self.name} has {len(self.ports)} ports; expected 1"
            )
        return self._uplink

    def register_endpoint(self, flow_id: int, endpoint: Endpoint) -> None:
        if flow_id in self._endpoints:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self._endpoints[flow_id] = endpoint

    def unregister_endpoint(self, flow_id: int) -> None:
        self._endpoints.pop(flow_id, None)

    def transmit(self, packet: Packet) -> None:
        """Send a packet from a local transport towards the network."""
        port = self._uplink
        if port is None:
            port = self.uplink  # raises: not single-homed
        if self.egress_delay_fn is not None:
            delay = self.egress_delay_fn(packet)
            if delay > 0:
                self.sim.schedule(delay, port.send, packet)
                return
        port.send(packet)

    def receive(self, packet: Packet) -> None:
        endpoint = self._endpoints.get(packet.flow_id)
        if endpoint is not None:
            endpoint.receive(packet)
        # Packets for finished/unknown flows are silently consumed, matching
        # a real host dropping segments for closed connections.


class Network:
    """Container for nodes + links; computes ECMP routes over the topology."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.nodes: Dict[str, Node] = {}
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}

    # ---------------------------------------------------------- construction

    def add_host(self, name: str) -> Host:
        host = Host(self, name)
        self._register(host)
        self.hosts[name] = host
        return host

    def add_switch(self, name: str) -> Switch:
        switch = Switch(self, name)
        self._register(switch)
        self.switches[name] = switch
        return switch

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        node._salt = len(self.nodes) + 1
        self.nodes[node.name] = node

    def connect(
        self,
        a: Node,
        b: Node,
        rate_bps: float,
        propagation_delay: float,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        aqm_a_to_b: Optional["Aqm"] = None,
        aqm_b_to_a: Optional["Aqm"] = None,
        scheduler_a_to_b: Optional[Scheduler] = None,
        scheduler_b_to_a: Optional[Scheduler] = None,
        buffer_bytes_a_to_b: Optional[int] = None,
        buffer_bytes_b_to_a: Optional[int] = None,
    ) -> Tuple[Port, Port]:
        """Create a full-duplex link: one egress port on each side.

        ``buffer_bytes`` applies to both directions unless a per-direction
        override is given (host uplinks model deep qdisc buffers while
        switch ports stay shallow)."""
        port_ab = Port(
            self.sim,
            name=f"{a.name}->{b.name}",
            rate_bps=rate_bps,
            propagation_delay=propagation_delay,
            buffer_bytes=(
                buffer_bytes_a_to_b if buffer_bytes_a_to_b is not None else buffer_bytes
            ),
            aqm=aqm_a_to_b,
            scheduler=scheduler_a_to_b,
        )
        port_ba = Port(
            self.sim,
            name=f"{b.name}->{a.name}",
            rate_bps=rate_bps,
            propagation_delay=propagation_delay,
            buffer_bytes=(
                buffer_bytes_b_to_a if buffer_bytes_b_to_a is not None else buffer_bytes
            ),
            aqm=aqm_b_to_a,
            scheduler=scheduler_b_to_a,
        )
        port_ab.peer = b
        port_ba.peer = a
        a.attach_port(port_ab, b.name)
        b.attach_port(port_ba, a.name)
        return port_ab, port_ba

    # --------------------------------------------------------------- routing

    def compute_routes(self) -> None:
        """Install ECMP shortest-path routes to every host on every switch.

        Runs a BFS from each destination host over the (unweighted) adjacency
        graph; a switch's next hops towards a destination are all neighbours
        strictly closer to it (the equal-cost set).
        """
        adjacency: Dict[str, List[str]] = {
            name: list(node.neighbors.keys()) for name, node in self.nodes.items()
        }
        for dst_name in self.hosts:
            distance = self._bfs_distances(adjacency, dst_name)
            for switch in self.switches.values():
                if switch.name not in distance:
                    continue
                here = distance[switch.name]
                next_hops = [
                    switch.neighbors[nbr]
                    for nbr in adjacency[switch.name]
                    if distance.get(nbr, float("inf")) == here - 1
                ]
                if next_hops:
                    switch.routes[dst_name] = next_hops

    @staticmethod
    def _bfs_distances(adjacency: Dict[str, List[str]], source: str) -> Dict[str, int]:
        distance = {source: 0}
        frontier = deque([source])
        while frontier:
            current = frontier.popleft()
            for neighbor in adjacency[current]:
                if neighbor not in distance:
                    distance[neighbor] = distance[current] + 1
                    frontier.append(neighbor)
        return distance

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None) -> None:
        """Convenience passthrough to the simulator."""
        self.sim.run(until=until)
