"""TCP receiver: cumulative ACKs, ECN echo, flow completion recording.

The sink acknowledges every data segment immediately (no delayed ACKs) and
echoes the CE mark of the segment that triggered the ACK -- the "accurate
ECE" behaviour DCTCP requires so the sender can estimate the marked fraction.
For the Reno variant this per-packet echo is a faithful-enough stand-in for
RFC 3168 ECE latching because Reno reacts at most once per window anyway.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from ..sim.engine import Simulator
from ..sim.network import Host
from ..sim.packet import Ecn, Packet, acquire_packet, release_packet
from ..sim.units import ACK_SIZE

__all__ = ["TcpSink"]


class TcpSink:
    """Receiver endpoint for one flow.

    Args:
        sim: simulator.
        host: the receiving host.
        flow_id: flow identifier (matches the sender's).
        src: the *sender's* host name (destination of ACKs).
        total_segments: number of segments the flow carries.
        on_complete: fired once, when the last in-order byte arrives.  This
            is the receiver-side FCT event used by the experiment harness.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        src: str,
        total_segments: int,
        service: int = 0,
        on_complete: Optional[Callable[["TcpSink"], None]] = None,
    ) -> None:
        if total_segments <= 0:
            raise ValueError("total_segments must be positive")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.src = src
        self.total_segments = total_segments
        self.service = service
        self.on_complete = on_complete

        self.expected = 0  # next in-order segment index
        self._out_of_order: Set[int] = set()
        self.completed = False
        self.completion_time: float = -1.0
        self.segments_received = 0
        self.duplicates_received = 0
        self.ce_received = 0

    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            return  # sinks only consume data
        self.segments_received += 1
        ce_marked = packet.ecn == Ecn.CE
        if ce_marked:
            self.ce_received += 1

        seq = packet.seq
        if seq == self.expected:
            self.expected += 1
            while self.expected in self._out_of_order:
                self._out_of_order.discard(self.expected)
                self.expected += 1
        elif seq > self.expected:
            if seq in self._out_of_order:
                self.duplicates_received += 1
            self._out_of_order.add(seq)
        else:
            self.duplicates_received += 1

        # Cumulative ACK echoing this segment's CE mark.
        self.host.transmit(acquire_packet(
            self.flow_id, self.host.name, self.src, self.expected, ACK_SIZE,
            True, Ecn.NOT_ECT, ce_marked, self.service,
        ))

        if not self.completed and self.expected >= self.total_segments:
            self.completed = True
            self.completion_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)
            # Stay registered: late retransmits still deserve ACKs so the
            # sender can terminate cleanly; the host drops packets for flows
            # only after the sender unregisters its side.

        # The sink is the data packet's terminal consumer: recycle it.
        release_packet(packet)
