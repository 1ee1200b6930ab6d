"""Egress ports: serialization, buffering, AQM hook points.

A :class:`Port` models one direction of a link attached to a node: it owns a
packet scheduler (one or more queues), a drop-tail buffer budget, an AQM, a
serialization rate and the propagation delay to the peer node.

The buffer's occupancy *is* the scheduler's ``total_bytes``: every admitted
packet is enqueued and every dequeued one leaves it, so the port keeps only
the capacity and the high-water mark of admitted occupancy.

The transmit loop is event-driven: a port is either idle or has exactly one
in-flight serialization event.  ``send`` enqueues (running the AQM's enqueue
hook and buffer admission) and kicks the loop if idle; each serialization
completion hands the packet to the peer after the propagation delay and, if
anything is queued, pulls the next packet (running the AQM's dequeue hook,
where sojourn-time markers act).  That is two events per packet per hop, in
the same ``(time, insertion-sequence)`` order on every port, which is what
keeps results bit-identical across changes to this file.

These are the hottest handlers of a packet run, so they read the clock
straight off the event queue (``sim._q.now``, not the ``Simulator.now``
property) and the occupancy off the scheduler's O(1) counters, and the
serialization callback is bound once at construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..telemetry.runtime import dataplane_telemetry
from .engine import Simulator
from .packet import Packet
from .scheduler import FifoScheduler, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import Aqm
    from .network import Node

__all__ = ["Port", "PortStats"]


class PortStats:
    """Per-port counters used by experiments and tests."""

    __slots__ = (
        "enqueued_packets",
        "tx_packets",
        "tx_bytes",
        "dropped_overflow",
        "dropped_aqm",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_overflow = 0
        self.dropped_aqm = 0

    @property
    def dropped_total(self) -> int:
        return self.dropped_overflow + self.dropped_aqm


class Port:
    """One egress direction of a link."""

    __slots__ = (
        "sim",
        "name",
        "rate_bps",
        "propagation_delay",
        "scheduler",
        "buffer_bytes",
        "buffer_peak_bytes",
        "aqm",
        "peer",
        "stats",
        "_busy",
        "telemetry",
        "_q",
        "_transmission_done",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        propagation_delay: float,
        buffer_bytes: int,
        aqm: Optional["Aqm"] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("port rate must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")
        if buffer_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        # Imported here (not at module scope) to keep repro.sim importable
        # from repro.core.base, which only needs sim.packet.
        from ..core.base import NullAqm

        self.sim = sim
        self._q = sim._q  # the clock and the insert path, minus a hop each
        self.name = name
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.buffer_bytes = buffer_bytes
        self.buffer_peak_bytes = 0  # high-water mark of admitted occupancy
        self.aqm = aqm if aqm is not None else NullAqm()
        self.peer: Optional["Node"] = None
        self.stats = PortStats()
        self._busy = False
        self._transmission_done = self._transmission_complete
        # Attached once here; every hot-path hook below is a single
        # ``is not None`` check when telemetry is inactive.
        self.telemetry = dataplane_telemetry()
        if self.telemetry is not None:
            self.telemetry.register_port(self)

    # ------------------------------------------------------------- queueing

    @property
    def queue_bytes(self) -> int:
        """Instantaneous queue occupancy in bytes (all service queues)."""
        return self.scheduler.total_bytes

    @property
    def queue_packets(self) -> int:
        """Instantaneous queue occupancy in packets (all service queues)."""
        return self.scheduler.total_packets

    def send(self, packet: Packet) -> None:
        """Admit a packet to the port: buffer check, AQM enqueue hook,
        enqueue, and start transmitting if the line is idle."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        now = self._q.now
        scheduler = self.scheduler
        queue_bytes = scheduler.total_bytes
        occupancy = queue_bytes + packet.size
        if occupancy > self.buffer_bytes:
            self._drop(packet, "overflow", now)
            return
        if not self.aqm.on_enqueue(packet, now, queue_bytes):
            self._drop(packet, "aqm", now)
            return
        packet.enqueue_time = now
        scheduler.enqueue(packet)
        if occupancy > self.buffer_peak_bytes:
            self.buffer_peak_bytes = occupancy
        self.stats.enqueued_packets += 1
        if self.telemetry is not None:
            self.telemetry.on_enqueue(self, packet, now)
        if not self._busy:
            self._transmit_next(now)

    def _drop(self, packet: Packet, reason: str, now: float) -> None:
        if reason == "overflow":
            self.stats.dropped_overflow += 1
        else:
            self.stats.dropped_aqm += 1
        if self.telemetry is not None:
            self.telemetry.on_drop(self, packet, reason, now)

    # --------------------------------------------------------- transmit loop

    def _transmit_next(self, now: float) -> None:
        """Pull packets until one survives the AQM's dequeue hook and goes
        on the wire, or the queues run dry and the line goes idle."""
        scheduler = self.scheduler
        aqm = self.aqm
        while True:
            packet = scheduler.dequeue()
            if packet is None:
                self._busy = False
                return
            if aqm.on_dequeue(packet, now):
                break
            # AQM chose to drop at dequeue (not-ECT under marking).
            self._drop(packet, "aqm", now)
        if self.telemetry is not None:
            self.telemetry.on_dequeue(self, packet, now)
        self._busy = True
        # units.transmission_delay's expression; __init__ validated the rate.
        self._q.schedule(
            packet.size * 8.0 / self.rate_bps, self._transmission_done, packet)

    def _transmission_complete(self, packet: Packet) -> None:
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += packet.size
        q = self._q
        q.schedule(self.propagation_delay, self.peer.receive, packet)  # type: ignore[union-attr]
        if self.scheduler.total_packets:
            self._transmit_next(q.now)
        else:
            self._busy = False
