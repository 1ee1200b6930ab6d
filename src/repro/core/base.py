"""AQM (active queue management) interface.

Every marking scheme in this reproduction -- ECN#, DCTCP-RED, CoDel, TCN --
implements :class:`Aqm`.  An egress port invokes the two hooks:

* ``on_enqueue`` when a packet is admitted to the port buffer.  Queue-length
  based schemes (classic DCTCP-RED) mark here; an AQM may also veto admission
  (return ``False``) to model AQM drops distinct from buffer overflow.
* ``on_dequeue`` when a packet is pulled for serialization.  Sojourn-time
  based schemes (ECN#, CoDel, TCN, sojourn-RED) mark here, because only at
  dequeue is the packet's time-in-queue known.

Marking a packet whose transport is not ECN-capable falls back to dropping,
per RFC 3168: helpers return whether the packet survived.
"""

from __future__ import annotations

from abc import ABC
from typing import Optional

from ..sim.packet import Ecn, Packet
from ..telemetry.runtime import dataplane_telemetry

__all__ = ["Aqm", "NullAqm", "MarkingStats"]


class MarkingStats:
    """Counters every AQM keeps, used by tests and experiment reports."""

    __slots__ = ("marks", "instant_marks", "persistent_marks", "aqm_drops", "packets_seen")

    def __init__(self) -> None:
        self.marks = 0
        self.instant_marks = 0
        self.persistent_marks = 0
        self.aqm_drops = 0
        self.packets_seen = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MarkingStats marks={self.marks} instant={self.instant_marks} "
            f"persistent={self.persistent_marks} drops={self.aqm_drops}>"
        )


class Aqm(ABC):
    """Base class for marking schemes attached to an egress port."""

    def __init__(self) -> None:
        self.stats = MarkingStats()
        self.telemetry = dataplane_telemetry()

    # ------------------------------------------------------------------ API

    def on_enqueue(self, packet: Packet, now: float, queue_bytes: int) -> bool:
        """Called on admission.  ``queue_bytes`` is the occupancy *before*
        this packet.  Return ``False`` to drop the packet (AQM drop)."""
        return True

    def on_dequeue(self, packet: Packet, now: float) -> bool:
        """Called when the packet leaves the queue for the wire.  Return
        ``False`` to drop the packet instead of transmitting it (CoDel's
        behaviour for not-ECT traffic)."""
        return True

    def reset(self) -> None:
        """Clear internal state between experiments (subclasses extend)."""
        self.stats = MarkingStats()

    # -------------------------------------------------------------- helpers

    def _congestion_signal(
        self, packet: Packet, kind: str = "instant", now: float = -1.0
    ) -> bool:
        """Apply a congestion signal: CE-mark if ECN-capable, else report
        that the packet should be dropped.  Returns True if the packet
        survives (was marked), False if it must be dropped.

        ``now`` timestamps the telemetry mark event; callers inside the
        enqueue/dequeue hooks pass the hook's clock.
        """
        if Ecn.is_ect(packet.ecn):  # CE counts as ECN-capable too
            packet.mark_ce()
            self.stats.marks += 1
            if kind == "instant":
                self.stats.instant_marks += 1
            elif kind == "persistent":
                self.stats.persistent_marks += 1
            if self.telemetry is not None:
                self.telemetry.on_mark(type(self).__name__, packet, kind, now)
            return True
        self.stats.aqm_drops += 1
        return False


class NullAqm(Aqm):
    """No marking at all: pure drop-tail.  Useful as a control in tests."""

    def on_enqueue(self, packet: Packet, now: float, queue_bytes: int) -> bool:
        self.stats.packets_seen += 1
        return True
