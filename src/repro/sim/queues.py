"""Packet queues with byte and packet accounting.

A :class:`PacketQueue` is a FIFO with O(1) byte/packet counters.  An egress
port's scheduler owns one or more of these (one per service class when a
multi-queue scheduler is configured); the port's drop-tail buffer budget
covers them all.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .packet import Packet

__all__ = ["PacketQueue"]


class PacketQueue:
    """A FIFO of packets with constant-time byte/packet length queries.

    The deque's ``append``/``popleft`` are bound once at construction --
    they sit on the per-packet path of every event-driven port (through
    ``push``/``pop``, or called straight by ``FifoScheduler``), and the
    cached bindings skip an attribute lookup per call.
    """

    __slots__ = ("_packets", "_bytes", "service", "_append", "_popleft")

    def __init__(self, service: int = 0) -> None:
        self._packets: Deque[Packet] = deque()
        self._bytes = 0
        self.service = service
        self._append = self._packets.append
        self._popleft = self._packets.popleft

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def byte_length(self) -> int:
        """Total bytes queued."""
        return self._bytes

    @property
    def packet_length(self) -> int:
        """Total packets queued."""
        return len(self._packets)

    def is_empty(self) -> bool:
        return not self._packets

    def push(self, packet: Packet) -> None:
        """Append a packet to the tail."""
        self._append(packet)
        self._bytes += packet.size

    def pop(self) -> Packet:
        """Remove and return the head packet."""
        if not self._packets:
            raise IndexError("pop from empty PacketQueue")
        packet = self._popleft()
        self._bytes -= packet.size
        return packet

    def peek(self) -> Optional[Packet]:
        """Return the head packet without removing it, or None if empty."""
        return self._packets[0] if self._packets else None
