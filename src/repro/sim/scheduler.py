"""Packet schedulers for egress ports.

A scheduler owns the per-service :class:`PacketQueue` set of one egress port
and decides which queue supplies the next packet to serialize.  Three
disciplines are provided:

* :class:`FifoScheduler` -- a single queue, the default everywhere.
* :class:`StrictPriorityScheduler` -- lowest service index first.
* :class:`DwrrScheduler` -- Deficit Weighted Round Robin, used by the paper's
  packet-scheduler experiment (Figure 13, three services with weights 2:1:1).

Sojourn-time AQMs compose naturally with any of these because the congestion
signal is stamped per packet at enqueue and read at dequeue, regardless of
which queue the packet waited in -- this is exactly the property TCN and ECN#
rely on (Section 3.2 of the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from .packet import Packet
from .queues import PacketQueue

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "StrictPriorityScheduler",
    "DwrrScheduler",
]


class Scheduler(ABC):
    """Base class: a set of queues plus a service discipline.

    ``total_bytes`` / ``total_packets`` are the occupancy over all queues,
    kept as plain counters: :meth:`enqueue` adds and :meth:`_pop` removes
    (:class:`FifoScheduler` does both inline).  A port reads them on each
    admission: ``total_bytes`` is its buffer occupancy.
    """

    def __init__(self, num_queues: int) -> None:
        if num_queues <= 0:
            raise ValueError("scheduler needs at least one queue")
        self.queues: List[PacketQueue] = [PacketQueue(service=i) for i in range(num_queues)]
        self.total_bytes = 0
        self.total_packets = 0

    @property
    def num_queues(self) -> int:
        return len(self.queues)

    def queue_for(self, packet: Packet) -> PacketQueue:
        """Select the queue an arriving packet joins (by service class)."""
        index = packet.service
        if not 0 <= index < len(self.queues):
            index = len(self.queues) - 1  # out-of-range services use the last queue
        return self.queues[index]

    def enqueue(self, packet: Packet) -> None:
        """Append ``packet`` to its service queue."""
        self.queue_for(packet).push(packet)
        self.total_bytes += packet.size
        self.total_packets += 1

    def _pop(self, queue: PacketQueue) -> Packet:
        """Remove ``queue``'s head packet and account for it."""
        packet = queue.pop()
        self.total_bytes -= packet.size
        self.total_packets -= 1
        return packet

    @abstractmethod
    def dequeue(self) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or None if idle."""

    def is_empty(self) -> bool:
        return not self.total_packets


class FifoScheduler(Scheduler):
    """Single FIFO queue.

    Every port without a configured discipline runs this one, so
    ``enqueue``/``dequeue`` touch the queue's deque and the three counters
    (its bytes, the scheduler's bytes and packets) in one call each instead
    of walking ``queue_for`` → ``push`` and ``_pop`` → ``pop``.
    """

    def __init__(self) -> None:
        super().__init__(num_queues=1)
        self._queue = self.queues[0]

    def enqueue(self, packet: Packet) -> None:
        size = packet.size
        queue = self._queue
        queue._append(packet)
        queue._bytes += size
        self.total_bytes += size
        self.total_packets += 1

    def dequeue(self) -> Optional[Packet]:
        if not self.total_packets:
            return None
        queue = self._queue
        packet = queue._popleft()
        size = packet.size
        queue._bytes -= size
        self.total_bytes -= size
        self.total_packets -= 1
        return packet


class StrictPriorityScheduler(Scheduler):
    """Serve the lowest-index non-empty queue first."""

    def dequeue(self) -> Optional[Packet]:
        for queue in self.queues:
            if not queue.is_empty():
                return self._pop(queue)
        return None


class DwrrScheduler(Scheduler):
    """Deficit Weighted Round Robin (Shreedhar & Varghese).

    Each queue ``i`` has quantum ``weight[i] * base_quantum`` bytes.  When the
    round-robin pointer reaches a backlogged queue its deficit grows by one
    quantum; the queue then sends packets while its deficit covers the head
    packet.  Idle queues have their deficit reset so they cannot bank credit.

    ``dequeue`` returns a single packet per call (the port serializes one
    packet at a time); scheduler state persists across calls so the byte
    shares converge to the configured weights.
    """

    def __init__(self, weights: Sequence[float], base_quantum: int = 1500) -> None:
        if not weights:
            raise ValueError("DWRR needs at least one weight")
        if any(w <= 0 for w in weights):
            raise ValueError("DWRR weights must be positive")
        super().__init__(num_queues=len(weights))
        self.weights = list(weights)
        self.quanta = [int(w * base_quantum) for w in weights]
        self._deficits = [0] * len(weights)
        self._current = 0
        self._fresh_round = True  # whether the current queue still needs its quantum

    def dequeue(self) -> Optional[Packet]:
        if self.is_empty():
            # Reset so a new busy period starts from a clean slate.
            self._deficits = [0] * self.num_queues
            self._fresh_round = True
            return None

        # At most 2N pointer advances are needed to find a sendable packet:
        # each backlogged queue is visited at most twice (once to add its
        # quantum, once more after the largest-packet bound is covered).
        for _ in range(2 * self.num_queues + 1):
            queue = self.queues[self._current]
            if queue.is_empty():
                self._deficits[self._current] = 0
                self._advance()
                continue
            if self._fresh_round:
                self._deficits[self._current] += self.quanta[self._current]
                self._fresh_round = False
            head = queue.peek()
            assert head is not None
            if head.size <= self._deficits[self._current]:
                self._deficits[self._current] -= head.size
                packet = self._pop(queue)
                if queue.is_empty():
                    self._deficits[self._current] = 0
                    self._advance()
                return packet
            self._advance()

        # Quanta smaller than the packet size can require several rounds of
        # credit accumulation; recurse via iteration until sendable.
        return self._accumulate_until_sendable()

    def _advance(self) -> None:
        self._current = (self._current + 1) % self.num_queues
        self._fresh_round = True

    def _accumulate_until_sendable(self) -> Optional[Packet]:
        # Defensive path for quanta << MTU; bounded because deficits grow
        # by a positive quantum for some backlogged queue every full cycle.
        for _ in range(10_000):
            queue = self.queues[self._current]
            if queue.is_empty():
                self._deficits[self._current] = 0
                self._advance()
                continue
            if self._fresh_round:
                self._deficits[self._current] += self.quanta[self._current]
                self._fresh_round = False
            head = queue.peek()
            assert head is not None
            if head.size <= self._deficits[self._current]:
                self._deficits[self._current] -= head.size
                packet = self._pop(queue)
                if queue.is_empty():
                    self._deficits[self._current] = 0
                    self._advance()
                return packet
            self._advance()
        raise RuntimeError("DWRR failed to accumulate credit; quantum too small")
