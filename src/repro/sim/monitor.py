"""Instrumentation: queue sampling.

:class:`QueueMonitor` reproduces the paper's Figure 10 methodology: it
samples the instantaneous queue length of a port at a fixed interval and
records ``(time, packets)`` pairs.  Drops are observed through telemetry
(``drops_total{port,reason}`` and ``drop`` flight-recorder events).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .engine import Simulator
from .port import Port

__all__ = ["QueueMonitor", "QueueSample"]


class QueueSample:
    """One observation of a port's queue."""

    __slots__ = ("time", "packets")

    def __init__(self, time: float, packets: int) -> None:
        self.time = time
        self.packets = packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueueSample t={self.time:.6f} pkts={self.packets}>"


class QueueMonitor:
    """Periodically samples a port's queue occupancy.

    Args:
        sim: the simulator.
        port: the port to observe.
        interval: sampling period in seconds.
        start: first sample time (absolute).
        stop: optional absolute time after which sampling ceases.
    """

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        interval: float,
        start: float = 0.0,
        stop: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.port = port
        self.interval = interval
        self.stop = stop
        self.samples: List[QueueSample] = []
        sim.schedule_at(max(start, sim.now), self._sample)

    def _sample(self) -> None:
        now = self.sim.now
        if self.stop is not None and now > self.stop:
            return
        self.samples.append(QueueSample(now, self.port.queue_packets))
        self.sim.schedule(self.interval, self._sample)

    # ------------------------------------------------------------- analysis

    def max_packets(self) -> int:
        """Peak sampled queue length in packets."""
        return max((s.packets for s in self.samples), default=0)

    def series(self) -> Tuple[List[float], List[int]]:
        """(times, packet counts) suitable for plotting Figure 10."""
        return [s.time for s in self.samples], [s.packets for s in self.samples]
