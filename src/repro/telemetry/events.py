"""Flight recorder: a ring-buffered structured event trace.

The recorder is the forensic side of the telemetry layer: instrumented code
emits one :class:`TraceEvent` per interesting occurrence (enqueue, dequeue,
drop, ECN mark, cwnd change, retransmit, timer fire, ...) into a bounded
ring buffer.  When a run misbehaves, the tail of the ring is exported as
JSONL and replayed offline -- the software analogue of a switch's packet
postcard trace.

Categories can be enabled individually so a long run can record only, say,
drops and marks without paying for per-packet queue events.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional

__all__ = ["TraceEvent", "FlightRecorder", "CATEGORIES"]

CATEGORIES: tuple = (
    "queue",   # enqueue / dequeue on a port
    "drop",    # buffer overflow or AQM drop
    "mark",    # ECN CE mark (instant or persistent)
    "cwnd",    # congestion-window change on a sender
    "retx",    # retransmission (fast retransmit, partial ACK, go-back-N)
    "timer",   # retransmission-timeout firing
    "rate",    # DCQCN rate-control update
    "flow",    # flow start / completion
    "failure", # experiment-level run failure (crash, stall, timeout, ...)
    "validation",  # fidelity-gate verdict (baseline cell or paper invariant)
    "scenario",    # campaign cell settled (executed, skipped or failed)
    "resilience",  # cache quarantine, chaos injection
    "fluid",       # flow-level fluid engine run completed
)
"""Every category the built-in instrumentation emits."""

_LINE = json.JSONEncoder(sort_keys=True)
"""What ``json.dumps(..., sort_keys=True)`` builds per call, built once: an
export writes one line per event."""


class TraceEvent:
    """One structured trace record."""

    __slots__ = ("time", "category", "kind", "fields")

    def __init__(self, time: float, category: str, kind: str, fields: dict) -> None:
        self.time = time
        self.category = category
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> dict:
        record = {"t": self.time, "cat": self.category, "kind": self.kind}
        record.update(self.fields)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent t={self.time:.9f} {self.category}/{self.kind}>"


class FlightRecorder:
    """Bounded ring buffer of :class:`TraceEvent` records.

    Args:
        capacity: ring size; the oldest events are evicted once full.
        categories: iterable of category names to record, or ``None`` for
            all of :data:`CATEGORIES`.
    """

    def __init__(
        self,
        capacity: int = 65_536,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        wanted = frozenset(CATEGORIES if categories is None else categories)
        unknown = wanted - frozenset(CATEGORIES)
        if unknown:
            raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self.capacity = capacity
        self.enabled: FrozenSet[str] = wanted
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0  # total emit() calls that passed the category filter

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Events overwritten by ring wraparound."""
        return self.emitted - len(self._ring)

    def wants(self, category: str) -> bool:
        """Cheap pre-check so callers can skip building event fields."""
        return category in self.enabled

    def emit(self, time: float, category: str, kind: str, **fields: object) -> None:
        if category not in self.enabled:
            return
        self.emitted += 1
        self._ring.append(TraceEvent(time, category, kind, fields))

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        """Events currently in the ring, oldest first."""
        if category is None:
            return list(self._ring)
        return [e for e in self._ring if e.category == category]

    def counts_by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    # ---------------------------------------------------------------- export

    def export_jsonl(self, path: str) -> int:
        """Write the ring to ``path`` as one JSON object per line; returns
        the number of events written."""
        encode = _LINE.encode
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._ring:
                handle.write(encode(event.to_dict()))
                handle.write("\n")
        return len(self._ring)

    @staticmethod
    def load_jsonl(path: str) -> List[TraceEvent]:
        """Parse a trace written by :meth:`export_jsonl` back into events."""
        events: List[TraceEvent] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                time = record.pop("t")
                category = record.pop("cat")
                kind = record.pop("kind")
                events.append(TraceEvent(time, category, kind, record))
        return events
