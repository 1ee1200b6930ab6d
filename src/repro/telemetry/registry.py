"""Metrics registry: counters and fixed-bucket histograms.

The registry is the aggregation side of the telemetry layer: hooks in the
data plane and the transports increment labeled instruments, and a snapshot
of every instrument (plus optional DES-clock-driven time series, see
:class:`Snapshotter`) is exported at the end of a run.

Instruments are identified by a name plus a sorted label set, mirroring the
Prometheus data model so exported snapshots stay greppable::

    registry.counter("port_drops_total", port="s0->recv", reason="overflow")

Histograms use *fixed* bucket schemes (:data:`FCT_US_BUCKETS` for flow
completion times in microseconds, :data:`QUEUE_PKT_BUCKETS` for queue depth
in packets) so that histograms from different runs, schemes, and seeds are
always mergeable bucket-by-bucket.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Snapshotter",
    "FCT_US_BUCKETS",
    "QUEUE_PKT_BUCKETS",
]

FCT_US_BUCKETS: Tuple[float, ...] = (
    50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800,
    25_600, 51_200, 102_400, 204_800, 409_600, 819_200,
)
"""Log-spaced FCT buckets (microseconds): short flows land in the first few
buckets, timeout-inflated flows (+>2 ms) are clearly separated."""

QUEUE_PKT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096,
)
"""Power-of-two queue-depth buckets (packets); the paper's interesting
regimes (~8 pkt ECN# target, ~182 pkt RED standing queue) fall in distinct
buckets."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with cumulative-style percentile estimates.

    ``bounds`` are inclusive upper bucket edges; observations above the last
    bound land in an implicit overflow bucket.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Linear scan: bucket lists are short (<=16) and observations skew
        # toward the first buckets, beating bisect's call overhead.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket containing the p-th percentile.

        Returns ``inf`` when the percentile falls in the overflow bucket and
        0.0 when the histogram is empty.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(p * self.count) // 100))  # ceil, at least 1
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):
                    return float("inf")
                return self.bounds[index]
        return float("inf")

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": {
                ("+inf" if index >= len(self.bounds) else repr(self.bounds[index])): n
                for index, n in enumerate(self.counts)
            },
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


def _series_key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create store for labeled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = _series_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: object
    ) -> Histogram:
        key = _series_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                bounds if bounds is not None else FCT_US_BUCKETS
            )
        return instrument

    def snapshot(self) -> dict:
        """Plain-dict dump of every instrument (JSON-serializable)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }


class Snapshotter:
    """Periodic time-series sampler driven by the DES clock.

    Each tick calls every registered sampler (a zero-argument callable
    returning a dict of column -> value) and appends one row.  Rows beyond
    ``max_rows`` evict the oldest so an unexpectedly long run cannot grow
    memory without bound.  Sampling ends at the first tick that finds no
    other event queued: the sampler observes a run, it never extends one.
    """

    def __init__(
        self,
        sim,
        interval: float,
        max_rows: int = 4096,
        stop: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("snapshot interval must be positive")
        self.sim = sim
        self.interval = interval
        self.stop = stop
        self.max_rows = max_rows
        self.rows: List[dict] = []
        self._samplers: List = []
        sim.schedule(0.0, self._tick)

    def add_sampler(self, sampler) -> None:
        self._samplers.append(sampler)

    def _tick(self) -> None:
        now = self.sim.now
        if self.stop is not None and now > self.stop:
            return
        row: dict = {"time": now}
        for sampler in self._samplers:
            row.update(sampler())
        self.rows.append(row)
        if len(self.rows) > self.max_rows:
            del self.rows[0 : len(self.rows) - self.max_rows]
        # Tick only while the run has other work: rescheduling onto an
        # otherwise empty queue would keep a drain-to-idle run alive
        # forever (``run_until_idle`` would never find the queue empty).
        if self.sim.pending_events:
            self.sim.schedule(self.interval, self._tick)
