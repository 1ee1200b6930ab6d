"""Hot-path profiling for :meth:`repro.sim.engine.Simulator.run`.

A :class:`RunProfiler` accumulates, across every ``run()`` call of every
simulator it is attached to, the numbers that matter for performance work:

* events dispatched and wall-clock seconds spent dispatching them
  (-> events/second, the DES figure of merit);
* virtual seconds simulated (-> wall seconds per virtual second, the
  number that says how far from real time the reproduction runs);
* peak heap depth (pending events), the memory-pressure proxy.

A profiled run dispatches through the same queue ``drain`` as a bare one,
called in slices of :data:`PROFILE_SLICE` events; the engine samples the
heap depth between slices, so neither it nor the profiler does any
per-event work.
"""

from __future__ import annotations

__all__ = ["RunProfiler", "PROFILE_SLICE"]

PROFILE_SLICE = 1024
"""Dispatches per profiled drain slice.  Slices end at absolute multiples
of it, so heap depth is sampled every 1024 events of the simulator's
lifetime, wherever a ``run()`` call starts."""


class RunProfiler:
    """Aggregated Simulator.run statistics (see module docstring)."""

    __slots__ = (
        "runs",
        "events",
        "wall_seconds",
        "virtual_seconds",
        "peak_heap_depth",
    )

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.wall_seconds = 0.0
        self.virtual_seconds = 0.0
        self.peak_heap_depth = 0

    # ----------------------------------------------------------- engine API

    def record_run(
        self,
        events: int,
        wall_seconds: float,
        virtual_seconds: float,
        peak_heap_depth: int,
    ) -> None:
        """Fold one ``run()`` call into the totals (called by the engine)."""
        self.runs += 1
        self.events += events
        self.wall_seconds += wall_seconds
        self.virtual_seconds += virtual_seconds
        if peak_heap_depth > self.peak_heap_depth:
            self.peak_heap_depth = peak_heap_depth

    # ------------------------------------------------------------ reporting

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def wall_per_virtual_second(self) -> float:
        if self.virtual_seconds <= 0:
            return 0.0
        return self.wall_seconds / self.virtual_seconds

    def summary_line(self) -> str:
        """One-line report, printed by the CLI after each experiment."""
        return (
            f"profile: {self.events:,} events over {self.runs} run(s) in "
            f"{self.wall_seconds:.2f}s wall "
            f"({self.events_per_second:,.0f} ev/s, "
            f"{self.wall_per_virtual_second:,.1f} s-wall per s-virtual, "
            f"peak heap {self.peak_heap_depth:,})"
        )

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "virtual_seconds": self.virtual_seconds,
            "events_per_second": self.events_per_second,
            "wall_per_virtual_second": self.wall_per_virtual_second,
            "peak_heap_depth": self.peak_heap_depth,
        }
