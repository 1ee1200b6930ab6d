"""Discrete-event simulation engine.

A :class:`Simulator` owns a monotonic virtual clock and an event queue (see
:mod:`repro.sim.eventq`).  The dispatch contract is a total order by
``(time, insertion sequence)``: earlier virtual times first, and among
events carrying the same timestamp, the one scheduled first runs first --
which keeps runs fully deterministic.

The queue is a binary heap.  ``Simulator(scheduler="calendar")`` builds the
sorted-batch queue that used to be the default; it dispatches in
byte-identical order and survives as the oracle of the differential tests
(it lost to the heap on every packet workload, see DESIGN.md section 9).

The queue also *is* the clock: ``Simulator.now`` reads ``_q.now``, and the
per-packet components of this package (:class:`Timer`, ``Port``) keep a
reference to the queue and read ``now`` off it directly, skipping the
property call.

There is one dispatch loop, the queue's ``drain``.  An attached
:class:`~repro.telemetry.profiler.RunProfiler` changes only how it is
called: in slices of :data:`~repro.telemetry.profiler.PROFILE_SLICE`
dispatches, with the pending depth sampled between them.

Cancellable timers (used heavily by TCP retransmission logic) are provided
by :class:`Timer`.  A timer keeps at most a handful of queue entries alive
no matter how often it is restarted: ``restart`` only schedules a wake-up
when the new expiry is earlier than every outstanding one, and a wake-up
that finds the deadline still in the future re-arms itself at the current
expiry.  This turns the per-ACK ``restart(rto)`` pattern from one queue
entry per ACK into about two per RTO interval.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional

from ..telemetry.profiler import PROFILE_SLICE, RunProfiler
from ..telemetry.runtime import get_active
from .eventq import SimulationError, SimulationStalled, make_event_queue

__all__ = ["Simulator", "Timer", "SimulationError", "SimulationStalled"]

_INF = float("inf")


class Simulator:
    """Event loop with a virtual clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(0.001, callback, arg1, arg2)
        sim.run(until=1.0)

    ``scheduler`` names the event-queue implementation: ``"heap"`` (the
    default) or ``"calendar"`` (the differential-test oracle).  (This is
    the *event* scheduler; packet schedulers -- FIFO/DWRR/strict-priority
    -- live in :mod:`repro.sim.scheduler` and are per-port.)

    ``schedule`` and ``schedule_at`` are instance attributes bound
    directly to the queue's methods, so the per-event insert path has no
    delegation layer on top of the queue itself.

    ``profiler`` is the active telemetry's :class:`RunProfiler` at
    construction (``None`` without one); assign it to attach or detach.
    """

    __slots__ = ("_q", "schedule", "schedule_at", "_running", "profiler")

    def __init__(self, scheduler: Optional[str] = None) -> None:
        self._q = make_event_queue(scheduler)
        # Direct bindings: sim.schedule(...) IS the queue's insert.
        self.schedule: Callable[..., None] = self._q.schedule
        self.schedule_at: Callable[..., None] = self._q.schedule_at
        self._running: bool = False
        telemetry = get_active()
        self.profiler: Optional[RunProfiler] = (
            telemetry.profiler if telemetry is not None else None
        )

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._q.now

    @property
    def scheduler(self) -> str:
        """Name of the active event-queue implementation."""
        return self._q.kind

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far, live per event: a callback
        sees the count of prior dispatches.  (The ``"calendar"`` oracle
        synchronizes it at batch boundaries; it is exact between ``run()``
        calls.)"""
        return self._q.events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily cancelled ones)."""
        return len(self._q)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Dispatch events in time order.

        Stops when the event queue drains, when the next event lies beyond
        ``until``, or after ``max_events`` dispatches -- a cooperative
        budget, never an error.  On an ``until`` stop the clock is advanced
        to ``until`` so that subsequent scheduling is relative to the
        requested horizon.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            q = self._q
            limit = None if max_events is None else q.events_processed + max_events
            if self.profiler is None:
                q.drain(until, limit)
            else:
                self._drain_profiled(until, limit)
            if until is not None and q.now < until:
                q.now = until
        finally:
            self._running = False

    def _drain_profiled(self, until: Optional[float], limit: Optional[int]) -> None:
        """``q.drain`` in slices that end at absolute multiples of
        :data:`PROFILE_SLICE` dispatches, sampling the pending depth
        between slices; nothing is added per event."""
        q = self._q
        start = n = q.events_processed
        wall_start = perf_counter()
        virtual_start = q.now
        peak_depth = len(q)
        while True:
            end = n - n % PROFILE_SLICE + PROFILE_SLICE
            if limit is not None and end > limit:
                end = limit
            q.drain(until, end)
            n = q.events_processed
            if n % PROFILE_SLICE == 0 and len(q) > peak_depth:
                peak_depth = len(q)
            if n != end or end == limit:
                break  # drained, past the horizon, or out of budget
        self.profiler.record_run(
            events=n - start,
            wall_seconds=perf_counter() - wall_start,
            virtual_seconds=q.now - virtual_start,
            peak_heap_depth=peak_depth,
        )

    def run_until_idle(self, max_events: int = 100_000_000) -> None:
        """Run until no events remain.

        Exhausting ``max_events`` with events still queued means the run
        did not reach idle: that raises :class:`SimulationStalled` (with
        the clock, dispatch count and queue depth) instead of returning a
        silently truncated simulation.
        """
        q = self._q
        start = q.events_processed
        self.run(max_events=max_events)
        if len(q):
            raise SimulationStalled(
                clock=q.now, events=q.events_processed - start, pending=len(q)
            )


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    ``restart`` supersedes any previously scheduled firing; ``cancel``
    suppresses the pending firing.  Both are O(1).

    Implementation: deadline polling.  The timer keeps ``_wakes``, the
    strictly-ascending times of its outstanding wake-up events, and
    maintains one invariant -- *while armed, the earliest outstanding
    wake-up is at or before the expiry*.  ``restart`` therefore only
    schedules when the new expiry is earlier than every outstanding
    wake-up (only then is the invariant at risk); a wake-up that arrives
    early (because the deadline moved later after it was scheduled)
    re-arms itself at the current expiry.  The firing time is exact: the
    callback runs at precisely ``expiry``, never late, because a wake-up
    exists at or before it and re-arming from there lands on it.

    Compared to the seed's push-per-restart + generation-counter design,
    the steady-state TCP pattern (``restart(rto)`` on every ACK) costs no
    queue traffic at all until an RTO interval actually elapses.
    """

    __slots__ = ("_q", "_callback", "armed", "expiry", "_wakes")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._q = sim._q  # clock reads and inserts go straight to the queue
        self._callback = callback
        self.armed = False  # whether a firing is currently pending
        self.expiry: float = _INF
        self._wakes: List[float] = []

    def restart(self, delay: float) -> None:
        """(Re)schedule the timer ``delay`` seconds from now."""
        self.armed = True
        self.expiry = when = self._q.now + delay
        wakes = self._wakes
        if not wakes or when < wakes[0]:
            wakes.insert(0, when)
            self._q.schedule(delay, self._wake)

    def cancel(self) -> None:
        """Suppress any pending firing.  Outstanding wake-ups stay queued
        and discard themselves when they pop (lazy cancellation)."""
        self.armed = False
        self.expiry = _INF

    def _wake(self) -> None:
        wakes = self._wakes
        del wakes[0]  # wake-ups pop in time order: this is the earliest
        if not self.armed:
            return
        expiry = self.expiry
        if expiry <= self._q.now:
            self.armed = False
            self.expiry = _INF
            self._callback()
        elif not wakes or expiry < wakes[0]:
            # Restore the invariant: no outstanding wake-up at or before
            # the (moved-later) expiry, so plant one exactly there.
            wakes.insert(0, expiry)
            self._q.schedule_at(expiry, self._wake)
