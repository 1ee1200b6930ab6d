"""Event queues for the DES engine.

The engine's dispatch contract is a total order over events by
``(time, insertion sequence)``: earlier virtual times first, and among
events carrying the same timestamp, the one scheduled first runs first.

:class:`HeapEventQueue`
    The production queue, and the only one an experiment runs on.  Every
    event is a ``(when, seq, callback, args)`` tuple on a binary heap;
    ``heappush``/``heappop`` cost O(log n) each with n a few hundred on
    real traffic (pending depth p50 132 on the star rig, 241 on the
    leaf-spine fabric, max 649).  ``events_processed`` is updated per
    dispatch, so a callback can observe a live value mid-run.

:class:`CalendarEventQueue`
    A lazy sorted-batch queue kept as a **differential-test oracle**: an
    independent implementation of the same contract that the tests run
    against the heap, and that ``benchmarks/ledger`` still probes by name.
    It was the default for one release and lost on every packet workload:
    far-future flow arrivals and RTO wake-ups pin its batch horizon, so
    22-46 % of inserts are Python-level binary inserts ("stragglers") until
    its irreversible heap fallback engages -- which it did on every
    checked-in workload (DESIGN.md section 9).  Inserts are a plain
    ``list.append`` into an unsorted *far* tier; dispatch peels sorted
    *batches* of up to :data:`BATCH_EVENTS` events off that tier.  Events
    are 3-tuples ``(when, callback, args)`` sorted with the stable
    ``list.sort(key=itemgetter(0))``, so insertion order is the tie-break.
    A straggler (an event scheduled inside the active batch's window) is
    binary-inserted into the live batch, always ahead of the dispatch
    cursor.  Two semantic differences from the heap: ``events_processed``
    is synchronized at batch boundaries, and a callback that raises
    mid-batch leaves the dispatch position at the first event of the
    current timestamp (discard the simulator after an exception).

Both queues offer the same contract and nothing more: ``schedule`` /
``schedule_at``, ``drain(until, limit)``, ``len``, ``now`` and
``events_processed``.  ``Simulator()`` builds the heap;
``Simulator(scheduler="calendar")`` is the oracle's only entry point.
There is no environment override.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from operator import itemgetter
from sys import maxsize
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "SimulationError",
    "SimulationStalled",
    "HeapEventQueue",
    "CalendarEventQueue",
    "SCHEDULER_NAMES",
    "DEFAULT_SCHEDULER",
    "make_event_queue",
]

SCHEDULER_NAMES = ("heap", "calendar")

DEFAULT_SCHEDULER = "heap"

BATCH_EVENTS = 4096
"""Maximum events per calendar dispatch batch.  Large enough to amortize the
per-batch sort and bookkeeping, small enough that a straggler's binary
insert stays a short memmove."""

FALLBACK_MIN_STRAGGLERS = 4096
FALLBACK_RATIO = 4  # fall back when stragglers exceed 1/RATIO of dispatches

_INF = float("inf")
_time0 = itemgetter(0)

Event = Tuple[float, Callable[..., None], tuple]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class SimulationStalled(SimulationError):
    """``Simulator.run_until_idle`` spent its dispatch budget with events
    still pending: the run never reached idle.

    Carries the forensic state a failure record needs: the virtual clock,
    the number of events dispatched by the stalled call, and the queue
    depth at the moment of the stall.
    """

    def __init__(self, clock: float, events: int, pending: int) -> None:
        self.clock = clock
        self.events = events
        self.pending = pending
        super().__init__(
            f"simulation stalled: clock={clock:.9f}s after "
            f"{events} events with {pending} events still pending"
        )


def make_event_queue(name: Optional[str] = None):
    """Build the event queue called ``name`` (default: the heap).  An
    unknown name raises."""
    resolved = DEFAULT_SCHEDULER if name is None else name.strip().lower()
    if resolved not in SCHEDULER_NAMES:
        raise ValueError(
            f"unknown scheduler {name!r}: expected one of {SCHEDULER_NAMES}"
        )
    return HeapEventQueue() if resolved == "heap" else CalendarEventQueue()


class HeapEventQueue:
    """Binary-heap event queue: the production data structure.

    ``events_processed`` is stored per dispatch (not batched at return) so
    a callback can read a live value mid-run; ``drain`` counts
    in a local and only *writes* the attribute, which is safe because
    ``Simulator.run`` is not reentrant.
    """

    kind = "heap"

    __slots__ = ("now", "events_processed", "_heap", "_sequence")

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self.now + delay, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (when, seq, callback, args))

    def drain(self, until: Optional[float], limit: Optional[int]) -> None:
        """Dispatch events in order until the queue empties, the next
        event lies beyond ``until``, or ``events_processed`` reaches
        ``limit`` (an absolute count, not a delta)."""
        heap = self._heap
        pop = heappop  # local binding: dominant call in the hot loop
        n = self.events_processed
        if until is None:
            until = _INF
        if limit is None:
            limit = maxsize
        while heap and heap[0][0] <= until and n < limit:
            when, _, callback, args = pop(heap)
            self.now = when
            callback(*args)
            self.events_processed = n = n + 1


class CalendarEventQueue:
    """Lazy sorted-batch event queue with a heap fallback.

    Structure (all times in one of three tiers):

    * ``_far``: unsorted arrivals with ``when >= _horizon``.  Insert is a
      cached ``list.append`` (``_push``).
    * ``_res``: sorted ascending reservoir -- the spill when a sort
      produced more than :data:`BATCH_EVENTS` events.
    * ``_batch`` + ``_cursor``: the active dispatch window, sorted
      ascending; ``_horizon`` is ``_batch[-1][0]`` (or ``-inf`` before
      the first batch), and every event in ``_far``/``_res`` has
      ``when >= _horizon``.

    Stragglers (``when < _horizon``) binary-insert into the live batch at
    or after the cursor -- see the module docstring for why that position
    is always ahead of the dispatch iterator.  The exhausted batch list is
    recycled as the next ``_far`` buffer to avoid a list allocation per
    batch.

    After the heap fallback triggers (``_heap is not None``) the horizon
    is pinned to ``+inf`` so every insert routes through the slow branch
    of ``schedule``/``schedule_at`` into the heap; the calendar tiers stay
    empty.  (Corner case: an event scheduled at exactly ``+inf`` compares
    ``>= _horizon`` and lands in ``_far`` even in heap mode, i.e. it is
    never dispatched -- an infinitely-far event is unreachable in either
    mode, so nothing is lost.)
    """

    kind = "calendar"

    __slots__ = (
        "now",
        "events_processed",
        "_far",
        "_res",
        "_batch",
        "_cursor",
        "_horizon",
        "_stragglers",
        "_push",
        "_heap",
        "_sequence",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._far: List[Event] = []
        self._res: List[Event] = []
        self._batch: List[Event] = []
        self._cursor: int = 0
        self._horizon: float = -_INF
        self._stragglers: int = 0
        self._push = self._far.append
        self._heap: Optional[List[Tuple[float, int, Callable[..., None], tuple]]] = None
        self._sequence: int = 0

    def __len__(self) -> int:
        if self._heap is not None:
            return len(self._heap)
        return len(self._far) + len(self._res) + len(self._batch) - self._cursor

    # ------------------------------------------------------------- insertion

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        when = self.now + delay
        if when >= self._horizon:
            self._push((when, callback, args))
            return
        # Straggler: the event falls inside the active batch window.
        # (Inlined rather than a helper: real workloads form small batches,
        # so this branch and the batch formation below are warm enough that
        # an extra method call per hit shows up in profiles.)
        heap = self._heap
        if heap is not None:
            self._sequence = seq = self._sequence + 1
            heappush(heap, (when, seq, callback, args))
            return
        self._stragglers += 1
        batch = self._batch
        lo = self._cursor
        hi = len(batch)
        while lo < hi:
            mid = (lo + hi) >> 1
            if batch[mid][0] <= when:  # implicit seq is largest: after ties
                lo = mid + 1
            else:
                hi = mid
        batch.insert(lo, (when, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        if when >= self._horizon:
            self._push((when, callback, args))
            return
        heap = self._heap
        if heap is not None:
            self._sequence = seq = self._sequence + 1
            heappush(heap, (when, seq, callback, args))
            return
        self._stragglers += 1
        batch = self._batch
        lo = self._cursor
        hi = len(batch)
        while lo < hi:
            mid = (lo + hi) >> 1
            if batch[mid][0] <= when:
                lo = mid + 1
            else:
                hi = mid
        batch.insert(lo, (when, callback, args))

    # -------------------------------------------------------------- dispatch

    def _convert_to_heap(self) -> None:
        """Irreversible fallback for pathological straggler ratios: move
        every pending event into a ``(when, seq, callback, args)`` heap,
        preserving the (time, insertion) order as ascending sequence
        numbers, and pin the horizon so new inserts route to the heap."""
        pending = self._batch[self._cursor:]
        rest = self._res + self._far
        rest.sort(key=_time0)  # stable: reservoir (older) precedes far on ties
        pending.extend(rest)
        # A time-sorted list with ascending tie-break is already a valid heap.
        self._heap = [
            (when, seq, callback, args)
            for seq, (when, callback, args) in enumerate(pending)
        ]
        self._sequence = len(pending)
        self._batch = []
        self._res = []
        self._far = []
        self._push = self._far.append
        self._cursor = 0
        self._horizon = _INF

    def drain(self, until: Optional[float], limit: Optional[int]) -> None:
        """Dispatch events in order until the queue empties, the next
        event lies beyond ``until``, or ``events_processed`` reaches
        ``limit`` (an absolute count).

        The hot path: each batch is dispatched by a bare ``for`` loop over
        an ``islice`` bound, so the per-event cost is one tuple index, one
        attribute store (the clock) and the callback itself -- no counter
        arithmetic, no comparisons.  ``events_processed`` is synced at
        batch boundaries and on exit.
        """
        if self._heap is not None:
            self._drain_heap(until, limit)
            return
        n = self.events_processed
        batch = self._batch
        cursor = self._cursor
        far = self._far
        try:
            while True:
                blen = len(batch)
                if cursor >= blen:
                    # ---- batch formation, inlined (small batches make
                    # this warm, see the schedule comment) ----
                    self.events_processed = n
                    res = self._res
                    if res:
                        if far:
                            res.extend(far)
                            del far[:]
                            res.sort(key=_time0)
                        next_batch = res[:BATCH_EVENTS]
                        del res[:BATCH_EVENTS]
                        del batch[:]
                    elif far:
                        stragglers = self._stragglers
                        if (
                            stragglers > FALLBACK_MIN_STRAGGLERS
                            and stragglers * FALLBACK_RATIO > n
                        ):
                            self._cursor = cursor
                            self._convert_to_heap()
                            self._drain_heap(until, limit)
                            return
                        far.sort(key=_time0)
                        if len(far) <= BATCH_EVENTS:
                            next_batch = far
                            del batch[:]  # recycle the spent list as far
                            self._far = far = batch
                            self._push = far.append
                        else:
                            next_batch = far[:BATCH_EVENTS]
                            self._res = far[BATCH_EVENTS:]
                            del far[:]
                            del batch[:]
                    else:
                        break
                    self._batch = batch = next_batch
                    self._cursor = cursor = 0
                    self._horizon = batch[-1][0]
                    blen = len(batch)
                room = blen - cursor
                if limit is not None:
                    budget = limit - n
                    if budget < room:
                        room = budget
                if until is not None:
                    # First index past the horizon, by binary search: the
                    # batch is time-sorted.
                    lo = cursor
                    hi = blen
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if batch[mid][0] <= until:
                            lo = mid + 1
                        else:
                            hi = mid
                    if lo - cursor < room:
                        room = lo - cursor
                if room <= 0:
                    break  # budget or horizon exhausted (batch is not)
                end = cursor + room
                for when, callback, cb_args in islice(batch, cursor, end):
                    self.now = when
                    callback(*cb_args)
                # Stragglers may have grown the batch mid-loop (always
                # ahead of the iterator), so recount what was consumed.
                blen = len(batch)
                dispatched = (end if end < blen else blen) - cursor
                cursor += dispatched
                n += dispatched
        except BaseException:
            # A callback raised mid-batch: the exact dispatch position is
            # unknowable (islice does not expose it).  Resync to the first
            # event at the current timestamp -- nothing earlier than `now`
            # can replay, events at exactly `now` might.  Documented
            # limitation; discard the simulator after an exception.
            batch = self._batch
            target = self.now
            lo, hi = 0, len(batch)
            while lo < hi:
                mid = (lo + hi) >> 1
                if batch[mid][0] < target:
                    lo = mid + 1
                else:
                    hi = mid
            self._cursor = lo
            self.events_processed = n
            raise
        self._cursor = cursor
        self.events_processed = n

    def _drain_heap(self, until: Optional[float], limit: Optional[int]) -> None:
        """Post-fallback drain: the heap loop, with the live counter."""
        heap = self._heap
        assert heap is not None
        pop = heappop
        while heap:
            if until is not None and heap[0][0] > until:
                break
            if limit is not None and self.events_processed >= limit:
                break
            when, _, callback, args = pop(heap)
            self.now = when
            callback(*args)
            self.events_processed += 1
