"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    SimulationError,
    SimulationStalled,
    Simulator,
    Timer,
)
from repro.telemetry.profiler import PROFILE_SLICE


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(0.5, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(0.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.25]
        assert sim.now == 0.25

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_from_callback(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(0.1, lambda: order.append("nested"))

        sim.schedule(0.1, first)
        sim.schedule(0.5, lambda: order.append("last"))
        sim.run()
        assert order == ["first", "nested", "last"]

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(0.1, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_zero_delay_runs(self, sim):
        seen = []
        sim.schedule(0.0, seen.append, 1)
        sim.run()
        assert seen == [1]


class TestRunControl:
    def test_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(0.1, seen.append, "early")
        sim.schedule(0.9, seen.append, "late")
        sim.run(until=0.5)
        assert seen == ["early"]
        assert sim.now == 0.5  # clock advanced to the horizon
        sim.run()
        assert seen == ["early", "late"]

    def test_until_inclusive_of_equal_time(self, sim):
        seen = []
        sim.schedule(0.5, seen.append, "edge")
        sim.run(until=0.5)
        assert seen == ["edge"]

    def test_max_events_bounds_dispatch(self, sim):
        seen = []
        for index in range(10):
            sim.schedule(0.1 * (index + 1), seen.append, index)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_events_processed_is_live_mid_run_on_heap(self):
        # The default (heap) queue stores the counter per dispatch: each
        # callback sees the count of *prior* dispatches, not a value
        # batched in at the end of run().
        sim = Simulator()
        observed = []
        for index in range(4):
            sim.schedule(0.1 * (index + 1), lambda: observed.append(sim.events_processed))
        sim.run()
        assert observed == [0, 1, 2, 3]
        assert sim.events_processed == 4

    def test_events_processed_exact_between_runs_on_calendar(self):
        # The calendar oracle's drain syncs the counter at batch
        # boundaries, so only exactness *between* run() calls is
        # contractual there.
        sim = Simulator(scheduler="calendar")
        for index in range(4):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.events_processed == 2
        sim.run()
        assert sim.events_processed == 4

    def test_events_processed_is_live_when_instrumented(self):
        # A profiled run drains through the same queue loop as a bare one,
        # so the heap's counter stays live per event under a profiler too.
        from repro.telemetry import RunProfiler

        sim = Simulator()
        sim.profiler = RunProfiler()
        observed = []
        for index in range(4):
            sim.schedule(0.1 * (index + 1), lambda: observed.append(sim.events_processed))
        sim.run()
        assert observed == [0, 1, 2, 3]
        assert sim.profiler.events == 4

    def test_events_processed_accumulates_across_runs(self, sim):
        for index in range(6):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.events_processed == 2
        sim.run(max_events=2)
        assert sim.events_processed == 4
        sim.run()
        assert sim.events_processed == 6

    def test_profiler_attach_and_record(self, sim):
        from repro.telemetry import RunProfiler

        assert sim.profiler is None  # no active telemetry in tests
        profiler = RunProfiler()
        sim.profiler = profiler
        for index in range(8):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run(max_events=5)
        sim.run()
        assert profiler.runs == 2
        assert profiler.events == 8
        assert profiler.peak_heap_depth >= 1
        assert profiler.virtual_seconds == pytest.approx(0.8)

    def test_run_until_idle_drains(self, sim):
        count = []

        def chain(n):
            count.append(n)
            if n > 0:
                sim.schedule(0.01, chain, n - 1)

        sim.schedule(0.0, chain, 4)
        sim.run_until_idle()
        assert count == [4, 3, 2, 1, 0]
        assert sim.pending_events == 0

    def test_reentrant_run_rejected(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.1, nested)
        sim.run()


class TestProfiledDrain:
    """A profiled run is the queue's ``drain`` called in slices that end at
    absolute multiples of ``PROFILE_SLICE`` dispatches; these pin where the
    slices end and that a budget still means exactly that many events."""

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_sampled_peak_follows_absolute_slice_boundaries(self, scheduler):
        from repro.telemetry import RunProfiler

        assert PROFILE_SLICE == 1024
        sim = Simulator(scheduler=scheduler)
        sim.profiler = profiler = RunProfiler()

        # Tick k parks one filler far in the future and, below 3000,
        # schedules tick k + 1: after n dispatches the pending depth is
        # n + 1 while ticking, then 6000 - n once only fillers remain.
        def tick(k):
            sim.schedule_at(1e6 + k, lambda: None)
            if k < 3000:
                sim.schedule(1.0, tick, k + 1)

        sim.schedule(1.0, tick, 1)
        sim.run(max_events=1500)
        sim.run()
        # Samples: each run's start (depth 1, then 1501) and every multiple
        # of 1024 dispatches: 1025, 2049, 2928 (n = 3072), 1904, 880.
        # Slices counted from the second run's start would sample 2525
        # first; a per-event sampler would see the true peak, 3000.
        assert profiler.peak_heap_depth == 2928
        assert profiler.runs == 2
        assert profiler.events == sim.events_processed == 6000

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    @pytest.mark.parametrize("budget", [0, 1, 724, 1024, 2500])
    def test_budget_dispatches_exactly_that_many(self, scheduler, budget):
        from repro.telemetry import RunProfiler

        sim = Simulator(scheduler=scheduler)
        sim.profiler = profiler = RunProfiler()
        for index in range(3000):
            sim.schedule(1e-6 * (index + 1), lambda: None)
        sim.run(max_events=300)  # the next run starts mid-slice
        sim.run(max_events=budget)
        assert sim.events_processed == profiler.events == 300 + budget
        assert sim.pending_events == 2700 - budget

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_until_stops_inside_a_slice(self, scheduler):
        from repro.telemetry import RunProfiler

        sim = Simulator(scheduler=scheduler)
        sim.profiler = profiler = RunProfiler()
        for index in range(3000):
            sim.schedule(1e-6 * (index + 1), lambda: None)
        sim.run(until=1.5005e-3)
        assert sim.events_processed == profiler.events == 1500
        assert sim.now == 1.5005e-3  # clock advanced to the horizon
        assert profiler.virtual_seconds == pytest.approx(1.5e-3)  # last event


class TestStallDetection:
    def _self_scheduling_loop(self, sim, delay):
        """An event loop that reschedules itself forever."""

        def tick():
            sim.schedule(delay, tick)

        sim.schedule(delay, tick)

    def test_budget_exhaustion_raises_when_opted_in(self, sim):
        # run_until_idle is the opt-in: its budget running out with events
        # still queued is a stall.
        self._self_scheduling_loop(sim, delay=0.001)
        with pytest.raises(SimulationStalled) as caught:
            sim.run_until_idle(max_events=25)
        stall = caught.value
        assert stall.events == 25
        assert stall.pending >= 1
        assert stall.clock == pytest.approx(sim.now)
        assert isinstance(stall, SimulationError)  # typed, catchable

    def test_budget_exhaustion_silent_by_default(self, sim):
        # run(max_events=N) is a cooperative budget for incremental
        # dispatch (tests, benchmarks); it never raises.
        self._self_scheduling_loop(sim, delay=0.001)
        sim.run(max_events=25)
        assert sim.events_processed == 25

    def test_run_until_idle_raises_on_stall_by_default(self, sim):
        self._self_scheduling_loop(sim, delay=0.001)
        with pytest.raises(SimulationStalled, match="stalled.*still pending"):
            sim.run_until_idle(max_events=50)

    def test_no_stall_when_budget_exactly_drains(self, sim):
        for index in range(5):
            sim.schedule(0.1 * (index + 1), lambda: None)
        sim.run_until_idle(max_events=5)  # queue empty: no stall
        assert sim.pending_events == 0

    def test_stalled_run_is_still_profiled(self, sim):
        from repro.telemetry import RunProfiler

        profiler = RunProfiler()
        sim.profiler = profiler
        self._self_scheduling_loop(sim, delay=0.0)
        with pytest.raises(SimulationStalled):
            sim.run_until_idle(max_events=3000)
        assert profiler.runs == 1
        assert profiler.events == 3000


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(0.2)
        sim.run()
        assert fired == [pytest.approx(0.2)]

    def test_cancel_suppresses(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.restart(0.2)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_restart_supersedes(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(0.2)
        timer.restart(0.5)
        sim.run()
        assert fired == [pytest.approx(0.5)]

    def test_restart_after_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(0.1)
        sim.run()
        timer.restart(0.1)
        sim.run()
        assert fired == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_armed_and_expiry_tracking(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.restart(0.3)
        assert timer.armed
        assert timer.expiry == pytest.approx(0.3)
        sim.run()
        assert not timer.armed
        assert timer.expiry == float("inf")

    def test_cancel_then_restart(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(0.1)
        timer.cancel()
        timer.restart(0.4)
        sim.run()
        assert fired == [pytest.approx(0.4)]


class TestDeterminism:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dispatch_order_is_sorted_and_stable(self, delays):
        sim = Simulator()
        seen = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, lambda i=index, d=delay: seen.append((d, i)))
        sim.run()
        assert seen == sorted(seen)  # by (time, insertion order)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_two_identical_runs_agree(self, delays):
        def run_once():
            sim = Simulator()
            trace = []
            for index, delay in enumerate(delays):
                sim.schedule(delay, lambda i=index: trace.append((sim.now, i)))
            sim.run()
            return trace

        assert run_once() == run_once()
