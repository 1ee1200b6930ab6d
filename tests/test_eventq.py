"""Equivalence tests for the event queues (``repro.sim.eventq``).

The engine's dispatch contract is a total order by ``(time, insertion
sequence)``.  The heap is the production queue; the calendar queue -- lazy
batch sorting, straggler inserts into the live batch, a heap fallback -- is
an independent implementation of the same contract, kept as the oracle.
Every test here runs the identical workload through both queues and demands
identical traces: same callbacks, same order, same clock readings, under
timestamp ties, stragglers, ``until``/``max_events`` boundaries, Timer lazy
cancellation, the fallback itself, and whole star / leaf-spine / incast
cells, bare and under a profiler.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import eventq
from repro.sim.engine import Simulator, Timer
from repro.sim.eventq import (
    FALLBACK_MIN_STRAGGLERS,
    SCHEDULER_NAMES,
    CalendarEventQueue,
    HeapEventQueue,
    make_event_queue,
)

SCHEDULERS = list(SCHEDULER_NAMES)


class TestResolution:
    def test_explicit_names(self):
        assert Simulator(scheduler="calendar").scheduler == "calendar"
        assert Simulator(scheduler="heap").scheduler == "heap"
        assert Simulator(scheduler=" HEAP ").scheduler == "heap"

    def test_unknown_explicit_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            Simulator(scheduler="btree")

    def test_default_is_heap(self):
        assert Simulator().scheduler == "heap"
        assert isinstance(make_event_queue(), HeapEventQueue)

    def test_env_var_is_ignored(self, monkeypatch):
        # The REPRO_SCHEDULER knob is gone: the calendar oracle is reachable
        # by explicit name only.
        monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
        assert Simulator().scheduler == "heap"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "heap")
        assert Simulator(scheduler="calendar").scheduler == "calendar"

    def test_factory_returns_matching_kind(self):
        assert isinstance(make_event_queue("heap"), HeapEventQueue)
        assert isinstance(make_event_queue("calendar"), CalendarEventQueue)


# --------------------------------------------------------------- trace rig


def _run_trace(scheduler, seed, n_initial=32, until=None, max_events=2000):
    """Drive a randomized self-scheduling workload and record the dispatch
    trace.  The RNG is consumed inside callbacks, so the trace (and the
    RNG stream itself) only matches across queues if the dispatch order
    matches exactly -- any divergence amplifies immediately.
    """
    sim = Simulator(scheduler=scheduler)
    rng = random.Random(seed)
    trace = []
    counter = [0]
    # 0.0 and tiny delays force same-timestamp ties and stragglers
    # (inserts that land inside the calendar queue's active batch).
    delays = [0.0, 1e-9, 1e-7, 1e-7, 1e-6, 1e-6, 5e-6, 1e-4]

    def fire(tag):
        trace.append((sim.now, tag))
        for _ in range(rng.randrange(3)):
            counter[0] += 1
            sim.schedule(rng.choice(delays), fire, counter[0])

    for index in range(n_initial):
        sim.schedule(rng.choice([1e-6, 2e-6, 2e-6, 3e-6]), fire, -index)
    sim.run(until=until, max_events=max_events)
    return trace, sim.events_processed, sim.now


class TestHeapCalendarEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identical_dispatch_trace(self, seed):
        heap = _run_trace("heap", seed)
        calendar = _run_trace("calendar", seed)
        assert calendar == heap

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identical_trace_with_until_horizon(self, seed):
        heap = _run_trace("heap", seed, until=4e-6, max_events=None)
        calendar = _run_trace("calendar", seed, until=4e-6, max_events=None)
        assert calendar == heap

    def test_same_timestamp_ties_fifo_across_queues(self):
        for scheduler in SCHEDULERS:
            sim = Simulator(scheduler=scheduler)
            order = []
            # Interleave two timestamps; ties must dispatch in scheduling
            # order regardless of interleaving.
            for index in range(50):
                sim.schedule(1e-6, order.append, ("a", index))
                sim.schedule(2e-6, order.append, ("b", index))
            sim.run()
            expected = [("a", i) for i in range(50)] + [
                ("b", i) for i in range(50)
            ]
            assert order == expected, scheduler

    def test_until_is_inclusive_and_resumable(self):
        traces = {}
        for scheduler in SCHEDULERS:
            sim = Simulator(scheduler=scheduler)
            trace = []

            def fire(tag, sim=sim, trace=trace):
                trace.append((sim.now, tag))
                if tag < 40:
                    sim.schedule(1e-6, fire, tag + 2)

            sim.schedule(1e-6, fire, 0)
            sim.schedule(2e-6, fire, 1)
            sim.run(until=5e-6)  # inclusive: the event AT 5e-6 runs
            cut = len(trace)
            assert trace and trace[-1][0] == pytest.approx(5e-6)
            assert sim.now == 5e-6
            sim.run()  # resume to idle
            traces[scheduler] = (cut, trace)
        assert traces["calendar"] == traces["heap"]

    def test_max_events_stepping_matches_one_shot(self):
        """Draining in small max_events steps must visit the same trace as
        one uninterrupted run -- exercises counter sync and batch-boundary
        resume in the calendar queue."""
        full = _run_trace("calendar", seed=7, max_events=1500)[0]
        for scheduler in SCHEDULERS:
            sim = Simulator(scheduler=scheduler)
            rng = random.Random(7)
            trace = []
            counter = [0]
            delays = [0.0, 1e-9, 1e-7, 1e-7, 1e-6, 1e-6, 5e-6, 1e-4]

            def fire(tag, sim=sim, rng=rng, trace=trace, counter=counter):
                trace.append((sim.now, tag))
                for _ in range(rng.randrange(3)):
                    counter[0] += 1
                    sim.schedule(rng.choice(delays), fire, counter[0])

            for index in range(32):
                sim.schedule(rng.choice([1e-6, 2e-6, 2e-6, 3e-6]), fire, -index)
            while sim.events_processed < 1500 and sim.pending_events:
                sim.run(max_events=min(37, 1500 - sim.events_processed))
            assert trace == full, scheduler

    def test_pending_events_agree(self):
        for scheduler in SCHEDULERS:
            sim = Simulator(scheduler=scheduler)
            for index in range(10):
                sim.schedule(1e-6 * (index + 1), lambda: None)
            assert sim.pending_events == 10, scheduler
            sim.run(until=5e-6)
            assert sim.pending_events == 5, scheduler
            sim.run()
            assert sim.pending_events == 0, scheduler


class TestTimerInterplay:
    """Timer's deadline-polling leaves stale wake-ups in the queue; they
    must be inert on both queues and the firing time must be exact."""

    def _rto_pattern(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        # ACK-clocked restarts: push the deadline out 20 times, then go
        # quiet and let the RTO elapse.
        for index in range(20):
            sim.schedule(index * 1e-4, timer.restart, 3e-4)
        sim.run()
        return fired, sim.events_processed, sim.now

    def test_restart_pattern_fires_identically(self):
        assert self._rto_pattern("calendar") == self._rto_pattern("heap")

    def test_late_cancel_suppresses_on_both(self):
        for scheduler in SCHEDULERS:
            sim = Simulator(scheduler=scheduler)
            fired = []
            timer = Timer(sim, lambda: fired.append(sim.now))
            timer.restart(1e-3)
            sim.schedule(9e-4, timer.cancel)  # just before expiry
            sim.run()
            assert fired == [], scheduler
            assert sim.pending_events == 0, scheduler

    def test_cancel_restart_storm_matches(self):
        def storm(scheduler):
            sim = Simulator(scheduler=scheduler)
            fired = []
            timer = Timer(sim, lambda: fired.append(sim.now))
            rng = random.Random(13)

            def churn(step):
                action = rng.randrange(3)
                if action == 0:
                    timer.restart(rng.choice([1e-4, 2e-4, 5e-4]))
                elif action == 1:
                    timer.cancel()
                if step < 60:
                    sim.schedule(rng.choice([5e-5, 1e-4]), churn, step + 1)

            sim.schedule(0.0, churn, 0)
            sim.run()
            return fired, sim.events_processed

        assert storm("calendar") == storm("heap")


class TestHeapFallback:
    def _straggler_storm(self, scheduler, n=FALLBACK_MIN_STRAGGLERS + 200):
        """Every dispatch schedules another event far inside the active
        batch window: the pathological case the fallback exists for."""
        sim = Simulator(scheduler=scheduler)
        trace = []

        def gnaw(step):
            trace.append((sim.now, step))
            if step == 0:
                # Beyond the horizon: lands in the far tier, so batch
                # formation (the fallback decision point) actually runs
                # once the straggler storm subsides.
                sim.schedule_at(2.0, trace.append, (2.0, "tail"))
            if step < n:
                sim.schedule(1e-9, gnaw, step + 1)

        # The distant sentinel pins the batch horizon far out, making
        # every 1ns self-reschedule a straggler.
        sim.schedule(1.0, trace.append, (1.0, "sentinel"))
        sim.schedule(1e-9, gnaw, 0)
        sim.run()
        return trace, sim.events_processed, sim.now

    def test_fallback_triggers_and_order_is_preserved(self):
        heap = self._straggler_storm("heap")
        calendar = self._straggler_storm("calendar")
        assert calendar == heap

    def test_fallback_engages_internally(self):
        sim = Simulator(scheduler="calendar")

        def gnaw(step):
            if step == 0:
                sim.schedule_at(2.0, lambda: None)  # far-tier tail
            if step < FALLBACK_MIN_STRAGGLERS + 200:
                sim.schedule(1e-9, gnaw, step + 1)

        sim.schedule(1.0, lambda: None)
        sim.schedule(1e-9, gnaw, 0)
        sim.run()
        assert sim._q._heap is not None  # converted, and still drained fine
        assert sim.scheduler == "calendar"  # reported kind is unchanged
        assert sim.pending_events == 0

    def test_post_fallback_scheduling_still_ordered(self):
        q = make_event_queue("calendar")
        q._convert_to_heap()
        order = []
        q.schedule(2e-6, order.append, "b")
        q.schedule(1e-6, order.append, "a")
        q.schedule(2e-6, order.append, "c")  # tie with "b": FIFO
        q.drain(None, None)
        assert order == ["a", "b", "c"]


def _on_each_queue(monkeypatch, run):
    """``run()`` once per queue, by re-pointing the default the rigs build
    their simulators from (they take no scheduler argument)."""
    results = {}
    for scheduler in SCHEDULERS:
        monkeypatch.setattr(eventq, "DEFAULT_SCHEDULER", scheduler)
        results[scheduler] = run(scheduler)
    return results


class TestFigureEquivalence:
    def test_fig10_cell_bit_identical_across_schedulers(self, monkeypatch):
        """A full microscopic incast cell (topology, DCTCP, RED, monitors)
        must produce byte-identical metrics under either queue."""
        from repro.experiments.executor import Executor
        from repro.experiments.figures import run_experiment

        def cell(_scheduler):
            outcome = run_experiment(
                "fig10",
                fanout=20,
                schemes=("DCTCP-RED-Tail",),
                executor=Executor(jobs=1),
            )
            return outcome.summary()["cells"]

        cells = _on_each_queue(monkeypatch, cell)
        assert cells["calendar"] == cells["heap"]
        assert cells["calendar"]  # non-empty: the run actually happened

    def test_leafspine_cell_with_losses_identical(self, monkeypatch):
        """ECMP fabric, 4 hops a packet, with overflow drops and an RTO:
        the loss-recovery path must not depend on the queue either."""
        from repro.experiments import runner
        from repro.experiments.schemes import simulation_scheme_specs
        from repro.workloads import WEB_SEARCH

        def cell(scheduler):
            result = runner.run_leafspine_fct(
                simulation_scheme_specs()["ECN#"].build,
                WEB_SEARCH, 0.9, 60, 7, dims=(4, 4, 4),
            )
            assert result.manifest.scheduler == scheduler
            return (
                result.events, result.marks, result.drops, result.timeouts,
                sum(record.fct for record in result.collector.records),
            )

        cells = _on_each_queue(monkeypatch, cell)
        assert cells["calendar"] == cells["heap"]
        events, _marks, drops, timeouts, _fct = cells["heap"]
        assert events > 50_000 and drops > 0 and timeouts > 0

    def test_incast_cell_with_losses_identical(self, monkeypatch):
        """A 100-way CoDel burst: buffer overflow, RTO expiry, go-back-N
        retransmission."""
        from repro.experiments.figures import fig10
        from repro.experiments.schemes import simulation_scheme_specs
        from repro.sim.units import ms

        def cell(_scheduler):
            run = fig10.run_microscopic(
                simulation_scheme_specs()["CoDel"].build, "CoDel",
                fanout=100, seed=61,
                warmup=ms(1), burst_time=ms(3), end_time=ms(12),
            )
            return (
                run.events, run.marks, run.drops, run.query_timeouts,
                run.queries_completed, sum(run.query_fcts),
            )

        cells = _on_each_queue(monkeypatch, cell)
        assert cells["calendar"] == cells["heap"]
        _events, _marks, drops, timeouts, completed, _fct = cells["heap"]
        assert drops > 0 and timeouts > 0 and completed == 100


def _bare_and_profiled(monkeypatch, cell):
    """``cell()`` bare and under a profiler-only telemetry, on each queue:
    ``{(scheduler, profiled): (outcome, profiler or None)}``."""
    from repro.telemetry import Telemetry, activate

    runs = {}
    for scheduler in SCHEDULERS:
        monkeypatch.setattr(eventq, "DEFAULT_SCHEDULER", scheduler)
        runs[scheduler, False] = (cell(), None)
        with activate(Telemetry(metrics=False)) as telemetry:
            runs[scheduler, True] = (cell(), telemetry.profiler)
    return runs


class TestProfiledRunEquivalence:
    """A profiled run is the bare ``drain`` called in slices, so a whole
    cell must come out identical bare and profiled, on either queue, and
    the profiler must count exactly the run's events."""

    def test_star_cell(self, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.schemes import simulation_scheme_specs
        from repro.workloads import WEB_SEARCH

        def cell():
            return runner.run_star_fct(
                simulation_scheme_specs()["ECN#"].build, WEB_SEARCH, 0.5, 25, 1
            )

        runs = _bare_and_profiled(monkeypatch, cell)
        signatures = {
            (r.events, r.marks, r.drops, r.timeouts,
             sum(record.fct for record in r.collector.records))
            for r, _ in runs.values()
        }
        assert len(signatures) == 1
        for scheduler in SCHEDULERS:
            result, profiler = runs[scheduler, True]
            assert profiler.runs == 1
            assert profiler.events == result.events > 0
            assert profiler.virtual_seconds == result.sim_duration

    def test_fig10_incast_cell(self, monkeypatch):
        from repro.experiments.figures import fig10
        from repro.experiments.schemes import simulation_scheme_specs
        from repro.sim.units import ms

        def cell():
            return fig10.run_microscopic(
                simulation_scheme_specs()["CoDel"].build, "CoDel",
                fanout=100, seed=61,
                warmup=ms(1), burst_time=ms(3), end_time=ms(12),
            )

        runs = _bare_and_profiled(monkeypatch, cell)
        signatures = {
            (r.events, r.marks, r.drops, r.query_timeouts,
             r.queries_completed, sum(r.query_fcts),
             tuple(map(tuple, r.samples)))
            for r, _ in runs.values()
        }
        assert len(signatures) == 1
        for scheduler in SCHEDULERS:
            run, profiler = runs[scheduler, True]
            assert profiler.events == run.events > 0
