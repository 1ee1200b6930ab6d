"""Unit and property tests for ECN# (Algorithm 1 + instantaneous marking).

These tests pin down the exact semantics of the paper's Algorithm 1:
persistent-queue detection via ``first_above_time``, conservative marking
with the ``pst_interval / sqrt(marking_count)`` cadence, and the composition
with the instantaneous cut-off threshold.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ecn_sharp import EcnSharp, EcnSharpConfig
from repro.sim.units import us

from conftest import StampedPacket


def make_aqm(ins=us(200), pst=us(10), interval=us(240)):
    return EcnSharp(EcnSharpConfig(ins_target=ins, pst_target=pst, pst_interval=interval))


def feed(aqm, now, sojourn):
    """Run one packet with the given sojourn through the AQM; returns the
    packet so callers can inspect the mark."""
    packet = StampedPacket(sojourn=sojourn)
    aqm.on_dequeue(packet, now)
    return packet


class TestConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EcnSharpConfig(0, us(10), us(240))
        with pytest.raises(ValueError):
            EcnSharpConfig(us(200), -1, us(240))
        with pytest.raises(ValueError):
            EcnSharpConfig(us(200), us(10), 0)

    def test_rejects_pst_above_ins(self):
        with pytest.raises(ValueError):
            EcnSharpConfig(ins_target=us(10), pst_target=us(20), pst_interval=us(240))

    def test_from_targets_convenience(self):
        aqm = EcnSharp.from_targets(us(200), us(85), us(200))
        assert aqm.config.pst_target == us(85)


class TestInstantaneousMarking:
    def test_marks_above_ins_target(self):
        aqm = make_aqm()
        packet = feed(aqm, now=0.0, sojourn=us(250))
        assert packet.ce_marked
        assert aqm.stats.instant_marks == 1
        assert aqm.stats.persistent_marks == 0

    def test_no_mark_below(self):
        aqm = make_aqm()
        packet = feed(aqm, now=0.0, sojourn=us(5))
        assert not packet.ce_marked

    def test_burst_marks_immediately(self):
        """Unlike CoDel, the very first over-threshold packet is marked --
        no interval needs to elapse (burst tolerance, Section 3.3)."""
        aqm = make_aqm()
        packet = feed(aqm, now=0.0, sojourn=us(500))
        assert packet.ce_marked


class TestPersistentDetection:
    def test_no_detection_before_interval(self):
        aqm = make_aqm()
        # Sojourn above pst_target but below ins_target, for < interval.
        assert not feed(aqm, now=0.0, sojourn=us(50)).ce_marked
        assert not feed(aqm, now=us(100), sojourn=us(50)).ce_marked
        assert not feed(aqm, now=us(239), sojourn=us(50)).ce_marked

    def test_detection_after_interval(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(50))  # sets first_above_time
        packet = feed(aqm, now=us(241), sojourn=us(50))
        assert packet.ce_marked
        assert aqm.stats.persistent_marks == 1

    def test_dip_below_target_resets_detection(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(50))
        feed(aqm, now=us(120), sojourn=us(5))  # queue drained briefly
        packet = feed(aqm, now=us(241), sojourn=us(50))
        assert not packet.ce_marked  # the clock restarted at 241

    def test_first_above_restarts_after_reset(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(50))
        feed(aqm, now=us(120), sojourn=us(5))
        feed(aqm, now=us(200), sojourn=us(50))  # new first_above_time
        assert not feed(aqm, now=us(400), sojourn=us(50)).ce_marked
        assert feed(aqm, now=us(200) + us(241), sojourn=us(50)).ce_marked


class TestConservativeMarking:
    def test_one_mark_then_wait_one_interval(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(50))
        first = feed(aqm, now=us(250), sojourn=us(50))
        assert first.ce_marked
        # Immediately after the first mark, nothing more is marked until
        # marking_next (= now + interval) passes.
        assert not feed(aqm, now=us(300), sojourn=us(50)).ce_marked
        assert not feed(aqm, now=us(488), sojourn=us(50)).ce_marked
        assert feed(aqm, now=us(492), sojourn=us(50)).ce_marked

    def test_interval_shrinks_with_sqrt_count(self):
        """While the queue persists, successive marks come closer together:
        gap_k ~ interval / sqrt(k)."""
        aqm = make_aqm(interval=us(100))
        feed(aqm, now=0.0, sojourn=us(50))
        mark_times = []
        t = 0.0
        step = us(1)
        while len(mark_times) < 6 and t < us(2_000):
            t += step
            if feed(aqm, now=t, sojourn=us(50)).ce_marked:
                mark_times.append(t)
        gaps = [b - a for a, b in zip(mark_times, mark_times[1:])]
        # Gaps are decreasing (within one step's quantisation).
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + step
        # The k-th gap tracks interval/sqrt(k+1).
        assert gaps[-1] < gaps[0]

    def test_marking_state_clears_when_queue_expires(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(50))
        feed(aqm, now=us(250), sojourn=us(50))  # marking engaged
        feed(aqm, now=us(300), sojourn=us(1))  # queue drained
        assert not aqm._marking_state
        # A fresh persistent episode needs a fresh full interval again.
        feed(aqm, now=us(400), sojourn=us(50))
        assert not feed(aqm, now=us(500), sojourn=us(50)).ce_marked
        assert feed(aqm, now=us(645), sojourn=us(50)).ce_marked

    def test_marking_count_escalates(self):
        aqm = make_aqm(interval=us(100))
        feed(aqm, now=0.0, sojourn=us(50))
        t = 0.0
        for _ in range(3_000):
            t += us(1)
            feed(aqm, now=t, sojourn=us(50))
        assert aqm._marking_count > 5


class TestComposition:
    def test_instant_and_persistent_counted_separately(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(300))  # instant
        feed(aqm, now=us(10), sojourn=us(50))
        feed(aqm, now=us(300), sojourn=us(50))  # persistent
        assert aqm.stats.instant_marks == 1
        assert aqm.stats.persistent_marks == 1
        assert aqm.stats.marks == 2

    def test_persistent_state_tracks_during_instant_marks(self):
        """Sojourns above ins_target also exceed pst_target, so the
        persistent detector keeps running during an instantaneous episode."""
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(300))
        feed(aqm, now=us(250), sojourn=us(300))
        assert aqm._marking_state  # persistent congestion recognised

    def test_reset_restores_pristine_state(self):
        aqm = make_aqm()
        feed(aqm, now=0.0, sojourn=us(300))
        feed(aqm, now=us(250), sojourn=us(50))
        aqm.reset()
        assert aqm.stats.marks == 0
        assert not aqm._marking_state
        assert aqm._first_above_time is None
        assert not feed(aqm, now=us(500), sojourn=us(50)).ce_marked


class TestAlgorithmProperties:
    @given(
        sojourns=st.lists(
            st.floats(min_value=0.0, max_value=400e-6, allow_nan=False),
            min_size=10,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_low_sojourn_never_marks(self, sojourns):
        """Packets below pst_target are never marked, whatever the history."""
        aqm = make_aqm(pst=us(10))
        t = 0.0
        for sojourn in sojourns:
            t += us(3)
            feed(aqm, now=t, sojourn=sojourn)
        final = feed(aqm, now=t + us(3), sojourn=us(5))
        assert not final.ce_marked

    @given(
        sojourns=st.lists(
            st.sampled_from([0.0, 5e-6, 50e-6, 120e-6, 300e-6]),
            min_size=20,
            max_size=200,
        ),
        gap_us=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_above_ins_always_marks(self, sojourns, gap_us):
        """The instantaneous guarantee: sojourn > ins_target => marked."""
        aqm = make_aqm()
        t = 0.0
        for sojourn in sojourns:
            t += us(gap_us)
            packet = feed(aqm, now=t, sojourn=sojourn)
            if sojourn > aqm.config.ins_target:
                assert packet.ce_marked

    @given(
        gap_us=st.integers(min_value=1, max_value=40),
        sojourn_us=st.integers(min_value=11, max_value=180),
    )
    @settings(max_examples=40, deadline=None)
    def test_persistent_marking_is_conservative(self, gap_us, sojourn_us):
        """Over one interval after detection, ECN# marks at most a handful
        of packets (vs cut-off marking which would mark all of them)."""
        aqm = make_aqm(interval=us(240))
        t, marked, total = 0.0, 0, 0
        while t < us(240 * 3):
            t += us(gap_us)
            total += 1
            if feed(aqm, now=t, sojourn=us(sojourn_us)).ce_marked:
                marked += 1
        # Conservative: at most ~1 mark per shrinking interval; over 3
        # intervals that is far fewer than the packet count.
        assert marked <= 12
        assert marked < total

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_given_trace(self, seed):
        import random

        rng = random.Random(seed)
        trace = [
            (us(3) * (i + 1), rng.choice([0.0, 20e-6, 60e-6, 250e-6]))
            for i in range(200)
        ]

        def run():
            aqm = make_aqm()
            return [feed(aqm, now=t, sojourn=s).ce_marked for t, s in trace]

        assert run() == run()


class _Algorithm1Oracle:
    """Algorithm 1 transcribed line by line from the paper, as the two
    functions it is written as (the implementation folds them into one).
    Returns None / "instant" / "persistent" per packet."""

    def __init__(self, config):
        self.c = config
        self.first_above_time = None  # the paper's 0 sentinel; t=0 is valid here
        self.marking_state = False
        self.marking_count = 0
        self.marking_next = 0.0

    def is_persistent_queue_buildups(self, sojourn, now):
        if sojourn < self.c.pst_target:
            self.first_above_time = None
            return False
        if self.first_above_time is None:
            self.first_above_time = now
            return False
        return now > self.first_above_time + self.c.pst_interval

    def should_persistent_mark(self, sojourn, now):
        detected = self.is_persistent_queue_buildups(sojourn, now)
        if self.marking_state:
            if not detected:
                self.marking_state = False
                return False
            if now > self.marking_next:
                self.marking_count += 1
                self.marking_next += self.c.pst_interval / math.sqrt(self.marking_count)
                return True
            return False
        if detected:
            self.marking_state = True
            self.marking_count = 1
            self.marking_next = now + self.c.pst_interval
            return True
        return False

    def decide(self, sojourn, now):
        persistent = self.should_persistent_mark(sojourn, now)
        if sojourn > self.c.ins_target:
            return "instant"
        return "persistent" if persistent else None


class TestAgainstAlgorithm1Oracle:
    """The flattened ``on_dequeue`` against the paper's two-function form,
    through the AQM<->packet contract only: ``StampedPacket`` answers
    ``sojourn_time(now)`` and has no ``enqueue_time`` to peek at."""

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=120),  # gap to the previous dequeue, us
                st.sampled_from(
                    [0.0, 5e-6, 9.99e-6, 10e-6, 20e-6, 60e-6, 199e-6, 200e-6, 250e-6]
                ),
            ),
            min_size=1,
            max_size=400,
        ),
        interval_us=st.sampled_from([30, 100, 240]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_decision_and_state_on_every_packet(self, steps, interval_us):
        aqm = make_aqm(interval=us(interval_us))
        oracle = _Algorithm1Oracle(aqm.config)
        now = 0.0
        expected = {"instant": 0, "persistent": 0}
        for gap_us, sojourn in steps:
            now += us(gap_us)
            decision = oracle.decide(sojourn, now)
            packet = feed(aqm, now=now, sojourn=sojourn)
            assert packet.ce_marked == (decision is not None)
            if decision is not None:
                expected[decision] += 1
            assert (
                aqm._first_above_time,
                aqm._marking_state,
                aqm._marking_count,
                aqm._marking_next,
            ) == (
                oracle.first_above_time,
                oracle.marking_state,
                oracle.marking_count,
                oracle.marking_next,
            )
        assert aqm.stats.instant_marks == expected["instant"]
        assert aqm.stats.persistent_marks == expected["persistent"]
        assert aqm.stats.packets_seen == len(steps)

    def test_reads_the_sojourn_exactly_once(self):
        class Counting(StampedPacket):
            reads = 0

            def sojourn_time(self, now):
                self.reads += 1
                return super().sojourn_time(now)

        aqm = make_aqm()
        packet = Counting(sojourn=us(50))
        aqm.on_dequeue(packet, 1e-3)
        assert packet.reads == 1


class TestInstantaneousOnlyDegeneracy:
    """The paper's degenerate case, end to end: ECN# whose ``pst_interval``
    outlasts the run never detects a persistent queue, so it *is* DCTCP-RED
    with a sojourn threshold -- the ablation's first arm relies on it."""

    def test_ablation_arm_equals_sojourn_red_on_a_fanout_200_cell(self):
        from repro.core.red import SojournRed
        from repro.experiments.figures.ablation import BURST_FANOUT, VARIANTS
        from repro.experiments.figures.fig10 import run_microscopic

        config = VARIANTS["instantaneous-only"]
        arm, red = (
            run_microscopic(factory, scheme_name="arm", fanout=BURST_FANOUT, seed=91)
            for factory in (
                lambda: EcnSharp(config),
                lambda: SojournRed(config.ins_target),
            )
        )
        assert arm.marks > 0  # the instantaneous path was exercised
        assert (arm.marks, arm.drops) == (red.marks, red.drops)
        assert arm.metrics() == red.metrics()
        assert arm.samples == red.samples and arm.events == red.events
