"""Tests for the flow-level fluid fast model: fidelity plumbing on run
specs, the analytic marker banks, the engine against its dense reference
(``tests/fluid_reference.py``) and against its own invariants,
bit-identical determinism through the executor (inline, pooled, and
cache-replayed), fluid-vs-packet agreement on the paper's headline
effects, and fidelity threading through the scenario layer."""

import hashlib
import math

import numpy as np
import pytest
from fluid_reference import dense_bank_like, dense_twin
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import Executor, execute_spec
from repro.experiments.runner import estimate_star_network_rtt, run_star_fct
from repro.experiments.schemes import simulation_scheme_specs
from repro.experiments.schemes import testbed_scheme_specs as scheme_specs
from repro.experiments.specs import (
    FIDELITIES,
    AqmSpec,
    RunSpec,
)
from repro.fluid import (
    FlowPopulation,
    FluidEngine,
    FluidFabric,
    build_marker_bank,
    choose_dt,
    run_fluid_leafspine_fct,
    run_fluid_microscopic,
    run_fluid_star_fct,
)
from repro.fluid.marking import CodelMarkerBank, EcnSharpMarkerBank, StepMarkerBank
from repro.fluid.population import leafspine_population, star_population
from repro.netem.profiles import RttProfile
from repro.scenarios import Scenario, ScenarioError, compile_scenario
from repro.settings import resolve
from repro.sim.units import MSS, gbps, ms, us
from repro.validation.crossfid import (
    CROSSFID_FCT_BAND,
    CROSSFID_MARK_BAND,
    CROSSFID_QUEUE_BAND,
    crossfid_band_for,
)
from repro.workloads import WEB_SEARCH


def fluid_spec(seed=3, label="DCTCP-RED-Tail", load=0.5, n_flows=24):
    return RunSpec.star(
        scheme_specs()[label],
        workload=WEB_SEARCH.name,
        load=load,
        n_flows=n_flows,
        seed=seed,
        label=label,
        fidelity="fluid",
    )


def result_signature(result):
    """Everything determinism should pin: metrics, counters, step count."""
    return (
        result.summary.metrics(),
        result.marks,
        result.instant_marks,
        result.persistent_marks,
        result.drops,
        result.events,
        tuple((r.flow_id, r.size_bytes, r.fct) for r in result.collector.records),
    )


class TestFidelitySpecs:
    def test_unknown_extras_key_raises(self):
        with pytest.raises(ValueError, match="fidelty"):
            RunSpec.star(
                AqmSpec.make("sojourn-red", sojourn=us(200)),
                workload=WEB_SEARCH.name,
                load=0.4,
                n_flows=12,
                seed=1,
                label="RED-Tail",
                fidelty="fluid",  # typo'd key must fail loudly, not no-op
            )

    def test_invalid_fidelity_value_raises(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            RunSpec.star(
                AqmSpec.make("sojourn-red", sojourn=us(200)),
                workload=WEB_SEARCH.name,
                load=0.4,
                n_flows=12,
                seed=1,
                label="RED-Tail",
                fidelity="fliud",
            )

    def test_default_fidelity_is_packet(self):
        spec = fluid_spec().with_fidelity("packet")
        assert spec.fidelity == "packet"
        assert "fidelity" not in dict(spec.extras)

    def test_with_fidelity_packet_preserves_token(self):
        # Pre-fluid cache entries must stay addressable: the canonical
        # packet spec never mentions fidelity in its token.
        base = RunSpec.star(
            AqmSpec.make("sojourn-red", sojourn=us(200)),
            workload=WEB_SEARCH.name,
            load=0.4,
            n_flows=12,
            seed=1,
            label="RED-Tail",
        )
        assert base.with_fidelity("packet").token() == base.token()
        fluid = base.with_fidelity("fluid")
        assert fluid.fidelity == "fluid"
        assert fluid.token() != base.token()
        assert fluid.with_fidelity("packet").token() == base.token()

    def test_with_fidelity_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            fluid_spec().with_fidelity("analytic")

    def test_spec_roundtrips_through_dict(self):
        spec = fluid_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_resolve_fidelity_precedence(self, monkeypatch):
        assert resolve("fidelity") == "packet"
        monkeypatch.setenv("REPRO_FIDELITY", "fluid")
        assert resolve("fidelity") == "fluid"
        assert resolve("fidelity", "packet") == "packet"  # explicit beats env
        monkeypatch.setenv("REPRO_FIDELITY", "fliud")
        with pytest.raises(ValueError, match="REPRO_FIDELITY='fliud'"):
            resolve("fidelity")
        with pytest.raises(ValueError, match="unknown fidelity"):
            resolve("fidelity", "analytic")  # an unknown explicit one too

    def test_fidelities_registry(self):
        assert FIDELITIES == ("packet", "fluid")


ONE = np.arange(1)  # the port subset of a one-port marker bank


class TestMarkerBanks:
    def test_step_bank_is_a_threshold(self):
        bank = StepMarkerBank(us(200), n_ports=2)
        sojourn = np.array([us(300), us(100)])
        pkts = np.ones(2)
        marks = bank.step(np.arange(2), sojourn, now=0.0, dt=us(10), pkts=pkts)
        assert marks.fraction.tolist() == [1.0, 0.0]
        assert marks.instant.tolist() == [1.0, 0.0]
        assert marks.persistent.tolist() == [0.0, 0.0]

    def test_step_bank_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            StepMarkerBank(0.0, n_ports=1)

    def test_codel_waits_one_interval_then_escalates(self):
        target, interval, dt = us(85), us(200), us(50)
        bank = CodelMarkerBank(target, interval, n_ports=1)
        sojourn = np.array([us(120)])
        pkts = np.ones(1)
        fractions = [
            float(bank.step(ONE, sojourn, now=k * dt, dt=dt, pkts=pkts).fraction[0])
            for k in range(5)
        ]
        # Silent until one interval above target, then a discrete first
        # mark, then the sqrt(count)/interval rate (0.25 events per step).
        assert fractions[0] == 0.0
        assert fractions[1] == 0.0
        assert fractions[2] == 0.0
        assert fractions[3] == 1.0
        assert fractions[4] == pytest.approx(dt / interval)

    def test_codel_resets_below_target(self):
        target, interval, dt = us(85), us(200), us(50)
        bank = CodelMarkerBank(target, interval, n_ports=1)
        pkts = np.ones(1)
        above = np.array([us(120)])
        for k in range(4):
            bank.step(ONE, above, now=k * dt, dt=dt, pkts=pkts)
        assert bool(bank.law.marking[0])
        bank.step(ONE, np.array([us(10)]), now=4 * dt, dt=dt, pkts=pkts)
        assert not bool(bank.law.marking[0])
        # Another dwell is required before marking resumes.
        resumed = bank.step(ONE, above, now=5 * dt, dt=dt, pkts=pkts)
        assert float(resumed.fraction[0]) == 0.0

    def test_ecn_sharp_instant_overrides_persistent(self):
        bank = EcnSharpMarkerBank(
            ins_target=us(200), pst_target=us(50), pst_interval=us(100), n_ports=1
        )
        pkts = np.ones(1)
        # Dwell between pst and ins targets long enough to arm persistence.
        for k in range(4):
            armed = bank.step(ONE, np.array([us(120)]), now=k * us(50), dt=us(50), pkts=pkts)
        assert float(armed.persistent[0]) > 0.0
        assert float(armed.instant[0]) == 0.0
        # Above ins_target everything is instant-marked; persistent
        # contribution is suppressed packet-by-packet.
        spiked = bank.step(ONE, np.array([us(300)]), now=4 * us(50), dt=us(50), pkts=pkts)
        assert float(spiked.instant[0]) == 1.0
        assert float(spiked.persistent[0]) == 0.0
        assert float(spiked.fraction[0]) == 1.0

    def test_ecn_sharp_rejects_inverted_targets(self):
        with pytest.raises(ValueError, match="pst_target"):
            EcnSharpMarkerBank(
                ins_target=us(50), pst_target=us(100), pst_interval=us(100), n_ports=1
            )

    def test_build_marker_bank_dispatch(self):
        assert isinstance(
            build_marker_bank("sojourn-red", {"sojourn": us(200)}, 1), StepMarkerBank
        )
        assert isinstance(
            build_marker_bank("tcn", {"threshold": us(200)}, 1), StepMarkerBank
        )
        assert isinstance(
            build_marker_bank("codel", {"target": us(85), "interval": us(200)}, 1),
            CodelMarkerBank,
        )
        assert isinstance(
            build_marker_bank(
                "ecn-sharp",
                {"ins_target": us(200), "pst_target": us(50), "pst_interval": us(100)},
                1,
            ),
            EcnSharpMarkerBank,
        )
        with pytest.raises(ValueError, match="no fluid marking model"):
            build_marker_bank("no-such-aqm", {}, 1)

    def test_choose_dt_tracks_rtt(self):
        assert choose_dt(us(80)) == pytest.approx(us(10))
        assert choose_dt(us(2)) == pytest.approx(us(1))  # floor
        assert choose_dt(1.0) == pytest.approx(us(20))  # ceiling


MARKERS = {
    "sojourn-red": AqmSpec.make("sojourn-red", sojourn=us(200)),
    "tcn": AqmSpec.make("tcn", threshold=us(150)),
    "codel": AqmSpec.make("codel", target=us(85), interval=us(200)),
    "ecn-sharp": AqmSpec.make(
        "ecn-sharp", ins_target=us(200), pst_target=us(85), pst_interval=us(200)
    ),
}
STATEFUL = ("codel", "ecn-sharp")


def marker_bank(kind, n_ports):
    spec = MARKERS[kind]
    return build_marker_bank(spec.kind, dict(spec.params), n_ports)


def assert_marks_equal(got, ports, want, k):
    """A subset bank's step (``None`` read as all zeros) laid out over the
    whole bank is the dense bank's step, byte for byte."""
    for field in ("fraction", "instant", "persistent"):
        whole = np.zeros(len(want.fraction))
        if got is not None:
            whole[ports] = getattr(got, field)
        assert whole.tobytes() == getattr(want, field).tobytes(), (k, field)


@st.composite
def marker_traces(draw):
    """``(bank factory, dt, spells, seed)``: each spell holds every port at
    one sojourn level -- none, exactly a target, or anything up to twice the
    higher one -- for up to 30 steps; ``seed`` drives per-step traffic and
    which drained ports linger in the stepped subset."""
    dt = draw(st.sampled_from([us(1), us(10), us(20)]))
    low, high = sorted(draw(st.lists(
        st.floats(us(1), us(300)), min_size=2, max_size=2)))
    interval = draw(st.floats(dt, 25 * dt))
    make_bank = draw(st.sampled_from([
        lambda n: StepMarkerBank(high, n),
        lambda n: CodelMarkerBank(low, interval, n),
        lambda n: EcnSharpMarkerBank(high, low, interval, n),
    ]))
    n_ports = draw(st.integers(1, 6))
    level = st.one_of(st.sampled_from([0.0, low, high]), st.floats(0.0, 2 * high))
    spells = draw(st.lists(
        st.tuples(st.integers(1, 30),
                  st.lists(level, min_size=n_ports, max_size=n_ports)),
        min_size=1, max_size=8))
    return make_bank, dt, spells, draw(st.integers(0, 2**32 - 1))


class TestMarkerBankSubsets:
    """Stepping only the ports that carry something, and forgetting a port
    when it leaves, is the whole bank stepped with zero sojourn elsewhere."""

    @pytest.mark.parametrize("kind", STATEFUL)
    def test_subset_with_forget_equals_whole_bank(self, kind):
        n_ports, n_steps, dt = 7, 400, us(10)
        rng = np.random.default_rng(11)
        bank = marker_bank(kind, n_ports)
        dense = dense_bank_like(bank)
        # Busy spells long enough to arm persistence, dips below target,
        # and drained spells (zero sojourn) during which a port may linger
        # in the subset or leave it.
        level = rng.choice([0.0, us(40), us(120), us(300)], size=(n_steps // 20, n_ports))
        sojourn = np.repeat(level, 20, axis=0) * rng.uniform(0.9, 1.1, (n_steps, n_ports))
        lingers = rng.random((n_steps, n_ports)) < 0.3
        stepped = np.zeros(n_ports, dtype=bool)
        marked = 0.0
        for k in range(n_steps):
            pkts = rng.uniform(0.0, 8.0, n_ports)
            subset = (sojourn[k] > 0.0) | (stepped & lingers[k])
            bank.forget(np.flatnonzero(stepped & ~subset))
            stepped = subset
            ports = np.flatnonzero(subset)
            got = bank.step(ports, sojourn[k, ports], k * dt, dt, pkts[ports])
            want = dense.step(sojourn[k], k * dt, dt, pkts)
            assert_marks_equal(got, ports, want, k)
            marked += float(want.persistent.sum())
        assert marked > 0.0  # the trace did arm persistent marking
        assert bank.law.marking.tobytes() == dense.law.marking.tobytes()
        assert bank.law.count.tobytes() == dense.law.count.tobytes()
        assert np.array_equal(bank.law.first_above, dense.law.first_above, equal_nan=True)

    @given(trace=marker_traces())
    @settings(max_examples=150, deadline=None)
    def test_any_trace_equals_the_dense_bank(self, trace):
        make_bank, dt, spells, seed = trace
        n_ports = len(spells[0][1])
        bank = make_bank(n_ports)
        dense = dense_bank_like(bank)
        rng = np.random.default_rng(seed)
        stepped = np.zeros(n_ports, dtype=bool)
        k = 0
        for length, level in spells:
            sojourn = np.array(level)
            for _ in range(length):
                # A fifth of the ports pass no traffic at all in a step.
                pkts = rng.uniform(0.0, 8.0, n_ports) * (rng.random(n_ports) < 0.8)
                subset = (sojourn > 0.0) | (stepped & (rng.random(n_ports) < 0.5))
                bank.forget(rng.permutation(np.flatnonzero(stepped & ~subset)))
                stepped = subset
                # The engine hands a bank its slots in live-port order, which
                # need not be ascending.
                ports = rng.permutation(np.flatnonzero(subset))
                got = bank.step(ports, sojourn[ports], k * dt, dt, pkts[ports])
                want = dense.step(sojourn, k * dt, dt, pkts)
                assert_marks_equal(got, ports, want, k)
                k += 1
        if hasattr(bank, "law"):
            for name in ("first_above", "marking", "count"):
                assert (getattr(bank.law, name).tobytes()
                        == getattr(dense.law, name).tobytes()), name

    @pytest.mark.parametrize("kind", STATEFUL)
    def test_forgotten_port_needs_a_fresh_dwell(self, kind):
        bank = marker_bank(kind, 2)
        both, dt = np.arange(2), us(50)
        above, pkts = np.full(2, us(120)), np.ones(2)
        for k in range(5):
            armed = bank.step(both, above, k * dt, dt, pkts)
        assert (armed.persistent > 0.0).all()
        bank.forget(np.array([1]))
        again = bank.step(both, above, 5 * dt, dt, pkts)
        assert again.persistent[0] > 0.0 and again.persistent[1] == 0.0


@pytest.fixture
def oracle(monkeypatch):
    """Every ``FluidEngine.run`` inside the test also runs the dense
    reference on a twin of the engine and must equal it exactly.  Returns
    the list of production results seen."""
    production = FluidEngine.run
    seen = []

    def checked(engine, **kwargs):
        twin = dense_twin(engine)
        got = production(engine, **kwargs)
        want = twin.run(**kwargs)
        for field in ("finish", "fct", "completed"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        for field in ("marks", "instant_marks", "persistent_marks", "drops",
                      "steps", "duration", "queue_samples"):
            assert getattr(got, field) == getattr(want, field), field
        for field in ("cwnd", "alpha", "slow_start", "remaining", "queue"):
            assert getattr(engine, field).tobytes() == getattr(twin, field).tobytes(), field
        seen.append(got)
        return got

    monkeypatch.setattr(FluidEngine, "run", checked)
    return seen


def hand_rig(kind="ecn-sharp", init_cwnd=10.0, buffer_bytes=60_000.0):
    """Six flows over a five-port line: starts out of index order with an
    idle gap before the last, and -1 padding inside and after the paths."""
    population = FlowPopulation(
        start=np.array([ms(1.2), 0.0, ms(0.3), ms(1.2), ms(0.3), ms(9.0)]),
        size=np.array([4e5, 9e5, 2e5, 3e4, 6e5, 2.5e5]),
        base_rtt=np.array([us(80), us(120), us(200), us(80), us(95), us(160)]),
        src=np.array([0, 1, 0, 1, 1, 0]),
        dst=np.array([4, 4, 3, 3, 4, 4]),
    )
    fabric = FluidFabric(
        capacity_bps=np.array([gbps(10), gbps(10), gbps(5), gbps(10), gbps(10)]),
        buffer_bytes=np.full(5, float(buffer_bytes)),
        marked_ports=np.array([4, 2, 3]),
        marker=marker_bank(kind, 3),
        paths=np.array([
            [0, 2, 4], [1, -1, 4], [0, 2, 3], [1, 3, -1], [1, 2, 4], [0, -1, 4],
        ]),
    )
    return FluidEngine(population, fabric, init_cwnd=init_cwnd, dt=us(10))


def scattered_rig(marker):
    """Twelve 4 Gb/s bottlenecks scattered over a 40-port AQM bank, two
    flows each, with targets of a few microseconds: many ports mark in the
    same step, so the mark totals have several terms to round."""
    n_nics, n_aqm = 24, 40
    rng = np.random.default_rng(4)
    bottleneck = n_nics + np.repeat(rng.choice(n_aqm, size=12, replace=False), 2)
    population = FlowPopulation(
        start=rng.uniform(0.0, us(200), n_nics),
        size=rng.uniform(2e5, 9e5, n_nics),
        base_rtt=rng.uniform(us(60), us(240), n_nics),
        src=np.arange(n_nics),
        dst=bottleneck,
    )
    fabric = FluidFabric(
        capacity_bps=np.concatenate([np.full(n_nics, gbps(10)), np.full(n_aqm, gbps(4))]),
        buffer_bytes=np.full(n_nics + n_aqm, 1e6),
        marked_ports=n_nics + np.arange(n_aqm),
        marker=marker(n_aqm),
        paths=np.column_stack([np.arange(n_nics), bottleneck]),
    )
    return FluidEngine(population, fabric, dt=us(10))


def rejoining_rig(marker):
    """Two 4 Gb/s bottlenecks (ports 3 and 4) with a one-microsecond
    target.  The first flow leaves port 3 a backlog whose last drain step
    begins above target, so the port leaves the live set armed; a mouse on
    port 4 then runs the bank with nobody above target; the third flow
    brings port 3 back and must wait out a full interval like any other."""
    population = FlowPopulation(
        start=np.array([0.0, ms(3), ms(6)]),
        size=np.array([3e5, 3000.0, 2e6]),
        base_rtt=np.full(3, us(80)),
        src=np.arange(3),
        dst=np.array([3, 4, 3]),
    )
    fabric = FluidFabric(
        capacity_bps=np.array([gbps(10)] * 3 + [gbps(4)] * 2),
        buffer_bytes=np.full(5, 1e6),
        marked_ports=np.array([3, 4]),
        marker=marker(2),
        paths=np.array([[0, 3], [1, 4], [2, 3]]),
    )
    return FluidEngine(population, fabric, dt=us(10))


class TestDenseOracle:
    """The production engine against ``tests/fluid_reference.py``: exact
    equality of every output and of the engine state left behind."""

    @pytest.mark.parametrize("shallow", [False, True], ids=["deep", "shallow"])
    @pytest.mark.parametrize("kind", MARKERS)
    def test_star(self, oracle, kind, shallow):
        result = run_fluid_star_fct(
            MARKERS[kind], WEB_SEARCH, 0.7, 50, seed=5,
            buffer_bytes=30_000 if shallow else 2_000_000,
        )
        assert len(oracle) == 1
        assert (result.drops > 0) == shallow

    @pytest.mark.parametrize("shallow", [False, True], ids=["deep", "shallow"])
    @pytest.mark.parametrize("kind", MARKERS)
    def test_leafspine_4x4x4(self, oracle, kind, shallow):
        # A quarter of the flows stay inside a leaf: their paths carry -1
        # padding between the NIC and the last hop.
        result = run_fluid_leafspine_fct(
            MARKERS[kind], WEB_SEARCH, 0.8, 100, seed=3, dims=(4, 4, 4),
            buffer_bytes=15_000 if shallow else 1_000_000, oversubscription=2.0,
        )
        # (a buffer this shallow overflows before any threshold is reached)
        assert (result.drops > 0) == shallow == (result.marks == 0)

    @pytest.mark.parametrize("shallow", [False, True], ids=["deep", "shallow"])
    @pytest.mark.parametrize("kind", MARKERS)
    def test_leafspine_1024_hosts(self, oracle, kind, shallow):
        # Oversubscribed trunks, or 150 flows among 1024 hosts never meet.
        result = run_fluid_leafspine_fct(
            MARKERS[kind], WEB_SEARCH, 0.5, 150, seed=2, dims=(16, 32, 32),
            buffer_bytes=20_000 if shallow else 1_000_000, oversubscription=16.0,
        )
        assert result.marks > 0
        assert (result.drops > 0) == shallow

    @pytest.mark.parametrize("kind", MARKERS)
    def test_microscopic_unsorted_starts_end_time_and_samples(self, oracle, kind):
        run = run_fluid_microscopic(
            MARKERS[kind], kind, fanout=40,
            burst_time=ms(12), end_time=ms(20), sample_interval=us(25),
        )
        assert len(oracle[0].queue_samples) == len(run.samples[0]) > 500
        assert not oracle[0].completed.all()  # end_time cut the background

    def test_idle_gaps_between_arrivals(self, oracle):
        result = run_fluid_star_fct(MARKERS["ecn-sharp"], WEB_SEARCH, 0.02, 30, seed=9)
        dt = choose_dt(us(70))
        assert result.events < 0.5 * result.sim_duration / dt  # gaps were jumped

    @pytest.mark.parametrize("kind", MARKERS)
    def test_hand_rig(self, oracle, kind):
        result = hand_rig(kind).run(
            sample_port=2, sample_interval=us(40), sample_start=ms(0.1)
        )
        assert result.completed.all() and result.queue_samples

    @pytest.mark.parametrize("marker", [
        lambda n: CodelMarkerBank(us(5), us(50), n),
        lambda n: EcnSharpMarkerBank(us(60), us(5), us(50), n),
    ], ids=["codel", "ecn-sharp"])
    def test_many_ports_marking_in_the_same_step(self, oracle, marker):
        assert scattered_rig(marker).run().persistent_marks > 100

    @pytest.mark.parametrize("marker", [
        lambda n: CodelMarkerBank(us(1), us(400), n),
        lambda n: EcnSharpMarkerBank(us(900), us(1), us(400), n),
    ], ids=["codel", "ecn-sharp"])
    def test_port_that_left_the_live_set_armed_starts_over(self, oracle, marker):
        assert rejoining_rig(marker).run().persistent_marks > 0

    def test_hand_rig_overflowing(self, oracle):
        assert hand_rig(buffer_bytes=12_000.0).run().drops > 0

    def test_init_cwnd_outside_the_clamp_range(self, oracle):
        # The first window update clamps every flow's window, started or not.
        assert hand_rig(init_cwnd=0.25).run().completed.all()
        assert hand_rig(init_cwnd=40_000.0).run().completed.all()

    @pytest.mark.parametrize("init_cwnd", [0.25, 40_000.0])
    def test_first_update_clamps_an_active_flow_not_yet_due(self, oracle, init_cwnd):
        # The second flow is sending, half-way to its first update, when the
        # first flow's update clamps every window: its window moves mid-epoch.
        engine, _ = probed_star([2e5, 2e5], starts=[0.0, us(40)])
        engine.cwnd[:] = init_cwnd
        assert engine.run().completed.all()

    def test_backlog_present_before_the_first_step(self, oracle):
        engine = hand_rig()
        engine.queue[3] = 50_000.0  # nobody's path yet: must still drain and mark
        engine.run(end_time=ms(2))
        assert engine.queue[3] < 50_000.0


class Probe(StepMarkerBank):
    """A threshold bank over *every* port of a fabric that records, from
    inside each engine step, when it ran, the bytes each port passed on,
    and whether any queue was outside its buffer."""

    def __init__(self, n_ports, threshold):
        super().__init__(threshold, n_ports)
        self.engine = None
        self.times = []
        self.passed_bytes = np.zeros(n_ports)
        self.out_of_bounds = 0

    def step(self, ports, sojourn, now, dt, pkts):
        self.times.append(now)
        self.passed_bytes[ports] += pkts * MSS
        queue = self.engine.queue
        self.out_of_bounds += int(
            (queue < 0.0).any() or (queue > self.engine.fabric.buffer_bytes).any()
        )
        return super().step(ports, sojourn, now, dt, pkts)


def probed_star(sizes, starts, buffer_bytes=2e6, threshold=1.0, extra_ports=0):
    """A bottleneck (port 0) fed by one sender NIC per flow (ports 1..n),
    then ``extra_ports`` ports nobody's path uses; a :class:`Probe` that
    marks above ``threshold`` seconds of sojourn sits on every port."""
    n = len(sizes)
    nics = 1 + np.arange(n)
    population = FlowPopulation(
        start=np.asarray(starts, dtype=float),
        size=np.asarray(sizes, dtype=float),
        base_rtt=np.full(n, us(80)),
        src=nics,
        dst=np.zeros(n, dtype=np.int64),
    )
    n_ports = 1 + n + extra_ports
    buffers = np.full(n_ports, 4e6)
    buffers[0] = buffer_bytes
    probe = Probe(n_ports, threshold)
    fabric = FluidFabric(
        capacity_bps=np.full(n_ports, gbps(10)),
        buffer_bytes=buffers,
        marked_ports=np.arange(n_ports),
        marker=probe,
        paths=np.column_stack([nics, np.zeros(n, dtype=np.int64)]),
    )
    probe.engine = FluidEngine(population, fabric, dt=us(10))
    return probe.engine, probe


class TestFluidEngine:
    def test_bytes_delivered_equal_bytes_asked_for(self):
        sizes = np.array([3e5, 1.2e6, 4e4, 8e5, 2e6, 1500.0])
        engine, probe = probed_star(sizes, starts=[0.0, 0.0, us(50), us(300), ms(1), ms(1)])
        result = engine.run()
        assert result.completed.all() and result.drops == 0.0
        assert not engine.remaining.any()
        # A NIC carries one flow at no more than line rate, so what it
        # passed on is what the flow delivered: its size, plus less than
        # one step at line rate injected by the step it finished in.
        through_nics = probe.passed_bytes[1:]
        assert (through_nics > sizes - 1e-6).all()
        assert (through_nics < sizes + gbps(10) * engine.dt / 8.0).all()
        # The bottleneck cannot have passed on more than it was sent.
        assert 0.99 * through_nics.sum() < probe.passed_bytes[0] <= through_nics.sum()

    def test_queue_stays_within_the_buffer_while_overflowing(self):
        engine, probe = probed_star(
            [2e6] * 9, starts=np.arange(9) * us(20), buffer_bytes=40_000.0
        )
        result = engine.run()
        assert result.drops > 0
        assert len(probe.times) == result.steps
        assert probe.out_of_bounds == 0

    def test_idle_gap_jump_lands_on_the_next_arrival_and_costs_no_step(self):
        late = 0.0123457  # not a multiple of dt
        engine, probe = probed_star([2e5, 2e5], starts=[0.0, late])
        result = engine.run()
        first, second = result.finish
        assert first < ms(2) and second > late
        assert len(probe.times) == result.steps
        assert [t for t in probe.times if first + ms(1) < t < late] == []
        assert late in probe.times  # exactly, not one dt early or late
        # Up to the gap the run is the first flow alone (one flow at line
        # rate leaves no backlog to drain), so the gap itself cost nothing.
        alone, _ = probed_star([2e5], starts=[0.0])
        assert sum(t < late for t in probe.times) == alone.run().steps

    def test_outputs_do_not_depend_on_flows_and_ports_never_reached(self):
        sizes = [6e5, 9e5, 3e5, 1.5e6, 2e5]
        starts = [0.0, us(40), us(500), ms(1), ms(1.5)]
        n = len(sizes)
        horizon = ms(3)
        rig = dict(buffer_bytes=30_000.0, threshold=us(20))
        watch = dict(
            end_time=horizon, sample_port=0, sample_interval=us(50), sample_end=horizon
        )
        base, _ = probed_star(sizes, starts, **rig)
        small = base.run(**watch)
        assert small.marks > 0 and small.drops > 0 and not small.completed.all()
        # Two more flows (and their NICs) that start after the horizon,
        # then 40 ports no path uses, every one of them an AQM port.
        grown, _ = probed_star(
            sizes + [5e5, 7e5], starts + [horizon + us(1), horizon * 4],
            extra_ports=40, **rig,
        )
        big = grown.run(**watch)
        for field in ("finish", "fct", "completed"):
            assert getattr(big, field)[:n].tobytes() == getattr(small, field).tobytes()
        assert not big.completed[n:].any()
        for field in ("marks", "instant_marks", "persistent_marks", "drops",
                      "steps", "duration", "queue_samples"):
            assert getattr(big, field) == getattr(small, field), field
        for field in ("cwnd", "alpha", "remaining"):
            assert getattr(grown, field)[:n].tobytes() == getattr(base, field).tobytes()
        assert grown.queue[: n + 1].tobytes() == base.queue.tobytes()
        assert not grown.queue[n + 1:].any()

    def test_step_budget_still_raises(self):
        engine, _ = probed_star([5e6], starts=[0.0])
        engine.max_steps = 10
        with pytest.raises(RuntimeError, match="step budget exceeded"):
            engine.run()
        assert engine.steps == 10


def first_flows(population, n=5):
    return [
        (float(population.start[i]), float(population.size[i]),
         float(population.base_rtt[i]), int(population.src[i]), int(population.dst[i]))
        for i in range(n)
    ]


def population_digest(population):
    digest = hashlib.sha256()
    for column in (population.start, population.size, population.base_rtt,
                   population.src, population.dst):
        digest.update(column.tobytes())
    return digest.hexdigest()


class TestPopulationPinned:
    """The populations of the ledger's fluid cells (seed 7), captured before
    ``RttProfile.sample_one`` stopped going through ``sample``: the flows
    replay the packet rig's draws, so not one bit may move."""

    def test_leafspine_population(self):
        population = leafspine_population(
            WEB_SEARCH, 0.5, gbps(10) * 1024, 2000, np.random.default_rng(7), 1024,
            RttProfile.from_variation(us(80), 3.0, shape="fabric"),
            estimate_star_network_rtt(gbps(10), us(2)) * 2.0,
        )
        assert first_flows(population) == [
            (5.019588415505033e-07, 130549.0, 8.363516046235146e-05, 700, 918),
            (2.902490934393678e-06, 245528.0, 0.00021004344096172857, 934, 5),
            (3.2864014855751745e-06, 6097.0, 0.00014371918250435256, 349, 284),
            (3.4439506366451397e-06, 144130.0, 0.00013162043769806422, 521, 1019),
            (3.5841482170833582e-06, 35016.0, 8.950481043159255e-05, 865, 163),
        ]
        assert population_digest(population) == (
            "5a23af1cec6f660feddd396f4ae9df3699aea28827587e9362facdfc08444726")

    def test_star_population(self):
        population = star_population(
            WEB_SEARCH, 0.7, gbps(10), 250, np.random.default_rng(7), 7,
            RttProfile.from_variation(us(70), 3.0, shape="testbed"),
            estimate_star_network_rtt(gbps(10), us(2)),
        )
        # (the third and fifth base RTTs are clamped to rtt_min)
        assert first_flows(population) == [
            (0.00036714703839122527, 130549.0, 7.241730450379793e-05, 4, 7),
            (0.0021229647977279473, 1105.0, 0.00011555455437014067, 6, 7),
            (0.0022789161901856977, 6569.0, 7e-05, 5, 7),
            (0.0032566804597752037, 23025.0, 0.00020043735173817475, 2, 7),
            (0.004888496368426223, 5306.0, 7e-05, 2, 7),
        ]
        assert population_digest(population) == (
            "132c066d707ee65af5145d1648a2e88f9444ac54d3452208107f4f2c4f5fcfd0")


class TestFluidInputChecks:
    @pytest.mark.parametrize("interval", [0.0, -us(5)])
    def test_engine_rejects_non_positive_sampling_interval(self, interval):
        with pytest.raises(ValueError, match="sampling interval must be positive"):
            hand_rig().run(sample_port=2, sample_interval=interval)

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_both_fidelities_reject_a_zero_sample_interval_spec(self, fidelity):
        spec = RunSpec.microscopic(
            simulation_scheme_specs()["ECN#"], seed=51, label="ECN#",
            fanout=4, sample_interval=0, fidelity=fidelity,
        )
        with pytest.raises(ValueError, match="sampling interval must be positive"):
            execute_spec(spec)

    def fabric(self, **overrides):
        fields = dict(
            capacity_bps=np.full(3, gbps(10)),
            buffer_bytes=np.full(3, 1e6),
            marked_ports=np.array([2]),
            marker=marker_bank("tcn", 1),
            paths=np.array([[0, 2], [1, 2]]),
        )
        fields.update(overrides)
        return FluidFabric(**fields)

    def test_a_well_formed_fabric_is_accepted(self):
        assert self.fabric().paths.shape == (2, 2)
        assert self.fabric(paths=np.array([[0, -1, 2], [1, 2, -1]])).paths.shape == (2, 3)

    @pytest.mark.parametrize("overrides, message", [
        (dict(paths=np.array([[0, 2], [1, -2]])), "path entries"),
        (dict(paths=np.array([[0, 2], [1, 3]])), "path entries"),
        (dict(paths=np.array([[0, 2], [-1, 2]])), "access port"),
        (dict(paths=np.array([0, 2])), "2-D"),
        (dict(marked_ports=np.array([3])), "marked_ports must be port indices"),
        (dict(marked_ports=np.array([-1])), "marked_ports must be port indices"),
        (dict(marked_ports=np.array([2, 2]), marker=marker_bank("tcn", 2)),
         "must not repeat"),
        (dict(marked_ports=np.array([1, 2])), "marker bank size"),
        (dict(buffer_bytes=np.full(2, 1e6)), "same length"),
        (dict(buffer_bytes=np.array([1e6, 0.0, 1e6])), "must be positive"),
        (dict(capacity_bps=np.array([gbps(10), -1.0, gbps(10)])), "must be positive"),
        (dict(capacity_bps=np.array([gbps(10), np.nan, gbps(10)])), "must be positive"),
    ])
    def test_malformed_fabric_is_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            self.fabric(**overrides)


class TestFluidDeterminism:
    def test_inline_runs_are_bit_identical(self):
        spec = fluid_spec()
        ex = Executor(jobs=1)
        first = ex.run([spec])[0]
        second = ex.run([spec])[0]
        assert result_signature(first) == result_signature(second)

    def test_pool_matches_inline(self):
        spec = fluid_spec()
        inline = Executor(jobs=1).run([spec])[0]
        pooled = Executor(jobs=2).run([spec, fluid_spec(seed=4)])[0]
        assert result_signature(inline) == result_signature(pooled)

    def test_cache_replay_matches_fresh(self, tmp_path):
        spec = fluid_spec()
        ex = Executor(jobs=1, cache=True, cache_dir=tmp_path / "cache")
        fresh = ex.run([spec])[0]
        replayed = ex.run([spec])[0]
        assert ex.stats.cache_hits == 1
        assert result_signature(fresh) == result_signature(replayed)

    def test_fidelities_occupy_distinct_cache_cells(self, tmp_path):
        fluid = fluid_spec(n_flows=12)
        packet = fluid.with_fidelity("packet")
        ex = Executor(jobs=1, cache=True, cache_dir=tmp_path / "cache")
        results = ex.run([fluid, packet])
        assert ex.stats.cache_hits == 0
        assert ex.stats.executed == 2
        # The fluid engine reports steps in `events`; the packet engine
        # reports simulator events -- orders of magnitude apart.
        assert results[0].events != results[1].events


class TestFluidAgreement:
    """The fluid model must reproduce the paper's *effects*, not just run."""

    def test_fig6_short_flow_gain_survives_in_fluid(self):
        schemes = scheme_specs()
        kwargs = dict(workload=WEB_SEARCH, load=0.8, n_flows=80, seed=22)
        ecn = run_fluid_star_fct(schemes["ECN#"], **kwargs)
        red = run_fluid_star_fct(schemes["DCTCP-RED-Tail"], **kwargs)
        gain = 1.0 - ecn.summary.short_avg / red.summary.short_avg
        assert gain >= 0.02  # measured ~7.3% at this cell
        # Large flows must not pay for it (fig6's parity invariant).
        assert ecn.summary.large_avg <= red.summary.large_avg * 1.15

    def test_fluid_fct_within_crossfid_band_of_packet(self):
        spec = scheme_specs()["DCTCP-RED-Tail"]
        kwargs = dict(workload=WEB_SEARCH, load=0.5, n_flows=40, seed=7)
        fluid = run_fluid_star_fct(spec, **kwargs)
        packet = run_star_fct(spec.build, **kwargs)
        for metric in ("overall_avg", "short_avg"):
            f = fluid.summary.metrics()[metric]
            p = packet.summary.metrics()[metric]
            rel_err = abs(f - p) / p
            assert rel_err <= CROSSFID_FCT_BAND.rel_fail, (
                f"{metric}: fluid={f:.6g} packet={p:.6g} rel_err={rel_err:.2%}"
            )

    def test_fig10_queue_collapse_in_fluid(self):
        schemes = simulation_scheme_specs()
        red = run_fluid_microscopic(schemes["DCTCP-RED-Tail"], "DCTCP-RED-Tail")
        ecn = run_fluid_microscopic(schemes["ECN#"], "ECN#")
        # Tail-threshold RED keeps a large standing queue; ECN#'s
        # persistent marking collapses it (the paper's Figure 10).
        assert red.standing_queue_pkts > 80.0
        assert ecn.standing_queue_pkts <= 0.4 * red.standing_queue_pkts
        assert ecn.floor_queue_pkts <= 40.0
        assert ecn.query_timeouts == 0  # fluid model has no RTOs

    def test_fluid_requires_dctcp(self):
        from repro.workloads.arrivals import TransportConfig

        with pytest.raises(ValueError, match="DCTCP only"):
            run_fluid_star_fct(
                scheme_specs()["DCTCP-RED-Tail"],
                workload=WEB_SEARCH,
                load=0.4,
                n_flows=8,
                seed=1,
                transport=TransportConfig(cc="reno"),
            )


class TestCrossfidBands:
    def test_band_selection(self):
        assert crossfid_band_for("mark_fraction") is CROSSFID_MARK_BAND
        assert crossfid_band_for("standing_queue_pkts") is CROSSFID_QUEUE_BAND
        assert crossfid_band_for("floor_queue_pkts") is CROSSFID_QUEUE_BAND
        assert crossfid_band_for("overall_avg") is CROSSFID_FCT_BAND
        assert crossfid_band_for("short_p99") is CROSSFID_FCT_BAND

    def test_bands_are_looser_than_gate_bands(self):
        # Cross-fidelity comparison tolerates model error that a
        # same-fidelity regression gate must not.
        from repro.validation.stats import ToleranceBand

        default = ToleranceBand()
        assert CROSSFID_FCT_BAND.rel_fail > default.rel_fail
        assert CROSSFID_QUEUE_BAND.rel_fail > default.rel_fail


class TestScenarioFidelity:
    def scenario_dict(self, run=None):
        return {
            "schema_version": 1,
            "name": "unit-fluid",
            "rtt": {"min_us": 70.0, "variation": 3.0, "shape": "testbed"},
            "schemes": {"preset": "testbed", "only": ["ECN#"]},
            "run": run or {"seed": 1},
            "workloads": [
                {
                    "name": "ws",
                    "kind": "fct",
                    "workload": "web-search",
                    "loads": [0.5],
                    "n_flows": 10,
                },
            ],
        }

    def test_run_fidelity_roundtrips(self):
        data = self.scenario_dict(run={"seed": 1, "fidelity": "fluid"})
        scenario = Scenario.from_dict(data)
        assert scenario.fidelity == "fluid"
        assert scenario.to_dict()["run"]["fidelity"] == "fluid"
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_omitted_fidelity_stays_canonical(self):
        scenario = Scenario.from_dict(self.scenario_dict())
        assert scenario.fidelity is None
        assert "fidelity" not in scenario.to_dict()["run"]

    def test_invalid_fidelity_rejected_with_path(self):
        data = self.scenario_dict(run={"seed": 1, "fidelity": "fliud"})
        with pytest.raises(ScenarioError, match="run.fidelity"):
            Scenario.from_dict(data)

    def test_compile_threads_fidelity_to_every_spec(self):
        scenario = Scenario.from_dict(self.scenario_dict())
        compiled = compile_scenario(scenario, fidelity="fluid")
        specs = [s for cell in compiled.cells for s in cell.specs]
        assert specs and all(s.fidelity == "fluid" for s in specs)

    def test_scenario_fidelity_used_when_cli_silent(self):
        data = self.scenario_dict(run={"seed": 1, "fidelity": "fluid"})
        compiled = compile_scenario(Scenario.from_dict(data))
        assert all(
            s.fidelity == "fluid" for cell in compiled.cells for s in cell.specs
        )

    def test_cli_fidelity_beats_scenario(self):
        data = self.scenario_dict(run={"seed": 1, "fidelity": "fluid"})
        compiled = compile_scenario(Scenario.from_dict(data), fidelity="packet")
        assert all(
            s.fidelity == "packet" for cell in compiled.cells for s in cell.specs
        )

    def test_env_fidelity_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "fluid")
        compiled = compile_scenario(Scenario.from_dict(self.scenario_dict()))
        assert all(
            s.fidelity == "fluid" for cell in compiled.cells for s in cell.specs
        )

    def test_packet_compile_tokens_unchanged(self, monkeypatch):
        # Compiling at packet fidelity (by any route) must produce the
        # exact pre-fluid spec tokens, so existing caches stay warm.
        scenario = Scenario.from_dict(self.scenario_dict())
        default_tokens = [
            t for cell in compile_scenario(scenario).cells for t in cell.tokens()
        ]
        explicit_tokens = [
            t
            for cell in compile_scenario(scenario, fidelity="packet").cells
            for t in cell.tokens()
        ]
        assert explicit_tokens == default_tokens
