"""Tests for the flow-level fluid fast model: fidelity plumbing on run
specs, the analytic marker banks, bit-identical determinism through the
executor (inline, pooled, and cache-replayed), fluid-vs-packet agreement
on the paper's headline effects, and fidelity threading through the
scenario layer."""

import math

import numpy as np
import pytest

from repro.experiments.executor import Executor
from repro.experiments.runner import run_star_fct
from repro.experiments.schemes import simulation_scheme_specs
from repro.experiments.schemes import testbed_scheme_specs as scheme_specs
from repro.experiments.specs import (
    FIDELITIES,
    AqmSpec,
    RunSpec,
)
from repro.fluid import build_marker_bank, choose_dt, run_fluid_microscopic, run_fluid_star_fct
from repro.fluid.marking import CodelMarkerBank, EcnSharpMarkerBank, StepMarkerBank
from repro.scenarios import Scenario, ScenarioError, compile_scenario
from repro.settings import resolve
from repro.sim.units import us
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


class TestMarkerBanks:
    def test_step_bank_is_a_threshold(self):
        bank = StepMarkerBank(us(200), n_ports=2)
        sojourn = np.array([us(300), us(100)])
        pkts = np.ones(2)
        marks = bank.step(sojourn, now=0.0, dt=us(10), pkts=pkts)
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
            float(bank.step(sojourn, now=k * dt, dt=dt, pkts=pkts).fraction[0])
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
            bank.step(above, now=k * dt, dt=dt, pkts=pkts)
        assert bool(bank.law.marking[0])
        bank.step(np.array([us(10)]), now=4 * dt, dt=dt, pkts=pkts)
        assert not bool(bank.law.marking[0])
        # Another dwell is required before marking resumes.
        resumed = bank.step(above, now=5 * dt, dt=dt, pkts=pkts)
        assert float(resumed.fraction[0]) == 0.0

    def test_ecn_sharp_instant_overrides_persistent(self):
        bank = EcnSharpMarkerBank(
            ins_target=us(200), pst_target=us(50), pst_interval=us(100), n_ports=1
        )
        pkts = np.ones(1)
        # Dwell between pst and ins targets long enough to arm persistence.
        for k in range(4):
            armed = bank.step(np.array([us(120)]), now=k * us(50), dt=us(50), pkts=pkts)
        assert float(armed.persistent[0]) > 0.0
        assert float(armed.instant[0]) == 0.0
        # Above ins_target everything is instant-marked; persistent
        # contribution is suppressed packet-by-packet.
        spiked = bank.step(np.array([us(300)]), now=4 * us(50), dt=us(50), pkts=pkts)
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
