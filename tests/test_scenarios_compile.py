"""Tests for scenario compilation: the compiled RunSpec grids of the
library's figure re-expressions must equal the figure modules' own grids
cell for cell (spec identity is cache identity, so equal specs means
bit-identical summaries), plus elision rules and incast constraints."""

from pathlib import Path

import pytest

from repro.experiments.executor import Executor
from repro.experiments.faults import RunFailure
from repro.experiments.figures import FIGURES
from repro.scenarios import (
    Scenario,
    ScenarioError,
    check_scenario,
    compile_scenario,
    load_scenario,
    summarize_cell,
)
from test_scenarios_schema import SCENARIO_DIR, base_dict


def figure_grid(name, **params):
    """The flat spec list a figure's cells hand the executor."""
    return [
        spec
        for cell in FIGURES[name].cells(**params).values()
        for spec in cell.specs
    ]


# ------------------------------------------- figure-grid equivalence (tier 1)


class TestFigureEquivalence:
    """The acceptance criterion: the fig6/fig10/fig11 scenario files compile
    to exactly the specs the figure modules submit, in the same order."""

    def test_fig6_scenario_matches_figure_grid(self):
        figure = figure_grid(
            "fig6", loads=(0.5, 0.8), n_flows=80, seed=21, n_seeds=2
        )
        compiled = compile_scenario(
            load_scenario(SCENARIO_DIR / "fig6_websearch.toml")
        )
        assert compiled.specs() == figure
        assert len(compiled.cells) == 8  # 2 loads x 4 testbed schemes
        assert compiled.n_specs == 16  # x 2 seeds

    def test_fig10_scenario_matches_figure_grid(self):
        figure = figure_grid("fig10", fanout=100, seed=51)
        compiled = compile_scenario(
            load_scenario(SCENARIO_DIR / "fig10_microscopic.toml")
        )
        assert compiled.specs() == figure

    def test_fig11_scenario_matches_figure_grid(self):
        figure = figure_grid("fig11", seed=61)
        compiled = compile_scenario(
            load_scenario(SCENARIO_DIR / "fig11_fanout.toml")
        )
        assert compiled.specs() == figure
        assert len(compiled.cells) == 18  # 6 fanouts x 3 schemes

    def test_compilation_is_deterministic(self):
        scenario = load_scenario(SCENARIO_DIR / "fig6_websearch.toml")
        first = compile_scenario(scenario)
        second = compile_scenario(scenario)
        assert first.specs() == second.specs()
        assert [c.key for c in first.cells] == [c.key for c in second.cells]
        assert [c.tokens() for c in first.cells] == [
            c.tokens() for c in second.cells
        ]


# ----------------------------------------------------------- grid structure


class TestGridStructure:
    def test_cell_keys_encode_load_and_scheme(self):
        compiled = compile_scenario(Scenario.from_dict(base_dict()))
        assert [cell.key for cell in compiled.cells] == [
            "ws|load=0.5|scheme=ECN#"
        ]
        assert compiled.cells[0].metric_source == "fct"

    def test_seed_expansion_follows_figure_convention(self):
        scenario = Scenario.from_dict(base_dict(run={"seed": 1, "n_seeds": 3}))
        cell = compile_scenario(scenario).cells[0]
        assert [spec.seed for spec in cell.specs] == [1, 2, 3]
        # seed aside, the expanded specs are the same experiment
        assert len({spec.with_seed(0) for spec in cell.specs}) == 1

    def test_star_rtt_shape_elided_only_at_rig_default(self):
        testbed = compile_scenario(Scenario.from_dict(base_dict()))
        assert testbed.cells[0].specs[0].rtt_shape is None  # rig default

        data = base_dict(rtt={"min_us": 70.0, "variation": 3.0,
                              "shape": "fabric"})
        fabric = compile_scenario(Scenario.from_dict(data))
        assert fabric.cells[0].specs[0].rtt_shape == "fabric"

    def test_leafspine_pins_dims_and_elides_unity_oversubscription(self):
        data = base_dict(
            topology={"kind": "leafspine", "spines": 2, "leaves": 2,
                      "hosts_per_leaf": 2},
            rtt={"min_us": 80.0, "variation": 3.0, "shape": "fabric"},
        )
        compiled = compile_scenario(Scenario.from_dict(data))
        spec = compiled.cells[0].specs[0]
        extras = dict(spec.extras)
        assert extras["dims"] == (2, 2, 2)
        assert "oversubscription" not in extras
        assert spec.rtt_shape is None  # fabric is the leafspine default

    def test_oversubscription_reaches_spec_extras(self):
        compiled = compile_scenario(
            load_scenario(SCENARIO_DIR / "oversub_leafspine_2to1.toml")
        )
        for spec in compiled.specs():
            extras = dict(spec.extras)
            assert extras["oversubscription"] == 2.0
            assert extras["dims"] == (4, 4, 4)

    def test_incast_rig_defaults_elided(self):
        data = base_dict()
        data["workloads"] = [
            {"name": "q", "kind": "incast", "fanouts": [50],
             "rtt": {"min_us": 80.0, "variation": 3.0, "shape": "fabric"}},
        ]
        compiled = compile_scenario(Scenario.from_dict(data))
        cell = compiled.cells[0]
        assert cell.metric_source == "micro"
        assert dict(cell.specs[0].extras) == {"fanout": 50}

    def test_incast_nondefault_rtt_kept(self):
        data = base_dict()
        data["workloads"] = [
            {"name": "q", "kind": "incast", "fanouts": [50],
             "rtt": {"min_us": 100.0, "variation": 4.0, "shape": "fabric"}},
        ]
        compiled = compile_scenario(Scenario.from_dict(data))
        extras = dict(compiled.cells[0].specs[0].extras)
        assert extras["rtt_min"] == pytest.approx(100e-6)
        assert extras["variation"] == 4.0

    def test_transport_overrides_reach_fct_specs(self):
        data = base_dict(transport={"cc": "reno", "min_rto_us": 900.0})
        compiled = compile_scenario(Scenario.from_dict(data))
        transport = dict(compiled.cells[0].specs[0].transport)
        assert transport["cc"] == "reno"
        assert transport["min_rto"] == pytest.approx(900e-6)


# ------------------------------------------------------- incast constraints


class TestIncastConstraints:
    def incast_dict(self, **overrides):
        data = base_dict()
        data["workloads"] = [
            {"name": "q", "kind": "incast", "fanouts": [50],
             "rtt": {"min_us": 80.0, "variation": 3.0, "shape": "fabric"}},
        ]
        data.update(overrides)
        return data

    def test_incast_on_leafspine_rejected(self):
        data = self.incast_dict(
            topology={"kind": "leafspine"},
            rtt={"min_us": 80.0, "variation": 3.0, "shape": "fabric"},
        )
        with pytest.raises(ScenarioError, match="star topology"):
            compile_scenario(Scenario.from_dict(data))

    def test_incast_inheriting_non_fabric_shape_rejected(self):
        data = self.incast_dict()
        del data["workloads"][0]["rtt"]  # inherits the testbed shape
        with pytest.raises(ScenarioError, match="own \\[rtt\\] table"):
            compile_scenario(Scenario.from_dict(data))

    def test_incast_with_transport_overrides_rejected(self):
        data = self.incast_dict(transport={"cc": "reno"})
        with pytest.raises(ScenarioError, match="\\[transport\\]"):
            compile_scenario(Scenario.from_dict(data))


# ------------------------------------------------------------- summarising


class TestSummarize:
    def tiny_cell(self):
        data = base_dict()
        data["workloads"][0].update({"loads": [0.2], "n_flows": 6})
        return compile_scenario(Scenario.from_dict(data)).cells[0]

    def test_ok_cell_metrics(self):
        cell = self.tiny_cell()
        runs = Executor(jobs=1, cache=False).run(list(cell.specs))
        summary = summarize_cell(cell, runs)
        assert summary["status"] == "ok"
        assert summary["failures"] == []
        assert "overall_avg" in summary["metrics"]

    def test_any_failed_seed_fails_the_cell(self):
        cell = self.tiny_cell()
        runs = Executor(jobs=1, cache=False).run(list(cell.specs))
        failure = RunFailure(
            spec_key=cell.specs[0].token(), kind="exception",
            exc_type="RuntimeError", message="boom",
        )
        summary = summarize_cell(cell, list(runs) + [failure])
        assert summary["status"] == "failed"
        assert summary["metrics"] == {}
        assert summary["failures"][0]["exc"] == "RuntimeError"


# --------------------------------------------------------------- deep check


class TestCheckScenario:
    def test_library_deep_checks(self):
        for path in sorted(SCENARIO_DIR.glob("*.toml")):
            check_scenario(load_scenario(path))

    def test_bad_aqm_params_name_the_scheme(self):
        data = base_dict(
            schemes={"define": [{"name": "Broken", "kind": "codel",
                                 "params": {"bogus_knob": 1.0}}]}
        )
        with pytest.raises(ScenarioError) as exc_info:
            check_scenario(Scenario.from_dict(data))
        message = str(exc_info.value)
        assert "Broken" in message
        assert "bogus_knob" in message
