"""Smoke tests: every figure module runs at tiny scale and renders.

The full-size reproductions live in benchmarks/; these only verify that the
harness plumbing works end to end (runs, collects, normalizes, renders).
"""

import pytest

from repro.experiments.figures import (
    run_experiment,
    fig2,
    fig3,
    fig5,
    fig6_fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
)
from repro.sim.units import ms


class TestTable1:
    def test_runs_and_renders(self):
        result = run_experiment("table1", seed=1, n_samples=500).result
        assert len(result.cases) == 5
        assert result.variation_ratio > 2.0
        text = table1.render(result)
        assert "Networking Stack" in text and "2.68x" in text


class TestFig2:
    def test_runs_and_renders(self):
        result = run_experiment("fig2", n_flows=25, thresholds_kb=(50, 250)).result
        norm = result.normalized("overall_avg")
        assert norm[50] == pytest.approx(1.0)
        assert "Figure 2" in fig2.render(result)


class TestFig3:
    def test_runs_and_renders(self):
        result = run_experiment("fig3", n_flows=25, variations=(2.0, 4.0)).result
        assert set(result.thresholds_us) == {2.0, 4.0}
        # Tail threshold is above avg threshold for both variations.
        for variation in (2.0, 4.0):
            avg_t, tail_t = result.thresholds_us[variation]
            assert tail_t > avg_t
        assert "Figure 3" in fig3.render(result)


class TestFig5:
    def test_runs_and_renders(self):
        result = run_experiment("fig5").result
        assert result.means["data-mining"] > result.means["web-search"]
        text = fig5.render(result)
        assert "web-search" in text


class TestFig6Fig7:
    def test_fig6_runs_and_renders(self):
        result = run_experiment("fig6", loads=(0.5,), n_flows=25).result
        norm = result.normalized(0.5, "DCTCP-RED-Tail")
        assert norm.overall_avg == pytest.approx(1.0)
        assert "web-search" in fig6_fig7.render(result)

    def test_fig7_runs_and_renders(self):
        result = run_experiment("fig7", loads=(0.5,), n_flows=15).result
        assert "data-mining" in fig6_fig7.render(result)


class TestFig8:
    def test_runs_and_renders(self):
        result = run_experiment(
            "fig8", variations=(3.0,), loads=(0.5,), n_flows=25
        ).result
        assert result.nfct(3.0, 0.5, "overall_avg") is not None
        assert "Figure 8" in fig8.render(result)


class TestFig9:
    def test_runs_and_renders(self):
        result = run_experiment("fig9", loads=(0.3,), n_flows=20, dims=(2, 2, 2)).result
        assert result.nfct(0.3, "DCTCP-RED-Tail", "overall_avg") == pytest.approx(1.0)
        assert "leaf-spine" in fig9.render(result)


class TestFig10:
    def test_runs_and_renders(self):
        result = run_experiment(
            "fig10", fanout=30, schemes=("DCTCP-RED-Tail", "ECN#")
        ).result
        tail = result.runs["DCTCP-RED-Tail"]
        sharp = result.runs["ECN#"]
        assert tail.queries_completed > 0
        assert sharp.standing_queue_pkts < tail.standing_queue_pkts
        assert "Figure 10" in fig10.render(result)


class TestFig11:
    def test_runs_and_renders(self):
        result = run_experiment("fig11", fanouts=(25,), schemes=("ECN#",)).result
        assert result.avg_query_fct(25, "ECN#") is not None
        assert "Figure 11" in fig11.render(result)


class TestFig12:
    def test_runs_and_renders(self):
        result = run_experiment(
            "fig12",
            n_flows_web=15,
            n_flows_mining=10,
            intervals_us=(150.0, 250.0),
            targets_us=(10.0, 18.0),
        ).result
        assert result.interval_spread("web-search") is not None
        assert "Figure 12" in fig12.render(result)


class TestFig13:
    def test_runs_and_renders(self):
        result = run_experiment("fig13", phase=ms(8)).result
        text = fig13.render(result)
        assert "DWRR" in text
        ecn_run = result.runs["ECN#"]
        # Phase 1: only flow 1 active; it should clearly dominate.
        assert ecn_run.goodputs[0][0] > 5 * max(
            ecn_run.goodputs[0][1], ecn_run.goodputs[0][2], 1.0
        )
