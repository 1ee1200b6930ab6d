"""Unit tests for the experiment harness: FCT stats, reporting, runners."""

import inspect

import numpy as np
import pytest

from repro import settings
from repro.core.red import SojournRed
from repro.experiments.figures import FIGURES, PAPER_SCALE
from repro.experiments.fct import (
    LARGE_FLOW_MIN,
    SHORT_FLOW_MAX,
    FctCollector,
    FctSummary,
    FlowRecord,
)
from repro.experiments.report import fmt_ratio, fmt_us, format_table
from repro.experiments.runner import (
    estimate_star_network_rtt,
    pool_results,
    run_leafspine_fct,
    run_star_fct,
)
from repro.experiments.schemes import SCHEME_ORDER, bytes_to_sojourn
from repro.experiments.schemes import simulation_schemes as make_simulation_schemes
from repro.experiments.schemes import testbed_schemes as make_testbed_schemes
from repro.sim.units import gbps, kb, us
from repro.workloads import WEB_SEARCH


def record(size, fct, timeouts=0):
    return FlowRecord(
        flow_id=0, size_bytes=size, fct=fct, start_time=0.0,
        timeouts=timeouts, retransmissions=0,
    )


class TestFctSummary:
    def test_breakdown_boundaries(self):
        records = [
            record(SHORT_FLOW_MAX, 1e-3),  # short (inclusive)
            record(SHORT_FLOW_MAX + 1, 2e-3),  # neither
            record(LARGE_FLOW_MIN, 3e-3),  # large (inclusive)
        ]
        summary = FctSummary.from_records(records)
        assert summary.n_short == 1
        assert summary.n_large == 1
        assert summary.short_avg == pytest.approx(1e-3)
        assert summary.large_avg == pytest.approx(3e-3)
        assert summary.overall_avg == pytest.approx(2e-3)

    def test_empty_categories_are_none(self):
        summary = FctSummary.from_records([record(500_000, 1e-3)])
        assert summary.short_avg is None
        assert summary.large_avg is None
        assert summary.overall_avg is not None

    def test_p99(self):
        records = [record(1_000, 1e-3)] * 95 + [record(1_000, 100e-3)] * 5
        summary = FctSummary.from_records(records)
        assert summary.short_p99 > 50e-3

    def test_normalization(self):
        mine = FctSummary.from_records([record(1_000, 1e-3)])
        base = FctSummary.from_records([record(1_000, 2e-3)])
        norm = mine.normalized_to(base)
        assert norm.short_avg == pytest.approx(0.5)
        assert norm.large_avg is None  # no large flows on either side

    def test_collector_totals(self):
        collector = FctCollector()
        assert len(collector) == 0
        collector.records.append(record(1_000, 1e-3, timeouts=2))
        collector.records.append(record(1_000, 1e-3, timeouts=1))
        assert collector.total_timeouts() == 3


class TestReport:
    def test_fmt_us(self):
        assert fmt_us(1.5e-3) == "1,500"
        assert fmt_us(None) == "-"

    def test_fmt_ratio(self):
        assert fmt_ratio(0.876) == "0.88"
        assert fmt_ratio(None) == "-"

    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2], [333, 4]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestSchemes:
    def test_bytes_to_sojourn_paper_values(self):
        assert bytes_to_sojourn(kb(250), gbps(10)) == pytest.approx(us(204.8))
        assert bytes_to_sojourn(kb(80), gbps(10)) == pytest.approx(us(65.536))

    def test_testbed_scheme_inventory(self):
        schemes = make_testbed_schemes()
        assert set(SCHEME_ORDER) <= set(schemes)
        for factory in schemes.values():
            first, second = factory(), factory()
            assert first is not second  # fresh instance per port

    def test_simulation_schemes_include_tcn(self):
        assert "TCN" in make_simulation_schemes()

    def test_ecn_sharp_testbed_parameters(self):
        aqm = make_testbed_schemes()["ECN#"]()
        assert aqm.config.ins_target == pytest.approx(us(200))
        assert aqm.config.pst_target == pytest.approx(us(85))
        assert aqm.config.pst_interval == pytest.approx(us(200))


class TestScale:
    def test_reduced_smaller_than_paper(self):
        # A figure's signature defaults are its reduced scale; PAPER_SCALE
        # only ever grows them.
        for name, paper in PAPER_SCALE.items():
            defaults = inspect.signature(FIGURES[name].cells).parameters
            assert set(paper) <= set(defaults), name
            for key, value in paper.items():
                reduced = defaults[key].default
                if isinstance(value, tuple) and key != "dims":
                    assert len(value) > len(reduced), (name, key)
                else:
                    assert value > reduced, (name, key)

    def test_from_env_case_insensitive(self, monkeypatch):
        for raw in ("TRUE", "Yes", " on "):
            monkeypatch.setenv("REPRO_FULL", raw)
            assert settings.resolve("full") is True
        for raw in ("0", "False", "OFF", "no"):
            monkeypatch.setenv("REPRO_FULL", raw)
            assert settings.resolve("full") is False
        monkeypatch.delenv("REPRO_FULL")
        assert settings.resolve("full") is False


class TestRunners:
    def test_star_run_end_to_end(self):
        result = run_star_fct(
            aqm_factory=lambda: SojournRed(us(200)),
            workload=WEB_SEARCH,
            load=0.4,
            n_flows=30,
            seed=1,
        )
        assert result.summary.n_flows == 30
        assert result.summary.overall_avg > 0
        assert result.events > 0

    def test_same_seed_same_arrivals(self):
        """Paired comparison: identical seeds give identical flow sizes."""
        results = [
            run_star_fct(
                aqm_factory=lambda: SojournRed(us(200)),
                workload=WEB_SEARCH,
                load=0.4,
                n_flows=20,
                seed=7,
            )
            for _ in range(2)
        ]
        sizes = [
            sorted(r.size_bytes for r in result.collector.records)
            for result in results
        ]
        assert sizes[0] == sizes[1]

    def test_different_seed_different_arrivals(self):
        def run(seed):
            return run_star_fct(
                aqm_factory=lambda: SojournRed(us(200)),
                workload=WEB_SEARCH,
                load=0.4,
                n_flows=20,
                seed=seed,
            )

        sizes_a = sorted(r.size_bytes for r in run(1).collector.records)
        sizes_b = sorted(r.size_bytes for r in run(2).collector.records)
        assert sizes_a != sizes_b

    def test_network_rtt_estimate(self):
        rtt = estimate_star_network_rtt()
        assert us(8) < rtt < us(15)

    def test_leafspine_run_end_to_end(self):
        result = run_leafspine_fct(
            aqm_factory=lambda: SojournRed(us(220)),
            workload=WEB_SEARCH,
            load=0.3,
            n_flows=20,
            seed=2,
            dims=(2, 2, 2),
        )
        assert result.summary.n_flows == 20

    def test_marks_accounted(self):
        result = run_star_fct(
            aqm_factory=lambda: SojournRed(us(30)),  # aggressive: will mark
            workload=WEB_SEARCH,
            load=0.6,
            n_flows=30,
            seed=3,
        )
        assert result.marks > 0
        assert result.instant_marks == result.marks


class TestPooling:
    def run(self, seed):
        return run_star_fct(
            aqm_factory=lambda: SojournRed(us(200)),
            workload=WEB_SEARCH,
            load=0.4,
            n_flows=15,
            seed=seed,
        )

    def test_pooled_manifest_aggregates(self):
        results = [self.run(seed) for seed in (5, 6, 7)]
        pooled = pool_results(results)
        manifest = pooled.manifest
        assert manifest is not None
        assert manifest.params["n_seeds"] == 3
        assert manifest.params["seeds"] == [5, 6, 7]
        assert manifest.events == sum(r.events for r in results)
        assert manifest.wall_seconds == pytest.approx(
            sum(r.manifest.wall_seconds for r in results)
        )

    def test_pooled_counters_and_records(self):
        results = [self.run(seed) for seed in (5, 6)]
        pooled = pool_results(results)
        assert pooled.summary.n_flows == 30
        assert pooled.marks == sum(r.marks for r in results)
        assert pooled.events == sum(r.events for r in results)
        assert len(pooled.collector.records) == 30
