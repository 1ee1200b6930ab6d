"""Tests for the paper-trend invariant registry, on synthetic results."""

import pytest

from repro.experiments.fct import FctSummary
from repro.experiments.figures import FIGURES
from repro.experiments.figures.ablation import AblationResult
from repro.experiments.figures.dcqcn import DcqcnResult
from repro.experiments.figures.fig2 import Fig2Result
from repro.experiments.figures.fig3 import Fig3Result
from repro.experiments.figures.fig5 import Fig5Result
from repro.experiments.figures.fig9 import Fig9Result
from repro.experiments.figures.fig6_fig7 import FctVsLoadResult
from repro.experiments.figures.fig8 import Fig8Result
from repro.experiments.figures.fig10 import Fig10Result, MicroscopicRun
from repro.experiments.figures.fig11 import Fig11Result
from repro.experiments.figures.fig12 import Fig12Result
from repro.experiments.figures.fig13 import Fig13Result, SchedulerRun
from repro.experiments.figures.table1 import PAPER_ROWS, Table1Result
from repro.measurement.stats import RttSummary
from repro.sim.units import ms
from repro.validation.invariants import REGISTRY, evaluate_figure
from repro.validation.stats import FAIL, PASS, SKIP


def summary(short_avg=1.0, large_avg=10.0, overall_avg=2.0):
    return FctSummary(
        n_flows=100,
        overall_avg=overall_avg,
        overall_p99=overall_avg and overall_avg * 4,
        short_avg=short_avg,
        short_p99=short_avg and short_avg * 3,
        large_avg=large_avg,
        n_short=80,
        n_large=5,
    )


def micro_run(scheme, standing, floor=None, drops=0, timeouts=0, fcts=(), done=0):
    return MicroscopicRun(
        scheme=scheme,
        samples=([], []),
        standing_queue_pkts=standing,
        floor_queue_pkts=floor if floor is not None else standing,
        peak_queue_pkts=int(standing * 2),
        drops=drops,
        marks=100,
        query_fcts=list(fcts),
        query_timeouts=timeouts,
        queries_completed=done,
    )


def by_name(verdicts):
    return {v.name: v for v in verdicts}


class TestFig6:
    def make(self, ecn_short=0.8, ecn_large=10.5):
        return FctVsLoadResult(
            workload_name="web-search",
            loads=(0.5, 0.8),
            schemes=("DCTCP-RED-Tail", "ECN#"),
            summaries={
                0.5: {
                    "DCTCP-RED-Tail": summary(),
                    "ECN#": summary(short_avg=ecn_short, large_avg=ecn_large),
                },
                0.8: {
                    "DCTCP-RED-Tail": summary(),
                    "ECN#": summary(short_avg=ecn_short, large_avg=ecn_large),
                },
            },
        )

    def test_healthy_result_passes(self):
        verdicts = by_name(evaluate_figure("fig6", self.make()))
        assert verdicts["fig6.short_avg_improvement"].status == PASS
        assert verdicts["fig6.large_flow_parity"].status == PASS

    def test_no_gain_fails_named_invariant(self):
        verdicts = by_name(evaluate_figure("fig6", self.make(ecn_short=1.05)))
        bad = verdicts["fig6.short_avg_improvement"]
        assert bad.status == FAIL
        assert bad.value is not None and bad.value < 0.02
        assert "short-flow" in bad.detail

    def test_large_flow_regression_fails(self):
        verdicts = by_name(evaluate_figure("fig6", self.make(ecn_large=15.0)))
        assert verdicts["fig6.large_flow_parity"].status == FAIL

    def test_none_result_skips_everything(self):
        verdicts = evaluate_figure("fig6", None)
        assert len(verdicts) == len(REGISTRY["fig6"])
        assert all(v.status == SKIP for v in verdicts)


class TestFig8:
    def make(self, gain_low=0.05, gain_high=0.15, overall=1.0):
        def cell(gain):
            return {
                "DCTCP-RED-Tail": summary(),
                "ECN#": summary(
                    short_avg=(1 - gain), overall_avg=2.0 * overall
                ),
            }

        return Fig8Result(
            variations=(3.0, 5.0),
            loads=(0.8,),
            summaries={3.0: {0.8: cell(gain_low)}, 5.0: {0.8: cell(gain_high)}},
        )

    def test_growing_gain_passes(self):
        verdicts = by_name(evaluate_figure("fig8", self.make()))
        assert verdicts["fig8.gain_grows_with_variation"].status == PASS
        assert verdicts["fig8.overall_parity"].status == PASS

    def test_collapsing_gain_fails(self):
        result = self.make(gain_low=0.20, gain_high=0.01)
        verdicts = by_name(evaluate_figure("fig8", result))
        assert verdicts["fig8.gain_grows_with_variation"].status == FAIL

    def test_overall_regression_fails(self):
        verdicts = by_name(evaluate_figure("fig8", self.make(overall=1.5)))
        assert verdicts["fig8.overall_parity"].status == FAIL


class TestFig10:
    def make(self, sharp_standing=20.0, sharp_floor=15.0, red_standing=170.0):
        return Fig10Result(
            runs={
                "DCTCP-RED-Tail": micro_run("DCTCP-RED-Tail", red_standing),
                "ECN#": micro_run("ECN#", sharp_standing, floor=sharp_floor),
            },
            fanout=100,
            burst_time=ms(20),
        )

    def test_collapse_passes(self):
        verdicts = by_name(evaluate_figure("fig10", self.make()))
        assert verdicts["fig10.persistent_queue_collapse"].status == PASS
        assert verdicts["fig10.ecn_sharp_floor"].status == PASS
        assert verdicts["fig10.red_tail_standing_queue"].status == PASS

    def test_no_collapse_fails_with_ratio(self):
        verdicts = by_name(
            evaluate_figure("fig10", self.make(sharp_standing=160.0))
        )
        bad = verdicts["fig10.persistent_queue_collapse"]
        assert bad.status == FAIL
        assert bad.value > 0.4
        assert "ratio" in bad.detail

    def test_high_floor_fails(self):
        verdicts = by_name(
            evaluate_figure("fig10", self.make(sharp_floor=90.0))
        )
        assert verdicts["fig10.ecn_sharp_floor"].status == FAIL

    def test_missing_scheme_skips(self):
        result = Fig10Result(
            runs={"ECN#": micro_run("ECN#", 20.0)},
            fanout=100,
            burst_time=ms(20),
        )
        verdicts = by_name(evaluate_figure("fig10", result))
        assert verdicts["fig10.persistent_queue_collapse"].status == SKIP
        assert verdicts["fig10.red_tail_standing_queue"].status == SKIP
        assert verdicts["fig10.ecn_sharp_floor"].status == PASS


class TestFig11:
    def make(self, codel_onset=150, sharp_onset=None):
        fanouts = (100, 150, 175)
        schemes = ("DCTCP-RED-Tail", "CoDel", "ECN#")

        def run_for(scheme, fanout):
            onset = codel_onset if scheme == "CoDel" else sharp_onset
            collapsed = onset is not None and fanout >= onset
            return micro_run(
                scheme, 50.0, timeouts=5 if collapsed else 0
            )

        return Fig11Result(
            fanouts=fanouts,
            schemes=schemes,
            runs={
                fanout: {s: run_for(s, fanout) for s in schemes}
                for fanout in fanouts
            },
        )

    def test_codel_collapses_ecn_sharp_survives(self):
        verdicts = by_name(evaluate_figure("fig11", self.make()))
        assert verdicts["fig11.codel_collapse_in_sweep"].status == PASS
        assert verdicts["fig11.ecn_sharp_outlasts_codel"].status == PASS

    def test_codel_never_collapsing_fails(self):
        verdicts = by_name(
            evaluate_figure("fig11", self.make(codel_onset=None))
        )
        assert verdicts["fig11.codel_collapse_in_sweep"].status == FAIL
        # With no CoDel onset the ordering claim is unanswerable.
        assert verdicts["fig11.ecn_sharp_outlasts_codel"].status == SKIP

    def test_ecn_sharp_collapsing_first_fails(self):
        verdicts = by_name(
            evaluate_figure(
                "fig11", self.make(codel_onset=175, sharp_onset=100)
            )
        )
        assert verdicts["fig11.ecn_sharp_outlasts_codel"].status == FAIL


class TestFig12:
    def make(self, spread=0.05):
        base = 1.0
        values = {100.0: base, 250.0: base * (1 + spread)}
        targets = {6.0: base, 18.0: base * (1 + spread)}
        return Fig12Result(
            intervals_us=(100.0, 250.0),
            targets_us=(6.0, 18.0),
            interval_fct={"web-search": dict(values)},
            target_fct={"web-search": dict(targets)},
        )

    def test_small_spread_passes(self):
        verdicts = by_name(evaluate_figure("fig12", self.make()))
        assert verdicts["fig12.sensitivity_spread"].status == PASS

    def test_large_spread_fails(self):
        verdicts = by_name(evaluate_figure("fig12", self.make(spread=0.5)))
        bad = verdicts["fig12.sensitivity_spread"]
        assert bad.status == FAIL
        assert bad.value > 0.20


# --------------------------------------------- every claim, table-driven
#
# One hand-built healthy result per figure (``HEALTHY[figure](**knobs)``),
# then per claim the knobs that make it FAIL and the knobs under which
# ``derived`` cannot give its number (``None``: only a result that failed to
# assemble skips it).


def table1_result(means=(39.3, 63.9, 69.3, 99.2, 105.5), p99_over_mean=1.8):
    def case(mean_us):
        mean = mean_us * 1e-6
        return RttSummary(3000, mean, mean * 0.3, mean, mean * 1.4, mean * p99_over_mean)

    return Table1Result(dict(zip(PAPER_ROWS, map(case, means))))


def fig2_result(short_p99=(1.0, 0.9, 1.2, 2.2, 3.0), large_avg=(10.0, 9.2, 9.0, 8.8, 8.7)):
    thresholds = (50, 100, 150, 200, 250)[: len(short_p99)]
    return Fig2Result(
        thresholds_kb=thresholds,
        summaries={
            kb: summary(short_avg=short and short / 3, large_avg=large)
            for kb, short, large in zip(thresholds, short_p99, large_avg)
        },
        load=0.5,
        variation=3.0,
    )


def fig3_result(short_gaps=(1.0, 1.4), large_gaps=(1.0, 1.2)):
    variations = (2.0, 5.0)
    return Fig3Result(
        variations=variations,
        avg_threshold={
            v: summary(short_avg=1 / 3, large_avg=gap and 10.0 * gap)
            for v, gap in zip(variations, large_gaps)
        },
        tail_threshold={
            v: summary(short_avg=gap and gap / 3, large_avg=10.0)
            for v, gap in zip(variations, short_gaps)
        },
        thresholds_us={v: (100.0, 200.0) for v in variations},
        load=0.5,
    )


def fig5_result(web_100k=0.74, web_10m=0.99, mining_1k=0.45, mining_mean=2.5e6, steps=(0.0, 0.5, 1.0)):
    def probes(at_1k, at_100k, at_10m):
        return {1_000: at_1k, 100_000: at_100k, 10_000_000: at_10m}

    return Fig5Result(
        curves={name: ([1e3, 1e5, 1e8], list(steps)) for name in ("web-search", "data-mining")},
        means={"web-search": 0.45e6, "data-mining": mining_mean},
        cdf_at_probe={
            "web-search": probes(0.1, web_100k, web_10m),
            "data-mining": probes(mining_1k, 0.70, 0.95),
        },
    )


def fct_vs_load_result(workload, ecn_short=0.8, ecn_large=10.5, ecn_overall=2.0,
                       red_avg_short=0.7, red_avg_large=11.5):
    schemes = {
        "DCTCP-RED-Tail": summary(),
        "DCTCP-RED-AVG": summary(short_avg=red_avg_short, large_avg=red_avg_large),
        "ECN#": summary(short_avg=ecn_short, large_avg=ecn_large, overall_avg=ecn_overall),
    }
    return FctVsLoadResult(
        workload_name=workload,
        loads=(0.5, 0.8),
        schemes=tuple(schemes),
        summaries={0.5: dict(schemes), 0.8: dict(schemes)},
    )


def fig9_result(ecn_short=0.85, ecn_overall=1.9):
    schemes = {
        "DCTCP-RED-Tail": summary(),
        "ECN#": summary(short_avg=ecn_short, overall_avg=ecn_overall),
    }
    return Fig9Result(
        loads=(0.3, 0.5), schemes=tuple(schemes), dims=(4, 4, 4),
        summaries={0.3: dict(schemes), 0.5: dict(schemes)},
    )


def fig10_result(red=170.0, sharp=20.0, floor=15.0, codel=14.0, sharp_drops=0, done=100,
                 schemes=("DCTCP-RED-Tail", "CoDel", "ECN#")):
    runs = {
        "DCTCP-RED-Tail": micro_run("DCTCP-RED-Tail", red, done=100),
        "CoDel": micro_run("CoDel", codel, done=100),
        "ECN#": micro_run("ECN#", sharp, floor=floor, drops=sharp_drops, done=done),
    }
    return Fig10Result(
        runs={name: runs[name] for name in schemes}, fanout=100, burst_time=ms(20)
    )


def fig11_result(codel_onset=150, sharp_onset=None, sharp_drops_at=None, sharp_fct=4.0,
                 last_fct=5.0, schemes=("DCTCP-RED-Tail", "CoDel", "ECN#")):
    fanouts = (100, 150, 175)
    onsets = {"CoDel": codel_onset, "ECN#": sharp_onset}

    def run_for(scheme, fanout):
        onset = onsets.get(scheme)
        lost = onset is not None and fanout >= onset
        fct = {"ECN#": sharp_fct, "DCTCP-RED-Tail": 4.5}.get(scheme, 3.0)
        fct = last_fct if fanout == fanouts[-1] else fct * fanout / 175
        return micro_run(
            scheme, 50.0, timeouts=5 if lost else 0, fcts=[fct * 1e-3],
            drops=7 if lost or (scheme == "ECN#" and fanout == sharp_drops_at) else 0,
        )

    return Fig11Result(
        fanouts=fanouts,
        schemes=schemes,
        runs={f: {s: run_for(s, f) for s in schemes} for f in fanouts},
    )


def fig13_result(solo=8.6e9, unstarted=0.0, phase3=(4.6e9, 2.0e9, 2.1e9), sharp_probe=330e-6):
    def run(scheme, probe):
        return SchedulerRun(
            scheme, [[solo, unstarted, 0.0], [6.0e9, 2.7e9, 0.0], list(phase3)], [probe]
        )

    return Fig13Result({"ECN#": run("ECN#", sharp_probe), "TCN": run("TCN", 370e-6)})


def ablation_result(instantaneous=174.0, full=41.0, drops=(0, 323, 0)):
    standing = {"instantaneous-only": instantaneous, "persistent-only": 32.0, "full ECN#": full}
    return AblationResult(
        {
            name: micro_run(name, queue, drops=lost)
            for (name, queue), lost in zip(standing.items(), drops)
        }
    )


def dcqcn_result(jain=0.999, utilization=0.87, drops=0.0, cutoff_jain=1.0):
    return DcqcnResult(
        {
            "cut-off ECN#": {"jain": cutoff_jain, "utilization": 0.74, "drops": 0.0},
            "probabilistic ECN#": {"jain": jain, "utilization": utilization, "drops": drops},
        }
    )


HEALTHY = {
    "table1": table1_result,
    "fig2": fig2_result,
    "fig3": fig3_result,
    "fig5": fig5_result,
    "fig6": lambda **knobs: fct_vs_load_result("web-search", **knobs),
    "fig7": lambda **knobs: fct_vs_load_result("data-mining", **knobs),
    "fig8": TestFig8().make,
    "fig9": fig9_result,
    "fig10": fig10_result,
    "fig11": fig11_result,
    "fig12": TestFig12().make,
    "fig13": fig13_result,
    "ablation": ablation_result,
    "dcqcn": dcqcn_result,
}

NO_LARGE = {"ecn_large": None}
CLAIM_CASES = {  # claim: (knobs that FAIL it, knobs that SKIP it)
    "table1.each_component_slows_rtt": ({"means": (39.3, 63.9, 60.0, 99.2, 105.5)}, {"means": (39.3,)}),
    "table1.variation_ratio_floor": ({"means": (39.3, 50.0, 60.0, 70.0, 80.0)}, None),
    "table1.variation_ratio_ceiling": ({"means": (39.3, 63.9, 69.3, 99.2, 130.0)}, None),
    "table1.calibrated_means": ({"means": (39.3, 63.9, 80.0, 99.2, 105.5)}, None),
    "table1.long_tails": ({"p99_over_mean": 1.1}, None),
    "fig2.tail_threshold_wins_throughput": (
        {"large_avg": (10.0, 9.2, 9.0, 8.8, 11.0)}, {"large_avg": (None,) * 5}),
    "fig2.tail_threshold_loses_latency": (
        {"short_p99": (1.0, 0.9, 1.0, 1.1, 1.2)}, {"large_avg": (None,) * 5}),
    "fig2.no_threshold_wins_both": (
        {"large_avg": (10.0, 9.2, 8.75, 8.8, 8.7), "short_p99": (1.0, 0.9, 1.0, 2.2, 3.0)},
        {"short_p99": (None,) * 5}),
    "fig3.latency_gap_material": ({"short_gaps": (1.0, 1.1)}, {"short_gaps": (1.0, None)}),
    "fig3.latency_gap_grows": ({"short_gaps": (1.5, 1.2)}, {"short_gaps": (None, 1.4)}),
    "fig3.throughput_gap_not_inverted": ({"large_gaps": (0.7, 1.0)}, {"large_gaps": (1.0, None)}),
    "fig3.throughput_gap_sane": ({"large_gaps": (1.0, 2.0)}, {"large_gaps": (None, 1.2)}),
    "fig5.mostly_small_flows": ({"web_100k": 0.5}, None),
    "fig5.tail_reaches_tens_of_mb": ({"web_10m": 1.0}, None),
    "fig5.mining_has_more_tiny_flows": ({"mining_1k": 0.05}, None),
    "fig5.mining_is_heavier": ({"mining_mean": 0.3e6}, None),
    "fig5.curves_are_cdfs": ({"steps": (0.0, 0.6, 0.5)}, None),
    "fig6.short_avg_improvement": ({"ecn_short": 1.05}, {"ecn_short": None}),
    "fig6.large_flow_parity": ({"ecn_large": 12.0}, NO_LARGE),
    "fig6.red_avg_wins_short_flows": ({"red_avg_short": 1.2}, {"red_avg_short": None}),
    "fig6.red_avg_pays_on_large_flows": ({"red_avg_large": 10.1}, {"red_avg_large": None}),
    "fig7.short_avg_improvement": ({"ecn_short": 0.99}, {"ecn_short": None}),
    "fig7.large_flow_parity": ({"ecn_large": 11.4}, NO_LARGE),
    "fig7.overall_parity": ({"ecn_overall": 2.3}, {"ecn_overall": None}),
    "fig8.short_p99_gain_exists": ({"gain_low": -0.05, "gain_high": 0.1}, None),
    "fig8.gain_grows_with_variation": ({"gain_low": 0.20, "gain_high": 0.01}, None),
    "fig8.overall_parity": ({"overall": 1.5}, None),
    "fig9.short_flows_improve": ({"ecn_short": 1.05}, {"ecn_short": None}),
    "fig9.short_flows_never_regress": ({"ecn_short": 1.3}, {"ecn_short": None}),
    "fig9.overall_parity": ({"ecn_overall": 2.5}, {"ecn_overall": None}),
    "fig10.persistent_queue_collapse": ({"sharp": 160.0}, {"red": 0.0}),
    "fig10.ecn_sharp_floor": ({"floor": 90.0}, {"schemes": ("DCTCP-RED-Tail",)}),
    "fig10.red_tail_standing_queue": ({"red": 60.0}, {"schemes": ("ECN#",)}),
    "fig10.red_tail_queue_at_threshold": ({"red": 400.0}, {"schemes": ("ECN#",)}),
    "fig10.codel_standing_queue": ({"codel": 120.0}, {"schemes": ("DCTCP-RED-Tail", "ECN#")}),
    "fig10.burst_absorbed": ({"sharp_drops": 3}, {"schemes": ("DCTCP-RED-Tail", "CoDel")}),
    "fig10.all_queries_complete": ({"done": 97}, None),
    "fig11.codel_collapse_in_sweep": ({"codel_onset": None}, {"schemes": ("DCTCP-RED-Tail", "ECN#")}),
    "fig11.ecn_sharp_outlasts_codel": ({"sharp_onset": 150}, {"codel_onset": None}),
    "fig11.clean_at_codel_onset": ({"sharp_drops_at": 150}, {"codel_onset": None}),
    "fig11.tracks_red_tail": ({"sharp_fct": 6.0}, {"codel_onset": None}),
    "fig11.fct_grows_with_fanout": ({"last_fct": 1.0}, None),
    "fig12.sensitivity_spread": ({"spread": 0.18}, None),
    "fig13.solo_flow_fills_link": ({"solo": 5e9}, None),
    "fig13.unstarted_flows_idle": ({"unstarted": 1e8}, None),
    "fig13.dwrr_shares_preserved": ({"phase3": (4.6e9, 3.6e9, 2.1e9)}, {"phase3": (4.6e9, 0.0, 2.1e9)}),
    "fig13.beats_tcn_on_probes": ({"sharp_probe": 365e-6}, None),
    "ablation.instantaneous_only_keeps_queue": ({"full": 100.0}, {"instantaneous": 0.0}),
    "ablation.persistent_only_drops": ({"drops": (0, 0, 0)}, None),
    "ablation.full_is_burst_clean": ({"drops": (0, 323, 4)}, None),
    "ablation.instantaneous_only_is_burst_clean": ({"drops": (9, 323, 0)}, None),
    "dcqcn.ramp_is_fair": ({"jain": 0.9, "cutoff_jain": 0.9}, None),
    "dcqcn.ramp_is_efficient": ({"utilization": 0.7, "cutoff_jain": 0.9}, None),
    "dcqcn.ramp_is_lossless": ({"drops": 12.0}, None),
    "dcqcn.ramp_at_least_as_fair": ({"jain": 0.96}, None),
    "dcqcn.ramp_recovers_utilization": ({"utilization": 0.76}, None),
}

ALL_CLAIMS = [claim for claims in REGISTRY.values() for claim in claims]


class TestEveryClaim:
    def test_table_is_complete(self):
        names = [claim.name for claim in ALL_CLAIMS]
        assert len(set(names)) == len(names)
        assert set(names) == set(CLAIM_CASES)
        assert set(REGISTRY) == set(FIGURES) == set(HEALTHY)
        for figure, claims in REGISTRY.items():
            assert claims, f"{figure} has no claim"
            numbers = FIGURES[figure].derived(HEALTHY[figure]())
            for claim in claims:
                assert claim.name.startswith(f"{figure}.") and claim.figure == figure
                assert claim.op in ("<=", ">=")
                assert isinstance(numbers[claim.key], float), claim.name
                assert claim.times is None or isinstance(numbers[claim.times], float)

    @pytest.mark.parametrize("claim", ALL_CLAIMS, ids=lambda claim: claim.name)
    def test_pass_fail_and_skip(self, claim):
        def status(result):
            return by_name(evaluate_figure(claim.figure, result))[claim.name].status

        make = HEALTHY[claim.figure]
        fail_knobs, skip_knobs = CLAIM_CASES[claim.name]
        assert status(make()) == PASS
        failed = by_name(evaluate_figure(claim.figure, make(**fail_knobs)))[claim.name]
        assert failed.status == FAIL
        assert failed.threshold == claim.threshold and claim.key in failed.detail
        assert status(None if skip_knobs is None else make(**skip_knobs)) == SKIP


class TestRegistryShape:
    def test_every_validated_figure_has_invariants(self):
        for figure in ("fig6", "fig7", "fig8", "fig10", "fig11", "fig12"):
            assert REGISTRY[figure], figure

    def test_names_carry_figure_prefix(self):
        for figure, invariants in REGISTRY.items():
            for invariant in invariants:
                assert invariant.name.startswith(f"{figure}.")
                assert invariant.figure == figure

    def test_unknown_figure_evaluates_empty(self):
        assert evaluate_figure("fig99", object()) == []
