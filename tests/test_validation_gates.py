"""End-to-end tests for the fidelity gate: capture, warm replay, canary.

Uses a two-scheme fig10-only micro grid (fanout 40) because its cells are
single-seed and its invariants deterministic -- the full tiny scale lives
in CI, not here.
"""

import json

import pytest

from repro.experiments.executor import Executor
from repro.telemetry import Telemetry, activate
from repro.validation import (
    StaleBaselineError,
    ValidationScale,
    capture_baselines,
    run_gate,
)
from repro.validation.stats import FAIL, PASS


def micro_scale(fanout: int = 40) -> ValidationScale:
    return ValidationScale(
        name="micro",
        figures={
            "fig10": {
                "fanout": fanout,
                "schemes": ("DCTCP-RED-Tail", "ECN#"),
            }
        },
    )


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """One shared capture: (scale, baseline path, cache dir)."""
    root = tmp_path_factory.mktemp("gate")
    cache_dir = root / "cache"
    scale = micro_scale()
    executor = Executor(jobs=1, cache=True, cache_dir=cache_dir)
    baseline, path, outcome = capture_baselines(
        scale,
        executor,
        baseline_dir=root / "baselines",
        force=True,  # test trees are often dirty; manifest records it
    )
    assert executor.stats.executed == 2
    assert not outcome.failures
    return scale, path, cache_dir


class TestCapture:
    def test_baseline_contents(self, captured):
        _scale, path, _cache = captured
        payload = json.loads(path.read_text())
        assert payload["manifest"]["scale"] == "micro"
        assert payload["manifest"]["baseline_schema"] >= 1
        assert payload["manifest"]["spec_schema"] >= 1
        cells = payload["figures"]["fig10"]["cells"]
        assert set(cells) == {"scheme=DCTCP-RED-Tail", "scheme=ECN#"}
        for cell in cells.values():
            assert cell["tokens"], "tokens must be recorded for staleness"
            assert "standing_queue_pkts" in cell["metrics"]


class TestWarmGate:
    def test_warm_run_executes_zero_sims_and_passes(self, captured):
        scale, path, cache_dir = captured
        executor = Executor(jobs=1, cache=True, cache_dir=cache_dir)
        report = run_gate(scale, executor, baseline_path=path)
        assert executor.stats.executed == 0, "warm gate must be pure cache"
        assert executor.stats.cache_hits == 2
        assert report.status == PASS
        assert report.failed_names() == []
        assert not report.failures

    def test_verdicts_mirrored_into_telemetry(self, captured):
        scale, path, cache_dir = captured
        executor = Executor(jobs=1, cache=True, cache_dir=cache_dir)
        telemetry = Telemetry()
        with activate(telemetry):
            report = run_gate(scale, executor, baseline_path=path)
        n_pass = telemetry.registry.counter(
            "validation_verdicts_total", kind="baseline", status="pass"
        ).value
        assert n_pass == sum(1 for c in report.comparisons if c.status == PASS)
        # every claim but the one about CoDel, which this grid does not run
        assert telemetry.registry.counter(
            "validation_verdicts_total", kind="invariant", status="pass"
        ).value == len(report.invariants) - 1

    def test_report_json_round_trip(self, captured, tmp_path):
        scale, path, cache_dir = captured
        executor = Executor(jobs=1, cache=True, cache_dir=cache_dir)
        report = run_gate(scale, executor, baseline_path=path)
        out = tmp_path / "report.json"
        report.to_json(str(out))
        payload = json.loads(out.read_text())
        assert payload["status"] == "pass"
        assert payload["scale"] == "micro"
        assert payload["comparisons"]
        assert payload["invariants"]


class TestCanary:
    def test_perturbed_aqm_fails_with_named_invariant(self, captured, monkeypatch):
        scale, path, _cache = captured
        # pst_target 10us -> 200us (still below ins_target 220us): ECN#
        # runs cleanly but keeps a RED-like standing queue.  No cache, so
        # the perturbed simulation actually executes.
        monkeypatch.setenv("REPRO_AQM_PERTURB", "ecn-sharp:pst_target:20")
        executor = Executor(jobs=1, cache=False)
        report = run_gate(scale, executor, baseline_path=path)
        assert report.status == FAIL
        failed = report.failed_names()
        assert "fig10.persistent_queue_collapse" in failed
        # The statistical layer independently catches the shifted cells.
        assert any(
            name.startswith("fig10:scheme=ECN#:") for name in failed
        )

    def test_malformed_perturbation_rejected(self, monkeypatch):
        from repro.experiments.schemes import build_aqm
        from repro.sim.units import us

        monkeypatch.setenv("REPRO_AQM_PERTURB", "not-a-valid-spec")
        with pytest.raises(ValueError, match="REPRO_AQM_PERTURB"):
            build_aqm("sojourn-red", {"sojourn": us(204.8)})


class TestStaleness:
    def test_spec_schema_bump_detected_before_running(self, captured, tmp_path):
        scale, path, cache_dir = captured
        payload = json.loads(path.read_text())
        payload["manifest"]["spec_schema"] = -999
        stale_path = tmp_path / "stale.json"
        stale_path.write_text(json.dumps(payload))
        executor = Executor(jobs=1, cache=True, cache_dir=cache_dir)
        with pytest.raises(StaleBaselineError, match="spec schema"):
            run_gate(scale, executor, baseline_path=stale_path)
        assert executor.stats.submitted == 0, "stale check precedes the grid"

    def test_changed_grid_definition_detected(self, captured):
        _scale, path, cache_dir = captured
        # Same cell keys, different fanout: the recorded RunSpec tokens no
        # longer match, so the gate must refuse rather than compare noise.
        executor = Executor(jobs=1, cache=True, cache_dir=cache_dir)
        with pytest.raises(StaleBaselineError, match="different run specs"):
            run_gate(micro_scale(fanout=41), executor, baseline_path=path)

    def test_missing_baseline_raises(self, tmp_path):
        executor = Executor(jobs=1)
        with pytest.raises(FileNotFoundError, match="validate capture"):
            run_gate(
                micro_scale(), executor, baseline_path=tmp_path / "nope.json"
            )
        # a malformed file is refused the same way, naming the file
        bad = tmp_path / "bad.json"
        for text in (
            "not json",
            "[1]",
            '{"manifest": 3}',
            '{"figures": {"fig10": {"cells": {"scheme=ECN#": 3}}}}',
        ):
            bad.write_text(text)
            with pytest.raises(StaleBaselineError, match="bad.json"):
                run_gate(micro_scale(), executor, baseline_path=bad)
        assert executor.stats.submitted == 0


class TestBandSelection:
    def test_metric_families(self):
        from repro.validation.gates import band_for
        from repro.validation.stats import COUNT_BAND, DEFAULT_BAND, QUEUE_BAND

        assert band_for("drops") is COUNT_BAND
        assert band_for("query_timeouts") is COUNT_BAND
        assert band_for("standing_queue_pkts") is QUEUE_BAND
        assert band_for("floor_queue_pkts") is QUEUE_BAND
        assert band_for("short_avg") is DEFAULT_BAND
        assert band_for("avg_query_fct") is DEFAULT_BAND


class TestCli:
    def test_validate_run_missing_baseline_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "validate", "run",
                "--scale", "tiny",
                "--baseline-dir", str(tmp_path / "empty"),
            ]
        )
        assert code == 2
        assert "validate capture" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code = main(
            ["validate", "run", "--scale", "tiny", "--baseline", str(bad)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("# error: ") and err.count("\n") == 1
        assert "bad.json" in err

    def test_validate_capture_dirty_tree_exits_2(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(
            "repro.validation.baselines.git_dirty", lambda cwd=None: True
        )
        code = main(
            [
                "validate", "capture",
                "--scale", "tiny",
                "--baseline-dir", str(tmp_path / "baselines"),
            ]
        )
        assert code == 2
        assert "uncommitted changes" in capsys.readouterr().err

    def test_parser_accepts_validate_verbs(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["validate", "run", "--scale", "tiny", "--report-out", "r.json"]
        )
        assert args.command == "validate"
        assert args.validate_command == "run"
        assert args.report_out == "r.json"
        args = parser.parse_args(["validate", "capture", "--force"])
        assert args.validate_command == "capture"
        assert args.force


class TestTinyGateDidNotMove:
    """The ten invariants that predate the claims table, on the real tiny
    grid: name, status and value as the hand-written checks reported them at
    the commit before the table replaced them.  A behaviour change that
    moves a value re-pins it here *and* re-captures ``baselines/tiny.json``;
    a change to ``validation/invariants.py`` or a figure's ``derived`` must
    not."""

    PINNED = [
        ("fig6.short_avg_improvement", PASS, 0.10311126169426388),
        ("fig6.large_flow_parity", PASS, 1.1043690776354638),
        ("fig8.gain_grows_with_variation", PASS, 0.14744480258847403),
        ("fig8.overall_parity", PASS, 0.9469314724812138),
        ("fig10.persistent_queue_collapse", PASS, 0.1575564352367633),
        ("fig10.ecn_sharp_floor", PASS, 16.532467532467532),
        ("fig10.red_tail_standing_queue", PASS, 168.748),
        ("fig11.codel_collapse_in_sweep", PASS, 175.0),
        ("fig11.ecn_sharp_outlasts_codel", PASS, None),
        ("fig12.sensitivity_spread", PASS, 0.08597690567432388),
    ]

    def test_pinned_verdicts_and_no_new_claim_fails(self):
        from repro.validation import evaluate_figure, run_validation_grid

        # Two workers: TestExecutorDeterminism pins serial == parallel.
        outcome = run_validation_grid("tiny", Executor(jobs=2, cache=False))
        assert not outcome.failures
        verdicts = {
            verdict.name: verdict
            for figure, result in outcome.figure_results.items()
            for verdict in evaluate_figure(figure, result)
        }
        assert [
            (name, verdicts[name].status, repr(verdicts[name].value))
            for name, _, _ in self.PINNED
        ] == [(name, status, repr(value)) for name, status, value in self.PINNED]
        assert len(verdicts) > len(self.PINNED)
        assert {v.name for v in verdicts.values() if v.status == FAIL} == set()
