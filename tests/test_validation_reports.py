"""The two gate reports, built from hand-made verdicts: no simulation.

``ValidationReport`` and ``CrossfidReport`` share one verdict rollup
(status, counts, failed names, the non-pass table, telemetry).  The texts
and dicts below were produced by the reports as they stood before that
rollup was shared, so they pin the merge to byte-identical output.
"""

import pytest

from repro.experiments.faults import RunFailure
from repro.telemetry import Telemetry, activate
from repro.validation import CrossfidReport, ValidationReport
from repro.validation.baselines import BaselineManifest
from repro.validation.invariants import InvariantVerdict
from repro.validation.stats import CellComparison

COMPARISONS = [
    CellComparison("fig6", "load=0.5|scheme=ECN#", "short_avg", "pass",
                   0.00101, 0.001, 0.01, 2, 2, "rel_err=1.0% within 5%"),
    CellComparison("fig6", "load=0.5|scheme=ECN#", "mark_fraction", "warn",
                   0.3, 0.2, 0.5, 2, 2,
                   "rel_err=50.0% in warn band (25%..75%)"),
    CellComparison("fig10", "scheme=ECN#", "standing_queue_pkts", "fail",
                   165.703, 26.5873, 5.232, 1, 1,
                   "rel_err=523.2% > 150%; sample ranges are disjoint"),
    CellComparison("fig10", "scheme=CoDel", "floor_queue_pkts", "skip",
                   None, 12.0, None, 0, 1, "no current samples"),
]
INVARIANTS = [
    InvariantVerdict("fig6.large_flow_parity", "fig6", "pass", 1.026, 1.15,
                     "ok"),
    InvariantVerdict("fig10.persistent_queue_collapse", "fig10", "fail",
                     0.982, 0.4,
                     "ecn_sharp_standing_ratio = 0.982 (require <= 0.4)"),
    InvariantVerdict("fig12.sensitivity_spread", "fig12", "skip", None, 0.15,
                     "figure result unavailable"),
]
FAILURES = [
    RunFailure(spec_key="star|ECN#|seed=3|0123456789abcdef",
               kind="exception", label="ECN#", seed=3, exc_type="ValueError",
               message="pst_target must not exceed ins_target", attempts=2),
]
MANIFEST = BaselineManifest(scale="tiny", baseline_schema=1, spec_schema=7,
                            package_version="0.0.0", git_sha="0123abc",
                            created_unix=1.5)
EXECUTOR = "specs=4 executed=0 cache_hits=4"
FAILED = ["fig10:scheme=ECN#:standing_queue_pkts",
          "fig10.persistent_queue_collapse"]
MIXED_COUNTS = {"pass": 2, "warn": 1, "fail": 2, "skip": 2}
ALL_PASS_COUNTS = {"pass": 1, "warn": 0, "fail": 0, "skip": 0}


def agreement(figure, status, n_pass, n_warn, n_fail, n_skip):
    return {"figure": figure, "status": status, "pass": n_pass,
            "warn": n_warn, "fail": n_fail, "skip": n_skip}


def validation_mixed():
    return ValidationReport(scale="tiny", comparisons=COMPARISONS,
                            invariants=INVARIANTS, failures=FAILURES,
                            executor_line=EXECUTOR, baseline_manifest=MANIFEST)


def crossfid_mixed():
    return CrossfidReport(scale="tiny", figures=("fig6", "fig10"),
                          comparisons=COMPARISONS, invariants=INVARIANTS,
                          failures=FAILURES, packet_wall_seconds=12.5,
                          fluid_wall_seconds=0.5, executor_line=EXECUTOR)


VALIDATION_MIXED_TEXT = """\
Baseline comparisons (non-pass cells)
figure                  cell               metric  status  current  baseline  rel err
------  --------------------  -------------------  ------  -------  --------  -------
  fig6  load=0.5|scheme=ECN#        mark_fraction    WARN      0.3       0.2    50.0%
 fig10           scheme=ECN#  standing_queue_pkts    FAIL  165.703   26.5873   523.2%
 fig10          scheme=CoDel     floor_queue_pkts    SKIP        -        12        -

Paper-trend invariants
                          claim  status  value  require
-------------------------------  ------  -----  -------
         fig6.large_flow_parity    PASS  1.026  <= 1.15
fig10.persistent_queue_collapse    FAIL  0.982   <= 0.4
       fig12.sensitivity_spread    SKIP      -  <= 0.15
fig10.persistent_queue_collapse: ecn_sharp_standing_ratio = 0.982 (require <= 0.4)
fig12.sensitivity_spread: figure result unavailable

1 run(s) failed (surviving cells rendered with gaps):
                             spec       kind  attempts                                              error
---------------------------------  ---------  --------  -------------------------------------------------
star|ECN#|seed=3|0123456789abcdef  exception         2  ValueError: pst_target must not exceed ins_target

Validation [tiny]: FAIL (pass=2 warn=1 fail=2 skip=2; run_failures=1; specs=4 executed=0 cache_hits=4)"""

VALIDATION_ALL_PASS_TEXT = """\
Baseline comparisons: all 1 cell-metrics pass

Validation [tiny]: PASS (pass=1 warn=0 fail=0 skip=0; run_failures=0; specs=4 executed=0 cache_hits=4)"""

CROSSFID_MIXED_TEXT = """\
Cross-fidelity comparisons (non-pass cells)
figure                  cell               metric  status    fluid   packet  rel err
------  --------------------  -------------------  ------  -------  -------  -------
  fig6  load=0.5|scheme=ECN#        mark_fraction    WARN      0.3      0.2    50.0%
 fig10           scheme=ECN#  standing_queue_pkts    FAIL  165.703  26.5873   523.2%
 fig10          scheme=CoDel     floor_queue_pkts    SKIP        -       12        -

Per-figure agreement
figure  status  pass  warn  fail  skip
------  ------  ----  ----  ----  ----
  fig6    WARN     1     1     0     0
 fig10    FAIL     0     0     1     1

Paper-trend invariants on fluid results
                          claim  status  value  require
-------------------------------  ------  -----  -------
         fig6.large_flow_parity    PASS  1.026  <= 1.15
fig10.persistent_queue_collapse    FAIL  0.982   <= 0.4
       fig12.sensitivity_spread    SKIP      -  <= 0.15
fig10.persistent_queue_collapse: ecn_sharp_standing_ratio = 0.982 (require <= 0.4)
fig12.sensitivity_spread: figure result unavailable

1 run(s) failed (surviving cells rendered with gaps):
                             spec       kind  attempts                                              error
---------------------------------  ---------  --------  -------------------------------------------------
star|ECN#|seed=3|0123456789abcdef  exception         2  ValueError: pst_target must not exceed ins_target

Wall clock: packet 12.50s vs fluid 0.50s (25x speedup on the sampled cells)

Crossfid [tiny]: FAIL (pass=2 warn=1 fail=2 skip=2; run_failures=1; specs=4 executed=0 cache_hits=4)"""

CROSSFID_ALL_PASS_TEXT = """\
Cross-fidelity comparisons: all 1 cell-metrics pass

Per-figure agreement
figure  status  pass  warn  fail  skip
------  ------  ----  ----  ----  ----
  fig6    PASS     1     0     0     0
 fig10    PASS     0     0     0     0

Crossfid [tiny]: PASS (pass=1 warn=0 fail=0 skip=0; run_failures=0; specs=4 executed=0 cache_hits=4)"""


class TestValidationReport:
    def test_mixed_text(self):
        assert validation_mixed().render_text() == VALIDATION_MIXED_TEXT

    def test_all_pass_text(self):
        report = ValidationReport(scale="tiny", comparisons=COMPARISONS[:1],
                                  executor_line=EXECUTOR)
        assert report.render_text() == VALIDATION_ALL_PASS_TEXT
        assert report.status == "pass"
        assert report.counts() == ALL_PASS_COUNTS

    def test_mixed_dict(self):
        assert validation_mixed().to_dict() == {
            "scale": "tiny",
            "status": "fail",
            "counts": MIXED_COUNTS,
            "failed": FAILED,
            "comparisons": [c.to_dict() for c in COMPARISONS],
            "invariants": [v.to_dict() for v in INVARIANTS],
            "run_failures": 1,
            "executor": EXECUTOR,
            "baseline_manifest": {
                "scale": "tiny", "baseline_schema": 1, "spec_schema": 7,
                "package_version": "0.0.0", "git_sha": "0123abc",
                "git_dirty": False, "created_unix": 1.5,
            },
        }

    def test_run_failure_alone_fails_the_gate(self):
        report = ValidationReport(scale="tiny", comparisons=COMPARISONS[:1],
                                  failures=FAILURES)
        assert report.counts() == ALL_PASS_COUNTS
        assert report.status == "fail"
        assert report.failed_names() == []


class TestCrossfidReport:
    def test_mixed_text(self):
        assert crossfid_mixed().render_text() == CROSSFID_MIXED_TEXT

    def test_all_pass_text(self):
        report = CrossfidReport(scale="tiny", figures=("fig6", "fig10"),
                                comparisons=COMPARISONS[:1],
                                executor_line=EXECUTOR)
        assert report.render_text() == CROSSFID_ALL_PASS_TEXT
        assert report.speedup is None
        assert [a.to_dict() for a in report.agreement()] == [
            agreement("fig6", "pass", 1, 0, 0, 0),
            agreement("fig10", "pass", 0, 0, 0, 0),
        ]

    def test_mixed_dict(self):
        assert crossfid_mixed().to_dict() == {
            "scale": "tiny",
            "figures": ["fig6", "fig10"],
            "status": "fail",
            "counts": MIXED_COUNTS,
            "failed": FAILED,
            "agreement": [
                agreement("fig6", "warn", 1, 1, 0, 0),
                agreement("fig10", "fail", 0, 0, 1, 1),
            ],
            "comparisons": [c.to_dict() for c in COMPARISONS],
            "fluid_invariants": [v.to_dict() for v in INVARIANTS],
            "run_failures": 1,
            "packet_wall_seconds": 12.5,
            "fluid_wall_seconds": 0.5,
            "speedup": 25.0,
            "executor": EXECUTOR,
        }

    def test_comparison_dict_fields(self):
        assert COMPARISONS[2].to_dict() == {
            "figure": "fig10",
            "cell": "scheme=ECN#",
            "metric": "standing_queue_pkts",
            "status": "fail",
            "current_mean": 165.703,
            "baseline_mean": 26.5873,
            "rel_err": 5.232,
            "n_current": 1,
            "n_baseline": 1,
            "detail": "rel_err=523.2% > 150%; sample ranges are disjoint",
        }


@pytest.mark.parametrize(
    "build,kinds",
    [(validation_mixed, ("baseline", "invariant")),
     (crossfid_mixed, ("crossfid", "crossfid_invariant"))],
    ids=["validation", "crossfid"],
)
def test_verdicts_mirrored_into_telemetry(build, kinds):
    report = build()
    telemetry = Telemetry()
    with activate(telemetry):
        report.emit_verdicts()
    comparison_kind, invariant_kind = kinds
    for status in ("pass", "warn", "fail", "skip"):
        assert telemetry.registry.counter(
            "validation_verdicts_total", kind=comparison_kind, status=status
        ).value == sum(c.status == status for c in COMPARISONS)
        assert telemetry.registry.counter(
            "validation_verdicts_total", kind=invariant_kind, status=status
        ).value == sum(v.status == status for v in INVARIANTS)
