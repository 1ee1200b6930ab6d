"""Tests for the validation verdict layer: bands, seed ranges, bootstrap."""

import pytest

from repro.validation.crossfid import (
    CROSSFID_FCT_BAND,
    CROSSFID_MARK_BAND,
    CROSSFID_QUEUE_BAND,
)
from repro.validation.stats import (
    COUNT_BAND,
    DEFAULT_BAND,
    FAIL,
    PASS,
    QUEUE_BAND,
    SKIP,
    WARN,
    ToleranceBand,
    bootstrap_ci,
    compare_samples,
)


class TestBootstrapCi:
    def test_deterministic_for_fixed_seed(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        a = bootstrap_ci(samples, seed=7)
        b = bootstrap_ci(samples, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_contains_true_mean(self):
        samples = list(range(1, 30))
        ci = bootstrap_ci([float(s) for s in samples], seed=0)
        assert ci.low <= 15.0 <= ci.high
        assert ci.contains(15.0)

    def test_single_sample_degenerate(self):
        ci = bootstrap_ci([4.2])
        assert ci.low == ci.high == 4.2
        assert ci.n_resamples == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])


WIDE_BAND = ToleranceBand(rel_warn=0.5, rel_fail=0.9)
N = None

# (current, baseline, band) -> status.  Every status but the last row's is
# the verdict the earlier Welch / Mann-Whitney rule gave for the same inputs.
VERDICT_TABLE = [
    ("equal_2v2", [1.0, 1.01], [1.0, 1.01], DEFAULT_BAND, PASS),
    ("drift_within_rel_warn", [1.02, 1.03], [1.0, 1.01], DEFAULT_BAND, PASS),
    ("drift_in_warn_band", [1.10, 1.11], [1.0, 1.01], DEFAULT_BAND, WARN),
    ("overlap_2v2", [1.0, 3.0], [0.5, 1.5], DEFAULT_BAND, WARN),
    ("current_contains_baseline", [0.5, 3.5], [1.0, 2.2], DEFAULT_BAND, WARN),
    ("baseline_contains_current", [1.0, 1.2], [0.2, 3.0], DEFAULT_BAND, WARN),
    ("touching_2v2", [1.0, 2.0], [2.0, 4.0], DEFAULT_BAND, WARN),
    ("disjoint_2v2_above", [2.0, 2.01], [1.0, 1.01], DEFAULT_BAND, FAIL),
    ("disjoint_2v2_below", [0.5, 0.6], [1.0, 1.01], DEFAULT_BAND, FAIL),
    ("equal_1v1", [5.0], [5.0], DEFAULT_BAND, PASS),
    ("shift_1v1_in_warn_band", [110.0], [100.0], DEFAULT_BAND, WARN),
    ("shift_1v1", [200.0], [100.0], DEFAULT_BAND, FAIL),
    ("1v2_inside_range", [1.5], [1.0, 3.0], DEFAULT_BAND, FAIL),
    ("1v2_outside_range", [10.0], [1.0, 2.0], DEFAULT_BAND, FAIL),
    ("2v1_around_single", [1.0, 3.0], [1.5], DEFAULT_BAND, FAIL),
    ("overlap_2v3", [1.0, 5.0], [0.5, 1.0, 2.0], DEFAULT_BAND, WARN),
    ("disjoint_2v3", [5.0, 6.0], [1.0, 2.0, 3.0], DEFAULT_BAND, FAIL),
    ("zero_baseline_match", [0.0], [0.0], DEFAULT_BAND, PASS),
    ("zero_baseline_shift_1v1", [0.5], [0.0], DEFAULT_BAND, FAIL),
    ("zero_baseline_overlap_2v2", [0.0, 2.0], [0.0, 0.0], DEFAULT_BAND, WARN),
    ("zero_baseline_within_abs_warn", [1.0], [0.0], COUNT_BAND, PASS),
    ("zero_baseline_2v2_within_abs_warn", [0.0, 2.0], [0.0, 0.0], COUNT_BAND,
     PASS),
    ("zero_baseline_beyond_abs_warn", [3.0], [0.0], COUNT_BAND, FAIL),
    ("queue_within_abs_warn", [12.0], [10.0], QUEUE_BAND, PASS),
    ("queue_beyond_abs_warn_in_warn_band", [24.0], [20.0], QUEUE_BAND, WARN),
    ("queue_beyond_rel_fail", [14.0], [10.0], QUEUE_BAND, FAIL),
    ("mark_fraction_within_abs_warn", [0.03], [0.0], CROSSFID_MARK_BAND, PASS),
    ("crossfid_fct_warn_band", [1.5, 1.6], [1.0, 1.1], CROSSFID_FCT_BAND, WARN),
    ("crossfid_queue_overlap", [10.0, 200.0], [20.0, 30.0],
     CROSSFID_QUEUE_BAND, WARN),
    ("wide_band_pass", [1.4], [1.0], WIDE_BAND, PASS),
    ("none_samples_dropped", [N, 1.0], [1.0, N], DEFAULT_BAND, PASS),
    # Constant sides, and three to six samples a side.
    ("equal_constants_2v2", [2.0, 2.0], [2.0, 2.0], DEFAULT_BAND, PASS),
    ("all_tied_3v3", [2.0, 2.0, 2.0], [2.0, 2.0, 2.0], DEFAULT_BAND, PASS),
    ("distinct_constants_2v2", [2.0, 2.0], [3.0, 3.0], DEFAULT_BAND, FAIL),
    ("identical_3v3", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], DEFAULT_BAND, PASS),
    ("1v2_single_current", [1.0], [1.0, 2.0], DEFAULT_BAND, FAIL),
    ("overlap_2v2_quarter_shift", [1.0, 2.0], [1.5, 2.5], DEFAULT_BAND, WARN),
    ("interleaved_4v4", [1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0],
     DEFAULT_BAND, WARN),
    ("disjoint_5v5", [1.0, 1.1, 0.9, 1.05, 0.95], [5.0, 5.1, 4.9, 5.05, 4.95],
     DEFAULT_BAND, FAIL),
    ("disjoint_6v6", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
     [11.0, 12.0, 13.0, 14.0, 15.0, 16.0], DEFAULT_BAND, FAIL),
    ("skip_no_current", [], [1.0], DEFAULT_BAND, SKIP),
    ("skip_no_baseline", [1.0], [], DEFAULT_BAND, SKIP),
    ("skip_all_none", [N], [1.0], DEFAULT_BAND, SKIP),
    # The one deliberate change: three a side with touching ranges used to
    # FAIL on Welch p = 0.047; no validation scale pools more than 2 seeds.
    ("touching_3v3", [0.0, 0.0, 1.0], [1.0, 2.0, 2.0], DEFAULT_BAND, WARN),
]


class TestVerdictTable:
    @pytest.mark.parametrize(
        "current,baseline,band,expected",
        [row[1:] for row in VERDICT_TABLE],
        ids=[row[0] for row in VERDICT_TABLE],
    )
    def test_verdict(self, current, baseline, band, expected):
        c = compare_samples("f", "c", "m", current, baseline, band=band)
        assert c.status == expected, c.detail


class TestCompareSamples:
    def test_equal_samples_pass(self):
        c = compare_samples("fig6", "cell", "m", [1.0, 1.01], [1.0, 1.01])
        assert c.status == PASS

    def test_small_drift_passes_within_band(self):
        c = compare_samples("fig6", "cell", "m", [1.02, 1.03], [1.0, 1.01])
        assert c.status == PASS

    def test_moderate_drift_warns(self):
        c = compare_samples("fig6", "cell", "m", [1.10, 1.11], [1.0, 1.01])
        assert c.status == WARN

    def test_large_separated_shift_fails(self):
        c = compare_samples("fig6", "cell", "m", [2.0, 2.01], [1.0, 1.01])
        assert c.status == FAIL
        assert c.rel_err > DEFAULT_BAND.rel_fail

    def test_large_shift_overlapping_ranges_demotes_to_warn(self):
        # Big relative error but overlapping seed ranges, two a side:
        # downgraded to WARN rather than FAIL.
        current = [0.5, 3.5]
        baseline = [1.0, 2.2]
        c = compare_samples("fig6", "cell", "m", current, baseline)
        assert c.status == WARN

    def test_single_sample_big_shift_fails(self):
        # n=1 cells (fig10/fig11) have no overlapping-range escape hatch.
        c = compare_samples("fig10", "cell", "m", [200.0], [100.0])
        assert c.status == FAIL

    def test_missing_sides_skip(self):
        assert compare_samples("f", "c", "m", [], [1.0]).status == SKIP
        assert compare_samples("f", "c", "m", [1.0], []).status == SKIP

    def test_zero_baseline_exact_match_passes(self):
        c = compare_samples("f", "c", "drops", [0.0], [0.0], band=COUNT_BAND)
        assert c.status == PASS

    def test_count_band_abs_warn_tolerates_small_counts(self):
        c = compare_samples("f", "c", "drops", [1.0], [0.0], band=COUNT_BAND)
        assert c.status == PASS  # abs_warn=2.0 soaks tiny count jitter

    def test_to_dict_round_trip_fields(self):
        c = compare_samples("fig6", "cell", "m", [1.0, 1.1], [1.0, 1.1])
        payload = c.to_dict()
        assert payload["figure"] == "fig6"
        assert payload["status"] == PASS
        assert list(payload) == [
            "figure", "cell", "metric", "status", "current_mean",
            "baseline_mean", "rel_err", "n_current", "n_baseline", "detail",
        ]

    def test_custom_band(self):
        band = ToleranceBand(rel_warn=0.5, rel_fail=0.9)
        c = compare_samples("f", "c", "m", [1.4], [1.0], band=band)
        assert c.status == PASS
