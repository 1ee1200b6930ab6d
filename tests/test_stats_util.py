"""Tests for the shared percentile helper in ``repro.core.stats_util``."""

import numpy as np
import pytest

from repro.core.stats_util import mean_or_none, percentile, percentile_or_none


class TestPercentile:
    def test_single_element(self):
        assert percentile([7.5], 0) == 7.5
        assert percentile([7.5], 50) == 7.5
        assert percentile([7.5], 99) == 7.5

    def test_two_elements_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([0.0, 10.0], 25) == 2.5
        assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)

    def test_endpoints(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    @pytest.mark.parametrize("p", [0, 10, 25, 50, 75, 90, 95, 99, 100])
    def test_matches_numpy_linear(self, p):
        rng = np.random.default_rng(12)
        values = rng.exponential(1.0, size=37).tolist()
        assert percentile(values, p) == pytest.approx(
            float(np.percentile(values, p))
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize("p", [-1, 101])
    def test_out_of_range_raises(self, p):
        with pytest.raises(ValueError):
            percentile([1.0], p)


class TestOptionalHelpers:
    def test_percentile_or_none(self):
        assert percentile_or_none([], 50) is None
        assert percentile_or_none([4.0], 50) == 4.0

    def test_mean_or_none(self):
        assert mean_or_none([]) is None
        assert mean_or_none([1.0, 3.0]) == 2.0


class TestConsumersShareInterpolation:
    """fct.py's percentiles use the shared helper's interpolation."""

    def test_fct_p99_uses_shared_helper(self):
        from repro.experiments.fct import FctSummary, FlowRecord

        records = [
            FlowRecord(
                flow_id=i,
                size_bytes=1_000,
                fct=float(i + 1),
                start_time=0.0,
                timeouts=0,
                retransmissions=0,
            )
            for i in range(100)
        ]
        summary = FctSummary.from_records(records)
        assert summary.short_p99 == pytest.approx(
            float(np.percentile([r.fct for r in records], 99))
        )
