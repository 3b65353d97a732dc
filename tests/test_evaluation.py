"""Metric tests: hand-computed point and interval scores, the algebraic
identities tying the battery together, the equal-accuracy test's
conventions, and the relative-MAPE comparison helper."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from granucast.evaluation import (
    MAPE_CUTOFF,
    Z_CRITICAL,
    CrossedBounds,
    LengthMismatch,
    TooShort,
    ZeroActual,
    ZeroDenominator,
    ZeroRange,
    ZeroVariance,
    dm_test,
    interval_scores,
    iri,
    mape,
    mse,
    point_scores,
)


class TestPointMetrics:
    def test_hand_computed_small_case(self):
        actual = [10.0, 10.0, 10.0, 20.0]
        predicted = [11.0, 9.0, 10.0, 20.0]
        assert mape(actual, predicted) == pytest.approx(5.0, abs=1e-12)
        assert mse(actual, predicted) == pytest.approx(0.5, abs=1e-12)

    def test_full_battery_on_two_points(self):
        scores = point_scores([10.0, 20.0], [12.0, 18.0])
        assert scores.mape == pytest.approx(15.0, abs=1e-12)
        assert scores.mse == pytest.approx(4.0, abs=1e-12)
        assert scores.mae == pytest.approx(2.0, abs=1e-12)
        assert scores.rmse == pytest.approx(2.0, abs=1e-12)
        assert scores.nmse == pytest.approx(0.16, abs=1e-12)
        assert scores.r2 == pytest.approx(0.84, abs=1e-12)
        assert scores.ia == pytest.approx(0.9375, abs=1e-12)
        assert scores.u1 == pytest.approx(
            2.0 / (math.sqrt(250.0) + math.sqrt(234.0)), abs=1e-12
        )

    def test_perfect_prediction(self):
        scores = point_scores([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
        assert scores.mse == 0.0
        assert scores.rmse == 0.0
        assert scores.r2 == 1.0
        assert scores.ia == 1.0
        assert scores.u1 == 0.0

    def test_constant_actuals_rejected(self):
        with pytest.raises(ZeroVariance):
            point_scores([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatch):
            mse([], [])

    def test_as_row_matches_columns(self):
        scores = point_scores([10.0, 20.0], [12.0, 18.0])
        assert len(scores.as_row()) == len(scores.COLUMNS)
        assert scores.COLUMNS == ("MAPE", "MSE", "MAE", "RMSE", "NMSE", "U1", "IA", "R2")

    @given(st.integers(0, 10_000))
    def test_identities_hold_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        actual = rng.uniform(1.0, 10.0, size=12)
        predicted = actual + rng.normal(scale=0.5, size=12)
        scores = point_scores(actual, predicted)
        assert scores.r2 + scores.nmse == 1.0
        assert scores.rmse == pytest.approx(math.sqrt(scores.mse), abs=1e-12)
        assert 0.0 <= scores.ia <= 1.0
        assert 0.0 <= scores.u1 <= 1.0


class TestMapeCutoff:
    def test_skips_tiny_actuals_and_warns_with_the_count(self, caplog):
        value = mape([10.0, 1e-12, 20.0, 0.0], [11.0, 5.0, 18.0, 3.0])
        assert value == pytest.approx(100.0 * (0.1 + 0.1) / 2.0, abs=1e-12)
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert record.getMessage() == "MAPE skips 2 of 4 actuals below 1e-08"

    def test_cutoff_is_on_the_magnitude(self, caplog):
        actual = [MAPE_CUTOFF, -MAPE_CUTOFF / 2, -10.0]
        assert mape(actual, [0.0, 1.0, -9.0]) == pytest.approx(55.0, abs=1e-12)
        assert "skips 1 of 3" in caplog.text

    def test_no_warning_without_tiny_actuals(self, caplog):
        mape([10.0, -20.0], [11.0, -18.0])
        assert caplog.records == []

    def test_all_tiny_rejected(self):
        with pytest.raises(ZeroActual, match="all 3 actuals"):
            mape([1e-12, 0.0, -1e-13], [1.0, 1.0, 1.0])

    def test_point_scores_follow_the_rule(self):
        actual, predicted = [10.0, 0.0, 20.0], [11.0, 0.5, 18.0]
        assert point_scores(actual, predicted).mape == mape(actual, predicted)


class TestIntervalScores:
    def test_hand_computed_case(self):
        # third interval misses by 1 below its lower bound
        scores = interval_scores(
            actual=[5.0, 10.0, 15.0],
            lower=[4.0, 9.0, 16.0],
            upper=[6.0, 11.0, 18.0],
            level=0.8,
        )
        assert scores.picp == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert scores.pinaw == pytest.approx(0.2, abs=1e-12)
        assert scores.ais == pytest.approx(16.0 / 30.0, abs=1e-12)

    def test_full_coverage(self):
        scores = interval_scores([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [2.0, 3.0, 4.0], 0.9)
        assert scores.picp == 1.0
        assert scores.ais == scores.pinaw

    def test_crossed_bounds(self):
        with pytest.raises(CrossedBounds):
            interval_scores([1.0], [2.0], [1.0], 0.9, value_range=1.0)

    def test_zero_range_needs_override(self):
        with pytest.raises(ZeroRange):
            interval_scores([2.0, 2.0], [1.0, 1.0], [3.0, 3.0], 0.9)
        scores = interval_scores([2.0, 2.0], [1.0, 1.0], [3.0, 3.0], 0.9, value_range=4.0)
        assert scores.pinaw == pytest.approx(0.5, abs=1e-12)

    def test_range_override_scales_widths(self):
        base = interval_scores([1.0, 3.0], [0.0, 2.0], [2.0, 4.0], 0.9)
        doubled = interval_scores([1.0, 3.0], [0.0, 2.0], [2.0, 4.0], 0.9, value_range=4.0)
        assert doubled.pinaw == pytest.approx(base.pinaw / 2.0, abs=1e-12)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            interval_scores([1.0, 2.0], [0.0, 1.0], [2.0, 3.0], 1.0)


class TestDmTest:
    def test_needs_ten_pairs(self):
        with pytest.raises(TooShort):
            dm_test(np.ones(9), np.zeros(9))

    def test_identical_errors_never_reject(self):
        errors = np.linspace(-1.0, 1.0, 12)
        result = dm_test(errors, errors)
        assert result.statistic == 0.0
        assert not result.reject

    def test_constant_nonzero_differential(self):
        result = dm_test(np.full(12, 2.0), np.full(12, 1.0))
        assert result.statistic == math.inf
        assert result.reject
        flipped = dm_test(np.full(12, 1.0), np.full(12, 2.0))
        assert flipped.statistic == -math.inf
        assert flipped.reject

    def test_antisymmetric(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=25)
        b = rng.normal(size=25) + 0.3
        forward = dm_test(a, b)
        backward = dm_test(b, a)
        assert forward.statistic == pytest.approx(-backward.statistic, abs=1e-12)
        assert forward.reject == backward.reject

    def test_matches_manual_computation(self):
        a = np.array([1.0, 2.0, 1.5, 0.5, 2.5, 1.0, 0.8, 1.2, 1.9, 0.4])
        b = np.array([0.5, 1.0, 0.7, 0.2, 1.5, 0.6, 0.3, 0.9, 1.1, 0.1])
        d = a**2 - b**2
        expected = d.mean() / math.sqrt(d.var(ddof=1) / len(d))
        result = dm_test(a, b)
        assert result.statistic == pytest.approx(expected, abs=1e-12)
        assert result.reject == (abs(expected) > Z_CRITICAL)

    def test_clearly_worse_model_rejected(self):
        rng = np.random.default_rng(1)
        small = 0.1 * rng.normal(size=40)
        large = small + 5.0
        assert dm_test(large, small).reject

    def test_critical_value_pinned(self):
        assert Z_CRITICAL == 1.959964


class TestIri:
    def test_simple_quarter_gap(self):
        assert iri(4.0, 5.0) == 25.0

    def test_direction_matters(self):
        assert iri(5.0, 4.0) == pytest.approx(20.0, abs=1e-12)

    def test_published_style_figures(self):
        assert iri(3.745, 4.088) == pytest.approx(9.158878504672897, abs=1e-9)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            iri(0.0, 5.0)
