"""Ensemble tests: panel validation, weighted combination and its
objectives, compromise selection, the weight search contract (each over
two, three and four learners), and the residual-quantile interval
machinery."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from granucast.ensemble import (
    PredictionPanel,
    TooFewResiduals,
    WeightFit,
    baseline_candidates,
    combine,
    ensemble_objectives,
    fit_intervals,
    fit_weights,
    forecast,
    select_compromise,
)
from granucast.evaluation import MAPE_CUTOFF, LengthMismatch, ZeroActual, mape, mse
from granucast.learners import KINDS
from granucast.sunflower import OptimizerConfig, ParetoArchive, dominates


# the ensemble takes any number of learners; its tests run on 2, 3 and 4
over_learner_counts = pytest.mark.parametrize("k", [2, 3, 4])


def square_panel(k: int = 4) -> PredictionPanel:
    """The first ``k`` of four learners over four samples; learner 1 is exact."""
    matrix = np.array(
        [
            [11.0, 9.0, 10.0, 20.0],
            [10.0, 10.0, 10.0, 20.0],
            [12.0, 12.0, 12.0, 22.0],
            [5.0, 5.0, 5.0, 10.0],
        ]
    )
    return PredictionPanel(matrix=matrix[:k], actuals=np.array([10.0, 10.0, 10.0, 20.0]))


class TestPredictionPanel:
    def test_column_count_must_match_actuals(self):
        with pytest.raises(LengthMismatch):
            PredictionPanel(matrix=np.zeros((4, 5)), actuals=np.zeros(4))

    @over_learner_counts
    def test_len_and_custom_order(self, k):
        panel = PredictionPanel(matrix=np.zeros((k, 7)), actuals=np.zeros(7))
        assert len(panel) == 7


@over_learner_counts
class TestCombine:
    def test_unit_vector_picks_one_learner(self, k):
        panel = square_panel(k)
        np.testing.assert_array_equal(combine(panel, np.eye(k)[1]), panel.matrix[1])

    def test_zero_weights_give_zero(self, k):
        np.testing.assert_array_equal(combine(square_panel(k), np.zeros(k)), np.zeros(4))

    def test_sum_of_rows(self, k):
        panel = square_panel(k)
        np.testing.assert_array_equal(combine(panel, np.ones(k)), panel.matrix.sum(axis=0))

    def test_negative_weights_allowed(self, k):
        panel = square_panel(k)
        np.testing.assert_array_equal(
            combine(panel, np.eye(k)[0] * 2.0 - np.eye(k)[1]),
            2.0 * panel.matrix[0] - panel.matrix[1],
        )

    def test_wrong_weight_length(self, k):
        for length in (k - 1, k + 1):
            with pytest.raises(LengthMismatch):
                combine(square_panel(k), np.ones(length))


def per_row_objectives(weights, panel: PredictionPanel) -> np.ndarray:
    """The objective as it was first written: one weight row at a time,
    through ``combine`` and the scalar metrics."""
    rows = []
    for w in weights:
        combined = combine(panel, w)
        rows.append((mape(panel.actuals, combined), mse(panel.actuals, combined)))
    return np.array(rows)


@st.composite
def weights_and_panels(draw):
    columns = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    actuals = rng.normal(5.0, 3.0, size=columns)
    if draw(st.booleans()):
        masked = rng.random(columns) < 0.3
        masked[rng.integers(columns)] = False
        actuals[masked] = rng.choice([0.0, -0.0, 1e-12, -5e-9], size=int(masked.sum()))
    learners = draw(st.integers(2, 4))
    matrix = actuals + rng.normal(0.0, 2.0, size=(learners, columns))
    weights = draw(
        npst.arrays(
            np.float64,
            (draw(st.integers(1, 40)), learners),
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        )
    )
    return weights, PredictionPanel(matrix=matrix, actuals=actuals)


class TestEnsembleObjectives:
    @over_learner_counts
    def test_hand_computed_values(self, k):
        # combined = (11, 9, 10, 20): two 10% errors over four samples
        [[mape_value, mse_value]] = ensemble_objectives(np.eye(k)[:1], square_panel(k))
        assert mape_value == pytest.approx(5.0, abs=1e-12)
        assert mse_value == pytest.approx(0.5, abs=1e-12)

    @over_learner_counts
    def test_perfect_weights_score_zero(self, k):
        objectives = ensemble_objectives(np.eye(k)[1:2], square_panel(k))
        assert objectives.tolist() == [[0.0, 0.0]]

    @over_learner_counts
    def test_one_row_per_weight_row(self, k):
        weights = np.vstack([np.eye(k), np.full(k, 1.0 / k)])
        objectives = ensemble_objectives(weights, square_panel(k))
        assert objectives.shape == (k + 1, 2)
        assert objectives[1].tolist() == [0.0, 0.0]

    @over_learner_counts
    def test_weight_matrix_shape_checked(self, k):
        with pytest.raises(LengthMismatch):
            ensemble_objectives(np.eye(k)[0], square_panel(k))
        for length in (k - 1, k + 1):
            with pytest.raises(LengthMismatch):
                ensemble_objectives(np.ones((1, length)), square_panel(k))

    @over_learner_counts
    def test_all_small_actuals_rejected(self, k):
        panel = PredictionPanel(matrix=np.ones((k, 3)), actuals=np.array([0.0, 1e-12, -1e-9]))
        with pytest.raises(ZeroActual):
            ensemble_objectives(np.eye(k)[:1], panel)
        with pytest.raises(ZeroActual):
            fit_weights(panel, OptimizerConfig(population=3, iterations=1))

    @settings(max_examples=150, deadline=None)
    @given(weights_and_panels())
    def test_matches_the_per_row_form_bit_for_bit(self, case):
        weights, panel = case
        batched = ensemble_objectives(weights, panel)
        assert batched.flags.c_contiguous
        np.testing.assert_array_equal(
            batched.view(np.int64), per_row_objectives(weights, panel).view(np.int64)
        )


class TestSelectCompromise:
    def test_single_member(self):
        archive = ParetoArchive()
        archive.insert([0.0], (1.0, 2.0))
        assert select_compromise(archive) == 0

    def test_balanced_member_wins(self):
        archive = ParetoArchive()
        archive.insert([0.0], (0.0, 10.0))
        archive.insert([1.0], (5.0, 5.0))
        archive.insert([2.0], (10.0, 0.0))
        assert select_compromise(archive) == 1

    def test_tie_breaks_to_lower_first_objective(self):
        archive = ParetoArchive()
        archive.insert([0.0], (9.0, 1.0))
        archive.insert([1.0], (1.0, 9.0))
        assert select_compromise(archive) == 1

    def test_constant_objective_column(self):
        archive = ParetoArchive()
        archive.positions = np.array([[0.0], [1.0]])
        archive.objectives = np.array([[2.0, 3.0], [2.0, 1.0]])
        assert select_compromise(archive) == 1


class TestBaselineCandidates:
    @over_learner_counts
    def test_layout(self, k):
        candidates = baseline_candidates(k)
        assert candidates.shape == (k + 1, k)
        np.testing.assert_array_equal(candidates[:k], np.eye(k))
        np.testing.assert_array_equal(candidates[k], np.full(k, 1.0 / k))


class TestFitWeights:
    @staticmethod
    def noisy_panel(k: int = 4, seed: int = 0) -> PredictionPanel:
        """The first ``k`` of four learners of differing skill."""
        rng = np.random.default_rng(seed)
        actual = 5.0 + np.sin(np.linspace(0.0, 6.0, 30))
        matrix = np.stack(
            [
                actual + 0.3 * rng.normal(size=30),
                actual + 0.1 * rng.normal(size=30),
                actual + 1.0,
                0.5 * actual,
            ]
        )
        return PredictionPanel(matrix=matrix[:k], actuals=actual)

    SMALL_SEARCH = OptimizerConfig(population=24, iterations=20, rng_seed=3)

    @over_learner_counts
    def test_chosen_never_dominated_by_a_baseline(self, k):
        panel = self.noisy_panel(k)
        fit = fit_weights(panel, self.SMALL_SEARCH)
        assert isinstance(fit, WeightFit)
        assert fit.archive.is_sound()
        assert fit.chosen.shape == (k,)
        for candidate_obj in ensemble_objectives(baseline_candidates(k), panel):
            assert not dominates(candidate_obj, fit.chosen_objectives)

    @over_learner_counts
    def test_deterministic(self, k):
        panel = self.noisy_panel(k)
        first = fit_weights(panel, self.SMALL_SEARCH)
        second = fit_weights(panel, self.SMALL_SEARCH)
        np.testing.assert_array_equal(first.chosen, second.chosen)
        assert first.chosen_objectives == second.chosen_objectives

    @over_learner_counts
    def test_weights_stay_in_the_box(self, k):
        fit = fit_weights(self.noisy_panel(k), self.SMALL_SEARCH)
        assert np.all(fit.chosen >= -2.0) and np.all(fit.chosen <= 2.0)

    @over_learner_counts
    def test_excluded_from_mape_reported(self, k):
        panel = self.noisy_panel(k)
        assert fit_weights(panel, self.SMALL_SEARCH).excluded_from_mape == 0
        actual = panel.actuals.copy()
        actual[3] = 1e-12
        tiny = PredictionPanel(matrix=panel.matrix, actuals=actual)
        assert fit_weights(tiny, self.SMALL_SEARCH).excluded_from_mape == 1

    def test_matches_recorded_digest(self):
        """A search recorded with one objective call and one insert per
        candidate, on actuals with three values under the MAPE cutoff;
        sweeps and the dominance screen must not move a bit."""
        rng = np.random.default_rng(3)
        actual = np.exp(rng.normal(1.0, 1.0, size=48))
        actual[[5, 21, 40]] = (1e-12, 0.0, -3e-9)
        assert (np.abs(actual) < MAPE_CUTOFF).sum() == 3
        matrix = np.stack(
            [
                actual * (1.0 + 0.3 * rng.normal(size=48)),
                actual + rng.normal(size=48),
                0.8 * actual + 0.5,
                actual + 2.0 * rng.normal(size=48) ** 2,
            ]
        )
        panel = PredictionPanel(matrix=matrix, actuals=actual)
        fit = fit_weights(panel, OptimizerConfig(population=30, iterations=25, rng_seed=4))
        assert (len(fit.archive), fit.excluded_from_mape) == (7, 3)
        h = hashlib.sha256()
        for array in (fit.archive.positions, fit.archive.objectives, fit.chosen):
            h.update(array.tobytes())
        assert h.hexdigest() == "0b20580047eabce961ea7d8bb6aa73a57b3ccd14bd406a3d69c03cf12913b9da"


class TestFitIntervals:
    def test_exact_quantiles_on_a_grid(self):
        residuals = np.arange(21.0) - 10.0
        offsets = fit_intervals(residuals, levels=(0.9, 0.95))
        assert offsets[0.9] == (-9.0, 9.0)
        assert offsets[0.95] == (-9.5, 9.5)

    def test_wider_level_nests_the_narrower(self):
        rng = np.random.default_rng(2)
        offsets = fit_intervals(rng.normal(size=400), levels=(0.95, 0.85))
        lo95, up95 = offsets[0.95]
        lo85, up85 = offsets[0.85]
        assert lo95 <= lo85 <= up85 <= up95

    def test_too_few_residuals(self):
        with pytest.raises(TooFewResiduals):
            fit_intervals(np.zeros(19))
        fit_intervals(np.linspace(-1.0, 1.0, 20))

    def test_interval_model_validation(self):
        for level in (1.5, 1.0, 0.0, -0.1):
            with pytest.raises(ValueError, match="level must lie in"):
                fit_intervals(np.linspace(-1.0, 1.0, 20), levels=(0.9, level))


class TestForecast:
    @over_learner_counts
    def test_offsets_applied_per_level(self, k):
        panel = square_panel(k)
        offsets = {0.9: (-1.0, 2.0), 0.5: (-0.5, 0.5)}
        point, intervals = forecast(panel, np.eye(k)[1], offsets)
        np.testing.assert_array_equal(point, panel.matrix[1])
        lo, up = intervals[0.9]
        np.testing.assert_array_equal(lo, panel.matrix[1] - 1.0)
        np.testing.assert_array_equal(up, panel.matrix[1] + 2.0)
        assert set(intervals) == {0.9, 0.5}

    def test_learner_order_constant(self):
        assert KINDS == ("bilstm", "cnn_gru", "lstm_xgb", "random_forest")
