"""Ensemble tests: panel validation, weighted combination and its
objectives, compromise selection, the weight search contract, and the
residual-quantile interval machinery."""

import numpy as np
import pytest

from granucast.ensemble import (
    ForecastBundle,
    IntervalModel,
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
from granucast.evaluation import LengthMismatch
from granucast.learners import KINDS
from granucast.sunflower import OptimizerConfig, ParetoArchive, dominates


def square_panel() -> PredictionPanel:
    matrix = np.array(
        [
            [11.0, 9.0, 10.0, 20.0],
            [10.0, 10.0, 10.0, 20.0],
            [12.0, 12.0, 12.0, 22.0],
            [5.0, 5.0, 5.0, 10.0],
        ]
    )
    return PredictionPanel(matrix=matrix, actuals=np.array([10.0, 10.0, 10.0, 20.0]))


class TestPredictionPanel:
    def test_row_count_must_match_learners(self):
        with pytest.raises(LengthMismatch):
            PredictionPanel(matrix=np.zeros((3, 5)), actuals=np.zeros(5))

    def test_column_count_must_match_actuals(self):
        with pytest.raises(LengthMismatch):
            PredictionPanel(matrix=np.zeros((4, 5)), actuals=np.zeros(4))

    def test_len_and_custom_order(self):
        panel = PredictionPanel(matrix=np.zeros((len(KINDS), 7)), actuals=np.zeros(7))
        assert len(panel) == 7


class TestCombine:
    def test_unit_vector_picks_one_learner(self):
        panel = square_panel()
        np.testing.assert_array_equal(combine(panel, [0.0, 1.0, 0.0, 0.0]), panel.matrix[1])

    def test_zero_weights_give_zero(self):
        np.testing.assert_array_equal(combine(square_panel(), np.zeros(4)), np.zeros(4))

    def test_sum_of_rows(self):
        panel = square_panel()
        np.testing.assert_array_equal(combine(panel, np.ones(4)), panel.matrix.sum(axis=0))

    def test_negative_weights_allowed(self):
        panel = square_panel()
        np.testing.assert_array_equal(
            combine(panel, [2.0, -1.0, 0.0, 0.0]), 2.0 * panel.matrix[0] - panel.matrix[1]
        )

    def test_wrong_weight_length(self):
        with pytest.raises(LengthMismatch):
            combine(square_panel(), [1.0, 2.0])


class TestEnsembleObjectives:
    def test_hand_computed_values(self):
        # combined = (11, 9, 10, 20): two 10% errors over four samples
        mape_value, mse_value = ensemble_objectives([1.0, 0.0, 0.0, 0.0], square_panel())
        assert mape_value == pytest.approx(5.0, abs=1e-12)
        assert mse_value == pytest.approx(0.5, abs=1e-12)

    def test_perfect_weights_score_zero(self):
        assert ensemble_objectives([0.0, 1.0, 0.0, 0.0], square_panel()) == (0.0, 0.0)


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
    def test_layout(self):
        candidates = baseline_candidates(4)
        assert candidates.shape == (5, 4)
        np.testing.assert_array_equal(candidates[:4], np.eye(4))
        np.testing.assert_array_equal(candidates[4], np.full(4, 0.25))


class TestFitWeights:
    @staticmethod
    def noisy_panel(seed: int = 0) -> PredictionPanel:
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
        return PredictionPanel(matrix=matrix, actuals=actual)

    SMALL_SEARCH = OptimizerConfig(population=24, iterations=20, rng_seed=3)

    def test_chosen_never_dominated_by_a_baseline(self):
        panel = self.noisy_panel()
        fit = fit_weights(panel, self.SMALL_SEARCH)
        assert isinstance(fit, WeightFit)
        assert fit.archive.is_sound()
        for candidate in baseline_candidates(4):
            candidate_obj = ensemble_objectives(candidate, panel)
            assert not dominates(candidate_obj, fit.chosen_objectives)

    def test_deterministic(self):
        panel = self.noisy_panel()
        first = fit_weights(panel, self.SMALL_SEARCH)
        second = fit_weights(panel, self.SMALL_SEARCH)
        np.testing.assert_array_equal(first.chosen, second.chosen)
        assert first.chosen_objectives == second.chosen_objectives

    def test_weights_stay_in_the_box(self):
        fit = fit_weights(self.noisy_panel(), self.SMALL_SEARCH)
        assert np.all(fit.chosen >= -2.0) and np.all(fit.chosen <= 2.0)

    def test_excluded_from_mape_reported(self):
        panel = self.noisy_panel()
        assert fit_weights(panel, self.SMALL_SEARCH).excluded_from_mape == 0
        actual = panel.actuals.copy()
        actual[3] = 1e-12
        tiny = PredictionPanel(matrix=panel.matrix, actuals=actual)
        assert fit_weights(tiny, self.SMALL_SEARCH).excluded_from_mape == 1


class TestFitIntervals:
    def test_exact_quantiles_on_a_grid(self):
        residuals = np.arange(21.0) - 10.0
        model = fit_intervals(residuals, levels=(0.9, 0.95))
        assert model.offsets[0.9] == (-9.0, 9.0)
        assert model.offsets[0.95] == (-9.5, 9.5)

    def test_wider_level_nests_the_narrower(self):
        rng = np.random.default_rng(2)
        model = fit_intervals(rng.normal(size=400), levels=(0.95, 0.85))
        lo95, up95 = model.offsets[0.95]
        lo85, up85 = model.offsets[0.85]
        assert lo95 <= lo85 <= up85 <= up95

    def test_too_few_residuals(self):
        with pytest.raises(TooFewResiduals):
            fit_intervals(np.zeros(19))
        fit_intervals(np.linspace(-1.0, 1.0, 20))

    def test_interval_model_validation(self):
        with pytest.raises(ValueError):
            IntervalModel(offsets={1.5: (-1.0, 1.0)})
        with pytest.raises(ValueError):
            IntervalModel(offsets={0.9: (1.0, -1.0)})


class TestForecast:
    def test_offsets_applied_per_level(self):
        panel = square_panel()
        model = IntervalModel(offsets={0.9: (-1.0, 2.0), 0.5: (-0.5, 0.5)})
        bundle = forecast(panel, [0.0, 1.0, 0.0, 0.0], model)
        assert isinstance(bundle, ForecastBundle)
        np.testing.assert_array_equal(bundle.point, panel.matrix[1])
        lo, up = bundle.intervals[0.9]
        np.testing.assert_array_equal(lo, panel.matrix[1] - 1.0)
        np.testing.assert_array_equal(up, panel.matrix[1] + 2.0)
        assert set(bundle.intervals) == {0.9, 0.5}

    def test_learner_order_constant(self):
        assert KINDS == ("bilstm", "cnn_gru", "lstm_xgb", "random_forest")
