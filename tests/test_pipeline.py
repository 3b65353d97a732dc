"""End-to-end pipeline tests: configuration defaults, the structure of a
full forecast run, the single-learner path, and the contiguous k-fold
harness."""

import dataclasses

import numpy as np
import pytest
from conftest import cheap_pipeline_config

from granucast.config import build_run_config
from granucast.ensemble import fit_intervals
from granucast.evaluation import PointScores, point_scores
from granucast.learners import KINDS
from granucast.pipeline import _contiguous_runs, _supervised_from_runs, run_forecast


def indexed_features(count: int) -> np.ndarray:
    """Five-column feature rows whose every value is the row index."""
    return np.repeat(np.arange(count, dtype=np.float64)[:, None], 5, axis=1)


class TestDefaultLearnerConfigs:
    def test_full_scale_fields(self):
        configs = build_run_config(seed=7).learners
        assert set(configs) == set(KINDS)
        assert configs["bilstm"].learning_rate == 0.001
        assert configs["bilstm"].batch_size == 100
        assert configs["bilstm"].hidden_sizes == (128, 64, 32)
        assert configs["bilstm"].epochs == 200
        assert configs["cnn_gru"].batch_size == 150
        assert configs["lstm_xgb"].epochs == 750
        assert configs["lstm_xgb"].max_depth == 1
        assert configs["lstm_xgb"].boosting_rounds == 100
        assert configs["random_forest"].tree_count == 100

    def test_seed_offsets_differ_per_learner(self):
        configs = build_run_config(seed=10).learners
        seeds = [configs[kind].rng_seed for kind in KINDS]
        assert seeds == [11, 12, 13, 14]

    def test_desk_scale_shrinks_only_size_and_epochs(self):
        desk = build_run_config(preset="desk", seed=0).learners
        assert desk["bilstm"].hidden_sizes == (16, 8)
        assert desk["bilstm"].epochs == 60
        assert desk["lstm_xgb"].epochs == 60
        assert desk["bilstm"].learning_rate == 0.001
        assert desk["cnn_gru"].batch_size == 150


class TestPipelineConfig:
    def test_missing_learner_rejected(self):
        run = build_run_config()
        learners = dict(run.learners)
        del learners["cnn_gru"]
        with pytest.raises(ValueError):
            dataclasses.replace(run, learners=learners)

    def test_defaults(self):
        config = build_run_config()
        assert config.window_size == 36
        assert config.lag == 4
        assert config.levels == (0.95, 0.85)


class TestForecastRunStructure:
    def test_counts_and_indices(self, forecast_run):
        # 7200 samples in 36-point windows make 200 feature rows; the
        # 60/20/20 split leaves 40 test rows and lag 4 eats the first four
        assert forecast_run.granules.shape == (200, 3)
        assert forecast_run.features.shape == (200, 6)
        assert forecast_run.split_bounds == (120, 160)
        assert len(forecast_run.val_set) == 36
        assert len(forecast_run.test_set) == 36
        np.testing.assert_array_equal(
            forecast_run.test_record_indices, np.arange(164, 200)
        )

    def test_panel_shapes(self, forecast_run):
        assert forecast_run.val_panel.matrix.shape == (4, 36)
        assert forecast_run.test_panel.matrix.shape == (4, 36)
        np.testing.assert_array_equal(
            forecast_run.test_panel.actuals, forecast_run.test_set.targets
        )

    def test_bundle_layout(self, forecast_run):
        assert len(forecast_run.bundle.point) == 36
        assert set(forecast_run.bundle.intervals) == {0.95, 0.85}

    def test_scores_recomputable(self, forecast_run):
        fresh = point_scores(forecast_run.test_set.targets, forecast_run.bundle.point)
        assert fresh == forecast_run.test_scores

    def test_weight_fit_present(self, forecast_run):
        assert forecast_run.weight_fit is not None
        assert forecast_run.weight_fit.chosen.shape == (4,)


class TestSoloPath:
    def test_solo_uses_one_learner(self, synth_series):
        run = run_forecast(synth_series, cheap_pipeline_config(), solo="random_forest")
        assert run.weight_fit is None
        k = KINDS.index("random_forest")
        np.testing.assert_array_equal(run.bundle.point, run.test_panel.matrix[k])
        assert set(run.bundle.intervals) == {0.95, 0.85}
        own = fit_intervals(run.val_set.targets - run.val_panel.matrix[k], (0.95, 0.85))
        assert run.interval_model.offsets == own.offsets

    def test_unknown_solo_kind(self, synth_series):
        with pytest.raises(ValueError):
            run_forecast(synth_series, cheap_pipeline_config(), solo="mlp")


class TestContiguousRuns:
    def test_splits_on_gaps(self):
        runs = _contiguous_runs(np.array([0, 1, 2, 5, 6, 9]))
        assert runs == [(0, 3), (5, 7), (9, 10)]

    def test_single_index(self):
        assert _contiguous_runs(np.array([4])) == [(4, 5)]

    def test_unbroken_range(self):
        assert _contiguous_runs(np.arange(7)) == [(0, 7)]


class TestSupervisedFromRuns:
    def test_samples_never_straddle_runs(self):
        data = _supervised_from_runs(indexed_features(10), [(0, 5), (5, 10)], lag=2)
        assert len(data) == 6
        np.testing.assert_array_equal(data.target_indices, [2, 3, 4, 7, 8, 9])
        # the first sample of the second run starts at row 5, so its
        # inputs contain only values >= 5
        row = data.inputs[3]
        assert row.min() == 5.0 and row.max() == 6.0

    def test_offsets_preserved(self):
        data = _supervised_from_runs(indexed_features(10), [(3, 8)], lag=2)
        np.testing.assert_array_equal(data.target_indices, [5, 6, 7])
        np.testing.assert_array_equal(data.targets, [5.0, 6.0, 7.0])

    def test_all_runs_too_short(self):
        with pytest.raises(ValueError):
            _supervised_from_runs(indexed_features(10), [(0, 2), (4, 6)], lag=2)


class TestCrossValidation:
    def test_five_folds_partition_the_records(self, cv_report):
        assert len(cv_report.folds) == 5
        assert [f.fold for f in cv_report.folds] == [0, 1, 2, 3, 4]
        gathered = np.sort(np.concatenate([f.test_record_indices for f in cv_report.folds]))
        np.testing.assert_array_equal(gathered, np.arange(200))

    def test_columns_are_the_point_battery(self, cv_report):
        assert cv_report.columns == PointScores.COLUMNS
        assert cv_report.columns == ("MAPE", "MSE", "MAE", "RMSE", "NMSE", "U1", "IA", "R2")

    def test_scores_finite(self, cv_report):
        for fold in cv_report.folds:
            assert all(np.isfinite(fold.scores.as_row()))
