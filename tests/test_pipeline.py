"""End-to-end pipeline tests: configuration defaults, the structure of a
full forecast run, the single-learner path, and the contiguous k-fold
harness."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import cheap_pipeline_config

from granucast import pipeline
from granucast.config import build_run_config
from granucast.ensemble import TooFewResiduals, combine, fit_intervals
from granucast.evaluation import PointScores, point_scores
from granucast.learners import KINDS, TooFewRecords, make_supervised
from granucast.pipeline import _samples_inside, extract_and_split, run_cv, run_forecast
from granucast.synth import SynthConfig, write_csv
from granucast.timeseries import interpolate_gaps, load_series


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

    def test_desk_scale_shrinks_size_and_epochs_and_raises_the_rate(self):
        desk = build_run_config(preset="desk", seed=0).learners
        assert desk["bilstm"].hidden_sizes == (16, 8)
        assert desk["bilstm"].epochs == 60
        assert desk["lstm_xgb"].epochs == 60
        for kind in ("bilstm", "cnn_gru", "lstm_xgb"):
            assert desk[kind].learning_rate == 0.01
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


@pytest.fixture(scope="module")
def split(synth_series, pipeline_config):
    """``extract_and_split`` of the series behind ``forecast_run``."""
    return extract_and_split(synth_series, pipeline_config)


class TestForecastRunStructure:
    def test_counts_and_indices(self, forecast_run, split):
        # 7200 samples in 36-point windows make 200 feature rows; the
        # 60/20/20 split leaves 40 test rows and lag 4 eats the first four
        granules, features, _, _, bounds = split
        assert granules.shape == (200, 3)
        assert features.shape == (200, 6)
        assert bounds == (120, 160)
        assert len(forecast_run.val_panel) == 36
        assert len(forecast_run.test_panel) == 36
        np.testing.assert_array_equal(
            forecast_run.test_record_indices, np.arange(164, 200)
        )

    def test_panel_shapes(self, forecast_run):
        assert forecast_run.val_panel.matrix.shape == (4, 36)
        assert forecast_run.test_panel.matrix.shape == (4, 36)

    def test_split_contract_of_the_benchmark(self, forecast_run, split, pipeline_config):
        # perfbench/run.py scores saved models on sets it builds from these parts
        _, _, _, parts, bounds = split
        val_set, test_set = (make_supervised(part, pipeline_config.lag) for part in parts[1:])
        np.testing.assert_array_equal(val_set.targets, forecast_run.val_panel.actuals)
        np.testing.assert_array_equal(test_set.targets, forecast_run.test_panel.actuals)
        np.testing.assert_array_equal(
            bounds[1] + test_set.target_indices, forecast_run.test_record_indices
        )

    def test_bundle_layout(self, forecast_run):
        assert len(forecast_run.point) == 36
        assert set(forecast_run.intervals) == set(forecast_run.offsets) == {0.95, 0.85}
        for level, (lo, up) in forecast_run.offsets.items():
            lower, upper = forecast_run.intervals[level]
            np.testing.assert_array_equal(lower, forecast_run.point + lo)
            np.testing.assert_array_equal(upper, forecast_run.point + up)

    def test_scores_recomputable(self, forecast_run, split, pipeline_config):
        # the fitted forecaster applied again to the test rows
        forecaster = forecast_run.forecaster
        test_set = make_supervised(split[3][2], pipeline_config.lag)
        point = combine(forecaster.panel(test_set), forecaster.weights)
        np.testing.assert_array_equal(point, forecast_run.point)
        assert point_scores(test_set.targets, point) == point_scores(
            forecast_run.test_panel.actuals, forecast_run.point
        )

    def test_weight_fit_present(self, forecast_run):
        fit = forecast_run.forecaster.weight_fit
        assert fit is not None
        assert fit.chosen.shape == (4,)
        np.testing.assert_array_equal(forecast_run.forecaster.weights, fit.chosen)

    def test_offsets_come_from_the_validation_residuals(self, forecast_run):
        forecaster, val_panel = forecast_run.forecaster, forecast_run.val_panel
        np.testing.assert_array_equal(
            forecaster.residuals, val_panel.actuals - combine(val_panel, forecaster.weights)
        )
        assert forecast_run.offsets == fit_intervals(forecaster.residuals, (0.95, 0.85))


class TestSoloPath:
    def test_solo_uses_one_learner(self, synth_series):
        run = run_forecast(synth_series, cheap_pipeline_config(), kinds=("random_forest",))
        forecaster = run.forecaster
        assert list(forecaster.models) == ["random_forest"]
        assert forecaster.weight_fit is None
        np.testing.assert_array_equal(forecaster.weights, [1.0])
        assert run.test_panel.matrix.shape[0] == run.val_panel.matrix.shape[0] == 1
        np.testing.assert_array_equal(run.point, run.test_panel.matrix[0])
        assert set(run.intervals) == {0.95, 0.85}
        own = fit_intervals(run.val_panel.actuals - run.val_panel.matrix[0], (0.95, 0.85))
        assert run.offsets == own

    @pytest.mark.parametrize("kinds", [(), ("mlp",), ("random_forest", "random_forest")])
    def test_bad_learner_set_fails_before_any_fit(self, kinds, monkeypatch):
        def no_fit(*_):
            raise AssertionError("a learner was fit")

        monkeypatch.setattr(pipeline, "fit_learner", no_fit)
        data = make_supervised(indexed_features(20), 4)
        with pytest.raises(ValueError, match=re.escape(f"learner set {kinds!r}")):
            pipeline.train_models(data, cheap_pipeline_config(), kinds)


def samples_inside(count: int, rows, lag: int = 2):
    """``_samples_inside`` on ``count`` indexed feature rows, masked to ``rows``."""
    mask = np.zeros(count, dtype=bool)
    mask[rows] = True
    return _samples_inside(make_supervised(indexed_features(count), lag), mask)


class TestSupervisedFromRuns:
    def test_samples_never_straddle_runs(self):
        data = samples_inside(11, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10])
        assert len(data) == 6
        np.testing.assert_array_equal(data.target_indices, [2, 3, 4, 8, 9, 10])
        # the first sample of the second run starts at row 6, so its
        # inputs contain only values >= 6
        row = data.inputs[3]
        assert row.min() == 6.0 and row.max() == 7.0

    def test_offsets_preserved(self):
        data = samples_inside(10, range(3, 8))
        np.testing.assert_array_equal(data.target_indices, [5, 6, 7])
        np.testing.assert_array_equal(data.targets, [5.0, 6.0, 7.0])

    def test_all_runs_too_short(self):
        with pytest.raises(TooFewRecords):
            samples_inside(10, [0, 1, 4, 5])


class TestCrossValidation:
    def test_five_folds_partition_the_records(self, cv_folds):
        assert len(cv_folds) == 5
        assert [f.fold for f in cv_folds] == [0, 1, 2, 3, 4]
        gathered = np.sort(np.concatenate([f.test_record_indices for f in cv_folds]))
        np.testing.assert_array_equal(gathered, np.arange(200))

    def test_columns_are_the_point_battery(self, cv_folds):
        assert PointScores.COLUMNS == ("MAPE", "MSE", "MAE", "RMSE", "NMSE", "U1", "IA", "R2")
        for fold in cv_folds:
            assert isinstance(fold.scores, PointScores)
            assert len(fold.scores.as_row()) == len(PointScores.COLUMNS)

    def test_scores_finite(self, cv_folds):
        for fold in cv_folds:
            assert all(np.isfinite(fold.scores.as_row()))

    def test_short_series_folds_need_no_intervals(self, tmp_path, monkeypatch):
        # 1440 samples leave 40 feature rows: too few validation residuals
        # for a forecast's intervals, which it finds before training any
        # learner, but cv fits none
        path = tmp_path / "short.csv"
        write_csv(path, SynthConfig(samples=1440, seed=5))
        values = interpolate_gaps(load_series(path))

        def no_training(kind, *_):
            raise AssertionError(f"trained {kind}")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "fit_learner", no_training)
            with pytest.raises(TooFewResiduals, match="^need at least 20 residuals, got 4$"):
                run_forecast(values, cheap_pipeline_config())
        folds = run_cv(values, cheap_pipeline_config(), k=5)
        assert [f.fold for f in folds] == [0, 1, 2, 3, 4]
        for fold in folds:
            assert all(np.isfinite(fold.scores.as_row()))
