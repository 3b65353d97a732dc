"""End-to-end orchestration: granules -> features -> learners -> ensemble.

The feature rows are split chronologically (train/validation/test) and
each split builds its own lagged supervised set, so a split's first ``lag``
rows serve only as history. ``fit_forecaster`` trains the learners on one
set and fits the ensemble weights on another: ``run_forecast`` on the train
and validation splits, with interval offsets from the validation residuals
and test-split scores only, and ``run_cv`` once per fold, with no intervals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .ensemble import MIN_RESIDUALS, PredictionPanel, TooFewResiduals, WeightFit, combine
from .ensemble import fit_intervals, fit_weights, forecast
from .evaluation import PointScores, point_scores
from .fuzzy_rough import ClusterResult, extract_features
from .granulation import granulate_series
from .learners import KINDS, CnnGruRegressor, SequenceTooShort, SupervisedSet, TooFewRecords
from .learners import fit_learner, make_supervised
from .timeseries import chrono_split, kfold_split


def predict_panel(models: dict[str, object], data: SupervisedSet) -> PredictionPanel:
    """One prediction row per model of ``models``, in its order."""
    matrix = np.stack([model.predict(data.inputs) for model in models.values()])
    return PredictionPanel(matrix=matrix, actuals=data.targets)


@dataclass(frozen=True)
class Forecaster:
    """Trained learners in fit order, their weights (the weight 1 and no
    ``weight_fit`` for one learner) and the calibration residuals."""

    models: dict[str, object]
    weight_fit: WeightFit | None
    weights: np.ndarray
    residuals: np.ndarray

    def panel(self, data: SupervisedSet) -> PredictionPanel:
        return predict_panel(self.models, data)


@dataclass(frozen=True)
class ForecastRun:
    forecaster: Forecaster
    val_panel: PredictionPanel
    test_panel: PredictionPanel
    offsets: dict[float, tuple[float, float]]
    point: np.ndarray
    intervals: dict[float, tuple[np.ndarray, np.ndarray]]
    test_record_indices: np.ndarray


def extract_and_split(
    values: np.ndarray, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, ClusterResult, tuple, tuple[int, int]]:
    """Granules of the gap-free ``values``, feature rows, the clustering,
    the train/validation/test feature parts and the (train_end, val_end)
    row bounds."""
    granules = granulate_series(values, config.window_size)
    features, cluster_result = extract_features(granules, config.cluster)
    parts = chrono_split(features, config.split)
    train_end = len(parts[0])
    val_end = train_end + len(parts[1])
    return granules, features, cluster_result, parts, (train_end, val_end)


def train_models(train_set: SupervisedSet, config: RunConfig, kinds=KINDS) -> dict[str, object]:
    """One model per kind of ``kinds``, in order. A bad set (empty, unknown
    or repeated kinds) or a lag below cnn_gru's kernel fails before any fit."""
    if not kinds or len(set(kinds)) < len(kinds) or not set(kinds) <= set(KINDS):
        raise ValueError(f"learner set {kinds!r} must name distinct learners of {KINDS}")
    lag, kernel = train_set.lag, CnnGruRegressor.conv_kernel
    if "cnn_gru" in kinds and lag < kernel:
        raise SequenceTooShort(f"lag {lag} is shorter than cnn_gru's kernel of {kernel} records")
    return {kind: fit_learner(kind, train_set, config.learners[kind]) for kind in kinds}


def fit_forecaster(
    train_set: SupervisedSet, calib_set: SupervisedSet, config: RunConfig, kinds=KINDS
) -> tuple[Forecaster, PredictionPanel]:
    """The ``kinds`` learners trained on ``train_set``, their weights searched
    on their ``calib_set`` panel (no search for one learner), and that panel."""
    models = train_models(train_set, config, kinds)
    calib_panel = predict_panel(models, calib_set)
    weight_fit = fit_weights(calib_panel, config.optimizer) if len(models) > 1 else None
    weights = np.ones(1) if weight_fit is None else weight_fit.chosen
    residuals = calib_panel.actuals - combine(calib_panel, weights)
    return Forecaster(models, weight_fit, weights, residuals), calib_panel


def run_forecast(values: np.ndarray, config: RunConfig, kinds=KINDS) -> ForecastRun:
    """Full pipeline on one series with the ``kinds`` learners; the
    intervals come from the validation residuals of their combination."""
    _, _, _, parts, bounds = extract_and_split(values, config)
    train_set, val_set, test_set = (make_supervised(part, config.lag) for part in parts)
    if len(val_set) < MIN_RESIDUALS:  # the intervals need them; fail before any training
        raise TooFewResiduals(f"need at least {MIN_RESIDUALS} residuals, got {len(val_set)}")
    forecaster, val_panel = fit_forecaster(train_set, val_set, config, kinds)
    test_panel = forecaster.panel(test_set)
    offsets = fit_intervals(forecaster.residuals, config.levels)
    point, intervals = forecast(test_panel, forecaster.weights, offsets)
    return ForecastRun(
        forecaster=forecaster,
        val_panel=val_panel,
        test_panel=test_panel,
        offsets=offsets,
        point=point,
        intervals=intervals,
        test_record_indices=bounds[1] + test_set.target_indices,
    )


# --- five-fold harness ------------------------------------------------------


@dataclass(frozen=True)
class FoldScore:
    fold: int
    test_record_indices: np.ndarray
    scores: PointScores


def _samples_inside(data: SupervisedSet, mask: np.ndarray) -> SupervisedSet:
    """The samples of ``data`` whose input and target rows all lie where the
    feature-row ``mask`` is True, so none straddles a held-out fold."""
    keep = np.flatnonzero(sliding_window_view(mask, data.lag + 1).all(axis=1))
    if not keep.size:
        raise TooFewRecords(f"a fold leaves no {data.lag + 1} consecutive records; use fewer folds")
    return data.take(keep)


def run_cv(values: np.ndarray, config: RunConfig, k: int = 5) -> list[FoldScore]:
    """Contiguous k-fold evaluation of the full train + weight-fit + combine
    path; each fold's scores use only its own held-out feature rows."""
    _, features, _, _, _ = extract_and_split(values, config)
    data = make_supervised(features, config.lag)
    folds = []
    for fold_index, test_idx in enumerate(kfold_split(features, k)):
        test_mask = np.isin(np.arange(len(features)), test_idx)
        train_set = _samples_inside(data, ~test_mask)
        test_set = _samples_inside(data, test_mask)
        cut = int(0.75 * len(train_set))
        inner_train, inner_val = train_set.take(slice(cut)), train_set.take(slice(cut, None))
        fold_salt = 1000 * (fold_index + 1)
        fold_config = dataclasses.replace(
            config,
            learners={
                kind: dataclasses.replace(cfg, rng_seed=cfg.rng_seed + fold_salt)
                for kind, cfg in config.learners.items()
            },
            optimizer=dataclasses.replace(
                config.optimizer, rng_seed=config.optimizer.rng_seed + fold_salt
            ),
        )
        forecaster, _ = fit_forecaster(inner_train, inner_val, fold_config)
        test_panel = forecaster.panel(test_set)
        scores = point_scores(test_panel.actuals, combine(test_panel, forecaster.weights))
        folds.append(FoldScore(fold_index, np.asarray(test_idx, dtype=np.int64), scores))
    return folds
