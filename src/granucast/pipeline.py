"""End-to-end orchestration: granules -> features -> learners -> ensemble.

The feature rows are split chronologically (train/validation/test) and
each split builds its own lagged supervised set, so a split's first ``lag``
rows serve only as history. Learners train on the train split, ensemble
weights and interval offsets come from the validation split, and all
reported scores are test-split only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .ensemble import (
    ForecastBundle,
    IntervalModel,
    PredictionPanel,
    WeightFit,
    combine,
    fit_intervals,
    fit_weights,
    forecast,
)
from .evaluation import PointScores, point_scores
from .fuzzy_rough import ClusterResult, extract_features
from .granulation import granulate_series
from .learners import KINDS, SupervisedSet, fit_learner, make_supervised
from .timeseries import Series, chrono_split, kfold_split


@dataclass
class ForecastRun:
    granules: np.ndarray
    features: np.ndarray
    cluster_result: ClusterResult
    split_bounds: tuple[int, int]
    models: dict[str, object]
    val_set: SupervisedSet
    test_set: SupervisedSet
    val_panel: PredictionPanel
    test_panel: PredictionPanel
    weight_fit: WeightFit | None
    interval_model: IntervalModel
    bundle: ForecastBundle
    test_scores: PointScores
    test_record_indices: np.ndarray


def _panel(models: dict[str, object], data: SupervisedSet) -> PredictionPanel:
    matrix = np.stack([models[kind].predict(data.inputs) for kind in KINDS])
    return PredictionPanel(matrix=matrix, actuals=data.targets)


def extract_and_split(
    series: Series, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, ClusterResult, tuple, tuple[int, int]]:
    """Granules, feature rows, the clustering, the train/validation/test
    feature parts and the (train_end, val_end) row bounds."""
    granules = granulate_series(series, config.window_size)
    features, cluster_result = extract_features(granules, config.cluster)
    parts = chrono_split(features, config.split)
    train_end = len(parts[0])
    val_end = train_end + len(parts[1])
    return granules, features, cluster_result, parts, (train_end, val_end)


def train_models(train_set: SupervisedSet, config: RunConfig) -> dict[str, object]:
    return {kind: fit_learner(kind, train_set, config.learners[kind]) for kind in KINDS}


def run_forecast(series: Series, config: RunConfig, solo: str | None = None) -> ForecastRun:
    """Full pipeline on one series; ``solo`` names one learner whose
    predictions stand alone (a one-hot weight vector, no weight search),
    with intervals from its own validation residuals."""
    granules, features, cluster_result, parts, bounds = extract_and_split(series, config)
    train_set, val_set, test_set = (make_supervised(part, config.lag) for part in parts)
    models = train_models(train_set, config)
    val_panel = _panel(models, val_set)
    test_panel = _panel(models, test_set)

    if solo is None:
        weight_fit = fit_weights(val_panel, config.optimizer)
        weights = weight_fit.chosen
    else:
        if solo not in KINDS:
            raise ValueError(f"unknown learner {solo!r}, expected one of {KINDS}")
        weight_fit = None
        weights = np.eye(len(KINDS))[KINDS.index(solo)]
    interval_model = fit_intervals(val_set.targets - combine(val_panel, weights), config.levels)
    bundle = forecast(test_panel, weights, interval_model)

    return ForecastRun(
        granules=granules,
        features=features,
        cluster_result=cluster_result,
        split_bounds=bounds,
        models=models,
        val_set=val_set,
        test_set=test_set,
        val_panel=val_panel,
        test_panel=test_panel,
        weight_fit=weight_fit,
        interval_model=interval_model,
        bundle=bundle,
        test_scores=point_scores(test_set.targets, bundle.point),
        test_record_indices=bounds[1] + test_set.target_indices,
    )


# --- five-fold harness ------------------------------------------------------


@dataclass(frozen=True)
class FoldScore:
    fold: int
    test_record_indices: np.ndarray
    scores: PointScores


@dataclass(frozen=True)
class CvReport:
    folds: list[FoldScore]

    @property
    def columns(self) -> tuple[str, ...]:
        return PointScores.COLUMNS


def _contiguous_runs(indices: np.ndarray) -> list[tuple[int, int]]:
    runs = []
    start = int(indices[0])
    previous = start
    for idx in indices[1:]:
        idx = int(idx)
        if idx != previous + 1:
            runs.append((start, previous + 1))
            start = idx
        previous = idx
    runs.append((start, previous + 1))
    return runs


def _supervised_from_runs(
    features: np.ndarray, runs: list[tuple[int, int]], lag: int
) -> SupervisedSet:
    """The lagged samples whose input and target rows all lie inside one
    contiguous run of feature rows, in row order.

    Samples never straddle a run boundary, so no input window mixes rows
    from both sides of a held-out fold.
    """
    rows = np.concatenate([np.arange(start, stop - lag) for start, stop in runs])
    if not rows.size:
        raise ValueError("no contiguous run long enough for the configured lag")
    return make_supervised(features, lag).take(rows)


def run_cv(series: Series, config: RunConfig, k: int = 5) -> CvReport:
    """Contiguous k-fold evaluation of the full train + weight-fit + combine
    path; each fold's scores use only its own held-out feature rows."""
    _, features, _, _, _ = extract_and_split(series, config)
    folds = []
    for fold_index, (train_idx, test_idx) in enumerate(kfold_split(features, k)):
        train_set = _supervised_from_runs(features, _contiguous_runs(train_idx), config.lag)
        test_set = _supervised_from_runs(features, _contiguous_runs(test_idx), config.lag)
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
        models = train_models(inner_train, fold_config)
        weight_fit = fit_weights(_panel(models, inner_val), fold_config.optimizer)
        test_panel = _panel(models, test_set)
        combined = combine(test_panel, weight_fit.chosen)
        folds.append(
            FoldScore(
                fold=fold_index,
                test_record_indices=np.asarray(test_idx, dtype=np.int64),
                scores=point_scores(test_set.targets, combined),
            )
        )
    return CvReport(folds=folds)
