"""Weighted combination of the four learners plus prediction intervals.

Weights live in the box [-2, 2]^4 (no sum-to-one constraint, so negative
and non-affine combinations are allowed) and are searched by the
multi-objective optimizer under (MAPE, MSE) on a validation panel. The
returned front is reduced to a single compromise: the member closest to
the ideal point after per-objective min-max normalization.

Intervals come from validation-residual empirical quantiles applied
additively to the point forecast (split-conformal style).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GranucastError
from .evaluation import LengthMismatch, mape_excluding_small, mse
from .learners import KINDS
from .sunflower import (
    Bounds,
    OptimizationProblem,
    OptimizerConfig,
    ParetoArchive,
    SunflowerOptimizer,
)

WEIGHT_LOW = -2.0
WEIGHT_HIGH = 2.0

_TIE_TOL = 1e-12

DEFAULT_LEVELS = (0.95, 0.85)


class TooFewResiduals(GranucastError):
    pass


@dataclass(frozen=True)
class PredictionPanel:
    """Per-learner predictions over a common sample index, plus actuals."""

    matrix: np.ndarray
    actuals: np.ndarray

    def __post_init__(self):
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        actuals = np.asarray(self.actuals, dtype=np.float64)
        if matrix.shape[0] != len(KINDS):
            raise LengthMismatch(
                f"panel has {matrix.shape[0]} prediction rows for {len(KINDS)} learners"
            )
        if matrix.shape[1] != len(actuals):
            raise LengthMismatch(
                f"{matrix.shape[1]} predictions per learner vs {len(actuals)} actuals"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "actuals", actuals)

    def __len__(self) -> int:
        return len(self.actuals)


def combine(panel: PredictionPanel, weights) -> np.ndarray:
    """Linear combination sum_k w_k * predictions_k."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (panel.matrix.shape[0],):
        raise LengthMismatch(
            f"weight vector has shape {w.shape}, panel expects ({panel.matrix.shape[0]},)"
        )
    return w @ panel.matrix


def ensemble_objectives(weights, panel: PredictionPanel) -> tuple[float, float]:
    """(MAPE, MSE) of the combined prediction, both to be minimized."""
    combined = combine(panel, weights)
    mape_value, _ = mape_excluding_small(panel.actuals, combined)
    return mape_value, mse(panel.actuals, combined)


@dataclass(frozen=True)
class WeightFit:
    archive: ParetoArchive
    chosen: np.ndarray
    chosen_objectives: tuple[float, float]
    excluded_from_mape: int


def select_compromise(archive: ParetoArchive) -> int:
    """Index of the archive member nearest the ideal point.

    Objectives are min-max normalized over the archive first; distance
    ties (within 1e-12) break to the lower first objective, then the
    lower archive index.
    """
    objectives = archive.objectives
    mins = objectives.min(axis=0)
    span = objectives.max(axis=0) - mins
    span[span == 0.0] = 1.0
    normalized = (objectives - mins) / span
    distance = np.sqrt((normalized**2).sum(axis=1))
    best = 0
    for i in range(1, len(distance)):
        if distance[i] < distance[best] - _TIE_TOL:
            best = i
        elif abs(distance[i] - distance[best]) <= _TIE_TOL:
            if objectives[i, 0] < objectives[best, 0] - _TIE_TOL:
                best = i
    return best


def baseline_candidates(learner_count: int) -> np.ndarray:
    """The obvious weight vectors: each single learner, plus the average."""
    candidates = np.eye(learner_count)
    return np.vstack([candidates, np.full(learner_count, 1.0 / learner_count)])


def fit_weights(panel: PredictionPanel, config: OptimizerConfig = OptimizerConfig()) -> WeightFit:
    """Search the weight box for the (MAPE, MSE) front and pick a compromise.

    The unit weight vectors and the plain average are offered to the
    archive after the search, so the chosen combination is never dominated
    by a single learner on the fitting data.
    """
    _, excluded = mape_excluding_small(panel.actuals, panel.actuals)
    k = panel.matrix.shape[0]
    problem = OptimizationProblem(
        evaluate=lambda w: np.array(ensemble_objectives(w, panel)),
        bounds=Bounds.cube(WEIGHT_LOW, WEIGHT_HIGH, k),
    )
    archive = SunflowerOptimizer(problem, config).run()
    for candidate in baseline_candidates(k):
        archive.insert(candidate, np.array(ensemble_objectives(candidate, panel)))
    pick = select_compromise(archive)
    mape_value, mse_value = archive.objectives[pick]
    return WeightFit(
        archive=archive,
        chosen=archive.positions[pick].copy(),
        chosen_objectives=(float(mape_value), float(mse_value)),
        excluded_from_mape=excluded,
    )


@dataclass(frozen=True)
class IntervalModel:
    """Residual-quantile offsets per confidence level."""

    offsets: dict[float, tuple[float, float]]

    def __post_init__(self):
        for level, (lo, up) in self.offsets.items():
            if not 0.0 < level < 1.0:
                raise ValueError(f"level must lie in (0, 1), got {level}")
            if lo > up:
                raise ValueError(f"lower offset {lo} above upper offset {up} at level {level}")


def fit_intervals(residuals, levels: tuple[float, ...] = DEFAULT_LEVELS) -> IntervalModel:
    """Empirical residual quantiles (linear interpolation between order
    statistics) at alpha/2 and 1 - alpha/2 per level."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if len(residuals) < 20:
        raise TooFewResiduals(f"need at least 20 residuals, got {len(residuals)}")
    offsets = {}
    for level in levels:
        alpha = 1.0 - level
        lo = float(np.quantile(residuals, alpha / 2.0))
        up = float(np.quantile(residuals, 1.0 - alpha / 2.0))
        offsets[level] = (lo, up)
    return IntervalModel(offsets=offsets)


@dataclass(frozen=True)
class ForecastBundle:
    point: np.ndarray
    intervals: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def forecast(panel: PredictionPanel, weights, interval_model: IntervalModel) -> ForecastBundle:
    """Combined point forecast with residual-offset intervals per level."""
    point = combine(panel, weights)
    intervals = {
        level: (point + lo, point + up)
        for level, (lo, up) in interval_model.offsets.items()
    }
    return ForecastBundle(point=point, intervals=intervals)
