"""Weighted combination of a run's k learners plus prediction intervals.

Weights live in the box [-2, 2]^k (no sum-to-one constraint, so negative
and non-affine combinations are allowed) and are searched by the
multi-objective optimizer under (MAPE, MSE) on a validation panel. The
returned front is reduced to a single compromise: the member closest to
the ideal point after per-objective min-max normalization.

Intervals come from validation-residual empirical quantiles applied
additively to the point forecast (split-conformal style).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GranucastError
from .evaluation import MAPE_CUTOFF, LengthMismatch, ZeroActual
from .sunflower import OptimizerConfig, ParetoArchive, SunflowerOptimizer

WEIGHT_LOW = -2.0
WEIGHT_HIGH = 2.0

_TIE_TOL = 1e-12

DEFAULT_LEVELS = (0.95, 0.85)
MIN_RESIDUALS = 20  # fewest validation residuals the interval quantiles take


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


def ensemble_objectives(weights, panel: PredictionPanel) -> np.ndarray:
    """(MAPE, MSE) of each weight row's combined prediction, both to be
    minimized: an (n, k) weight matrix gives an (n, 2) objective matrix.

    Each row equals ``mape`` and ``mse`` of ``combine(panel, w)`` to the
    last bit, but logs no skipped actual (``fit_weights`` counts them). One
    GEMV per row (one GEMM for all rows rounds differently) and contiguous
    rows for the row means (``compress``, not a fancy index, which returns
    them column-major) keep the bits.
    """
    weights = np.asarray(weights, dtype=np.float64)
    learners = panel.matrix.shape[0]
    if weights.ndim != 2 or weights.shape[1] != learners:
        raise LengthMismatch(
            f"weight matrix has shape {weights.shape}, panel expects (n, {learners})"
        )
    combined = np.empty((len(weights), len(panel)))
    for row, w in zip(combined, weights):
        np.matmul(w, panel.matrix, out=row)
    actuals = panel.actuals
    keep = np.abs(actuals) >= MAPE_CUTOFF
    if not keep.any():
        raise ZeroActual("all actuals below the MAPE cutoff")
    kept = actuals[keep]
    mape_values = 100.0 * np.mean(
        np.abs(kept - combined.compress(keep, axis=1)) / np.abs(kept), axis=1
    )
    return np.column_stack([mape_values, np.mean((actuals - combined) ** 2, axis=1)])


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
    k = panel.matrix.shape[0]
    archive = SunflowerOptimizer(
        lambda w: ensemble_objectives(w, panel), k, WEIGHT_LOW, WEIGHT_HIGH, config
    ).run()
    candidates = baseline_candidates(k)
    archive.insert_many(candidates, ensemble_objectives(candidates, panel))
    pick = select_compromise(archive)
    mape_value, mse_value = archive.objectives[pick]
    return WeightFit(
        archive=archive,
        chosen=archive.positions[pick].copy(),
        chosen_objectives=(float(mape_value), float(mse_value)),
        excluded_from_mape=int((np.abs(panel.actuals) < MAPE_CUTOFF).sum()),
    )


def fit_intervals(
    residuals, levels: tuple[float, ...] = DEFAULT_LEVELS
) -> dict[float, tuple[float, float]]:
    """Additive offsets ``{level: (lo, up)}``: the empirical residual
    quantiles (linear interpolation between order statistics) at alpha/2
    and 1 - alpha/2 per level."""
    residuals = np.asarray(residuals, dtype=np.float64)
    if len(residuals) < MIN_RESIDUALS:
        raise TooFewResiduals(f"need at least {MIN_RESIDUALS} residuals, got {len(residuals)}")
    offsets = {}
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {level}")
        alpha = 1.0 - level
        lo = float(np.quantile(residuals, alpha / 2.0))
        up = float(np.quantile(residuals, 1.0 - alpha / 2.0))
        offsets[level] = (lo, up)
    return offsets


def forecast(
    panel: PredictionPanel, weights, offsets: dict[float, tuple[float, float]]
) -> tuple[np.ndarray, dict[float, tuple[np.ndarray, np.ndarray]]]:
    """Combined point forecast and its ``{level: (lower, upper)}`` bounds."""
    point = combine(panel, weights)
    return point, {level: (point + lo, point + up) for level, (lo, up) in offsets.items()}
