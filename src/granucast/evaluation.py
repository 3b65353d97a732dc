"""Forecast scoring: point metrics, interval metrics, and comparison tests.

Point metrics cover the usual battery (MAPE, MSE, MAE, RMSE, NMSE, Theil's
U1, Willmott's index of agreement, R²) with NMSE normalized by the centered
actual sum of squares so that r2 + nmse = 1 holds exactly. MAPE, here and
in the weight search, skips actuals below ``MAPE_CUTOFF``. Interval metrics
are coverage (PICP), range-normalized width (PINAW) and the
range-normalized mean Winkler score (AIS, lower is better).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GranucastError

logger = logging.getLogger(__name__)

# two-sided 5% normal critical value, fixed to six decimals for
# cross-implementation agreement
Z_CRITICAL = 1.959964

# MAPE is undefined at a zero actual, and a real feed reads 0 m/s in calm
# spells, so actuals below this magnitude are skipped
MAPE_CUTOFF = 1e-8


class LengthMismatch(GranucastError):
    pass


class ZeroActual(GranucastError):
    pass


class ZeroVariance(GranucastError):
    pass


class CrossedBounds(GranucastError):
    pass


class ZeroRange(GranucastError):
    pass


class TooShort(GranucastError):
    pass


class ZeroDenominator(GranucastError):
    pass


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise LengthMismatch(f"need equal-length vectors, got {a.shape} and {p.shape}")
    if len(a) == 0:
        raise LengthMismatch("need at least one sample")
    return a, p


@dataclass(frozen=True)
class PointScores:
    mape: float
    mse: float
    mae: float
    rmse: float
    nmse: float
    u1: float
    ia: float
    r2: float

    COLUMNS = ("MAPE", "MSE", "MAE", "RMSE", "NMSE", "U1", "IA", "R2")

    def as_row(self) -> tuple[float, ...]:
        return (self.mape, self.mse, self.mae, self.rmse, self.nmse, self.u1, self.ia, self.r2)


def mape(actual, predicted) -> float:
    """Mean absolute percentage error over the actuals of magnitude at
    least ``MAPE_CUTOFF``; warns with the count of the others, and raises
    ``ZeroActual`` only when none is left."""
    a, p = _paired(actual, predicted)
    keep = np.abs(a) >= MAPE_CUTOFF
    if not keep.any():
        raise ZeroActual(f"MAPE undefined: all {len(a)} actuals lie below {MAPE_CUTOFF:g}")
    if not keep.all():
        logger.warning("MAPE skips %d of %d actuals below %g", (~keep).sum(), len(a), MAPE_CUTOFF)
    return float(100.0 * np.mean(np.abs(a[keep] - p[keep]) / np.abs(a[keep])))


def mse(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.mean((a - p) ** 2))


def point_scores(actual, predicted) -> PointScores:
    a, p = _paired(actual, predicted)
    err_sq = float(((a - p) ** 2).sum())
    centered = float(((a - a.mean()) ** 2).sum())
    if centered == 0.0:
        raise ZeroVariance("NMSE and R2 need non-constant actuals")
    mse_value = err_sq / len(a)
    rmse = math.sqrt(mse_value)
    nmse = err_sq / centered
    ia_denominator = float(((np.abs(p - a.mean()) + np.abs(a - a.mean())) ** 2).sum())
    return PointScores(
        mape=mape(a, p),
        mse=mse_value,
        mae=float(np.mean(np.abs(a - p))),
        rmse=rmse,
        nmse=nmse,
        u1=rmse / (math.sqrt(float(np.mean(a**2))) + math.sqrt(float(np.mean(p**2)))),
        ia=1.0 - err_sq / ia_denominator,
        r2=1.0 - nmse,
    )


@dataclass(frozen=True)
class IntervalScores:
    picp: float
    pinaw: float
    ais: float


def interval_scores(
    actual, lower, upper, level: float, value_range: float | None = None
) -> IntervalScores:
    """Coverage, normalized width, and Winkler score of one interval family.

    ``value_range`` defaults to max(actual) - min(actual); pass it
    explicitly for single-sample or constant-actual edge cases.
    """
    a = np.asarray(actual, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    up = np.asarray(upper, dtype=np.float64)
    if not (a.shape == lo.shape == up.shape) or a.ndim != 1 or len(a) == 0:
        raise LengthMismatch("actual, lower and upper must be equal-length vectors")
    if np.any(lo > up):
        raise CrossedBounds("every lower bound must be <= its upper bound")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if value_range is None:
        value_range = float(a.max() - a.min())
    if value_range <= 0.0:
        raise ZeroRange("actual range is zero; pass value_range explicitly")
    alpha = 1.0 - level
    inside = (lo <= a) & (a <= up)
    width = up - lo
    penalty = (2.0 / alpha) * (
        np.where(a < lo, lo - a, 0.0) + np.where(a > up, a - up, 0.0)
    )
    n = len(a)
    return IntervalScores(
        picp=float(inside.mean()),
        pinaw=float(width.sum() / (n * value_range)),
        ais=float((width + penalty).sum() / (n * value_range)),
    )


@dataclass(frozen=True)
class DmResult:
    statistic: float
    reject: bool


def dm_test(errors_a, errors_b) -> DmResult:
    """Equal-accuracy test on the squared-loss differential.

    The statistic studentizes the mean differential with the sample
    variance; rejection is two-sided at the 5% level. A zero-variance
    differential yields statistic 0 (no rejection) when the mean is zero,
    otherwise a signed infinity sentinel with rejection.
    """
    a, b = _paired(errors_a, errors_b)
    n = len(a)
    if n < 10:
        raise TooShort(f"need at least 10 paired errors, got {n}")
    d = a**2 - b**2
    d_mean = float(d.mean())
    d_var = float(d.var(ddof=1))
    if d_var == 0.0:
        if d_mean == 0.0:
            return DmResult(statistic=0.0, reject=False)
        return DmResult(statistic=math.copysign(math.inf, d_mean), reject=True)
    statistic = d_mean / math.sqrt(d_var / n)
    return DmResult(statistic=statistic, reject=abs(statistic) > Z_CRITICAL)


def iri(mape_system: float, mape_other: float) -> float:
    """Relative MAPE gap between the system and a comparator, in percent."""
    if mape_system <= 0.0:
        raise ZeroDenominator(f"system MAPE must be > 0, got {mape_system}")
    return abs((mape_system - mape_other) / mape_system) * 100.0
