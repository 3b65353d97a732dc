"""Triangular fuzzy granules over fixed-size windows.

Each window collapses to a granule (low, peak, up) = (min, mean, max) of
the window's values. The granule's membership function is the usual
triangle: rising from low to the peak, falling from peak to up, zero
outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GranucastError
from .timeseries import Series, SeriesTooShort


class InvalidGranule(GranucastError):
    pass


@dataclass(frozen=True)
class Granule:
    """Triangular fuzzy number summarising one window."""

    low: float
    peak: float
    up: float

    def __post_init__(self):
        if not self.low <= self.peak <= self.up:
            raise InvalidGranule(
                f"need low <= peak <= up, got ({self.low}, {self.peak}, {self.up})"
            )

    def membership(self, x: float) -> float:
        """Degree to which x belongs to the granule, in [0, 1].

        Degenerate cases: a collapsed segment (low == peak or peak == up)
        has membership 1 on the segment it collapsed to, so a point granule
        accepts exactly its own value.
        """
        if x < self.low or x > self.up:
            return 0.0
        if x <= self.peak:
            if self.peak == self.low:
                return 1.0
            return (x - self.low) / (self.peak - self.low)
        if self.up == self.peak:
            return 1.0
        return (self.up - x) / (self.up - self.peak)

    @property
    def width(self) -> float:
        return self.up - self.low

    def as_array(self) -> np.ndarray:
        return np.array([self.low, self.peak, self.up], dtype=np.float64)


def granulate_window(values: np.ndarray) -> Granule:
    """Summarise one window as (min, mean, max).

    The float mean of a constant window can round one ulp outside
    [min, max] (three readings of 1.9 average to 1.8999999999999997), so it
    is clamped into that range; a mean already inside it is unchanged.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidGranule("cannot granulate an empty window")
    if np.isnan(values).any():
        raise InvalidGranule("window contains NaN")
    low, up = float(values.min()), float(values.max())
    return Granule(low=low, peak=min(max(float(values.mean()), low), up), up=up)


def granulate_series(series: Series, window_size: int) -> np.ndarray:
    """Granulate ``floor(n / window_size)`` non-overlapping windows of the series.

    The trailing remainder shorter than one window is dropped. Returns an
    ``(windows, 3)`` array whose row i is ``granulate_window`` of window i,
    as (low, peak, up), with the mean clamped the same way.
    """
    if window_size < 2:
        raise ValueError(f"window_size must be >= 2, got {window_size}")
    n = len(series)
    if n < window_size:
        raise SeriesTooShort(f"series length {n} < window size {window_size}")
    count = n // window_size
    windows = np.asarray(series.values[: count * window_size], dtype=np.float64).reshape(
        count, window_size
    )
    nan_rows = np.isnan(windows).any(axis=1)
    if nan_rows.any():
        raise InvalidGranule(f"window {int(np.argmax(nan_rows))} contains NaN")
    low, up, mean = windows.min(axis=1), windows.max(axis=1), windows.mean(axis=1)
    # the clamp of granulate_window; np.clip would turn the 0.0 mean of a
    # window of -0.0 readings into -0.0
    peak = np.where(mean < low, low, np.where(mean > up, up, mean))
    return np.column_stack([low, peak, up])
