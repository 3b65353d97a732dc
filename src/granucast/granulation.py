"""Triangular fuzzy granules over fixed-size windows.

Each window collapses to a granule (low, peak, up) = (min, mean, max) of
the window's values: the support and apex of a triangular fuzzy number.
"""

from __future__ import annotations

import numpy as np

from .errors import GranucastError
from .timeseries import SeriesTooShort


class InvalidGranule(GranucastError):
    pass


def granulate_series(values: np.ndarray, window_size: int) -> np.ndarray:
    """Granulate ``floor(n / window_size)`` non-overlapping windows of ``values``.

    The trailing remainder shorter than one window is dropped. Returns an
    ``(windows, 3)`` array whose row i is (min, mean, max) of window i, as
    (low, peak, up). The float mean of a constant window can round one ulp
    outside [min, max] (three readings of 1.9 average to
    1.8999999999999997), so it is clamped into that range; a mean already
    inside it is unchanged.
    """
    if window_size < 2:
        raise ValueError(f"window_size must be >= 2, got {window_size}")
    n = len(values)
    if n < window_size:
        raise SeriesTooShort(f"series length {n} < window size {window_size}")
    count = n // window_size
    windows = np.asarray(values[: count * window_size], dtype=np.float64).reshape(
        count, window_size
    )
    nan_rows = np.isnan(windows).any(axis=1)
    if nan_rows.any():
        raise InvalidGranule(f"window {int(np.argmax(nan_rows))} contains NaN")
    low, up, mean = windows.min(axis=1), windows.max(axis=1), windows.mean(axis=1)
    # not np.clip, which would turn the 0.0 mean of a window of -0.0
    # readings into -0.0
    peak = np.where(mean < low, low, np.where(mean > up, up, mean))
    return np.column_stack([low, peak, up])
