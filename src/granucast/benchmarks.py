"""ZDT benchmark problems and Pareto-front quality metrics.

Used to validate the optimizer against fronts that are known in closed
form: zdt1 (convex), zdt2 (concave), zdt3 (disconnected).
"""

from __future__ import annotations

import numpy as np

from .errors import GranucastError
from .sunflower import EmptyArchive


class OutOfDomain(GranucastError):
    pass


def zdt_evaluate(which: int, v: np.ndarray) -> np.ndarray:
    """Evaluate one of the three benchmark functions on [0, 1]^dim.

    ``v`` holds one decision vector per row, (n, dim); the result holds
    (f1, f2) per row, (n, 2).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] < 2:
        raise OutOfDomain("need an (n, dim) matrix of decision vectors with dim >= 2")
    outside = ((v < 0.0) | (v > 1.0)).any(axis=1)
    if outside.any():
        raise OutOfDomain(f"decision vector outside [0, 1]^dim: {v[outside][0]}")
    p1 = v[:, 0]
    g = 1.0 + 9.0 / (v.shape[1] - 1) * v[:, 1:].sum(axis=1)
    ratio = p1 / g
    if which == 1:
        h = 1.0 - np.sqrt(ratio)
    elif which == 2:
        h = 1.0 - ratio**2
    elif which == 3:
        h = 1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * p1)
    else:
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    return np.column_stack([p1, g * h])


def zdt1_front(samples: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, samples)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def zdt2_front(samples: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, samples)
    return np.column_stack([f1, 1.0 - f1**2])


def zdt3_front(samples: int, resolution: int = 100_001) -> np.ndarray:
    """Non-dominated part of the disconnected zdt3 curve.

    The curve is swept densely in f1; with f1 strictly increasing a point
    is non-dominated exactly when its f2 beats every earlier one, so a
    strict prefix-minimum filter recovers the front segments.
    """
    f1 = np.linspace(0.0, 1.0, resolution)
    f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    keep = np.empty(resolution, dtype=bool)
    keep[0] = True
    keep[1:] = f2[1:] < np.minimum.accumulate(f2)[:-1]
    points = np.column_stack([f1[keep], f2[keep]])
    picks = np.round(np.linspace(0, len(points) - 1, samples)).astype(int)
    return points[picks]


def front_quality(objectives, reference: np.ndarray) -> tuple[float, float]:
    """(inverted generational distance, spacing) of a front vs a reference.

    ``objectives`` holds one objective vector per row, such as
    ``ParetoArchive.objectives``. IGD averages, over reference points, the
    distance to the closest front row; spacing is the standard deviation of
    front-internal nearest-neighbor distances (0 for a single row).
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    if objectives.size == 0:
        raise EmptyArchive("cannot score an empty archive")
    reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    cross = np.linalg.norm(reference[:, None, :] - objectives[None, :, :], axis=2)
    igd = float(cross.min(axis=1).mean())
    if len(objectives) < 2:
        return igd, 0.0
    inner = np.linalg.norm(objectives[:, None, :] - objectives[None, :, :], axis=2)
    np.fill_diagonal(inner, np.inf)
    return igd, float(inner.min(axis=1).std())
