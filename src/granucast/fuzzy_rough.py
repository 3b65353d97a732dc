"""Fuzzy-rough C-means over granule triples.

Soft memberships follow the inverse-squared-distance rule of fuzzy C-means.
On top of that, each point is assigned to concentric regions around its
nearest center: an inner shell (distance within (1 + INNER_MARGIN) of the
nearest-center distance) and an outer ring (within (1 + OUTER_MARGIN)).
Centers move to a blend of inner-shell and outer-ring means, the outer ring
weighted by OUTER_WEIGHT, which keeps tight members dominant while letting
fringe members pull a little.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GranucastError, require_int

logger = logging.getLogger(__name__)

# column of the granule peak in an extract_features row
PEAK_COLUMN = -2

# region thresholds relative to a point's nearest-center distance, and the
# outer ring's share of a center update
INNER_MARGIN = 0.3
OUTER_MARGIN = 0.7
OUTER_WEIGHT = 0.5


class TooFewGranules(GranucastError):
    pass


@dataclass(frozen=True)
class ClusterConfig:
    cluster_count: int = 3
    max_iters: int = 100
    tol: float = 1e-6  # a fraction of the granule entries' range

    def __post_init__(self):
        require_int("cluster_count", self.cluster_count, 1)
        require_int("max_iters", self.max_iters, 1)
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass(frozen=True)
class ClusterResult:
    centers: np.ndarray
    memberships: np.ndarray
    iterations: int
    converged: bool
    center_trace: tuple[np.ndarray, ...] = ()


def init_centers(points: np.ndarray, cluster_count: int) -> np.ndarray:
    """Seed centers from component-wise order statistics of the points.

    Three clusters get (min, mean, max) rows so they span the cloud along
    every component; other counts fall back to evenly spaced quantiles.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) < cluster_count:
        raise TooFewGranules(f"need at least {cluster_count} granules, got {len(points)}")
    if cluster_count == 1:
        return points.mean(axis=0, keepdims=True)
    if cluster_count == 3:
        return np.stack([points.min(axis=0), points.mean(axis=0), points.max(axis=0)])
    levels = np.linspace(0.0, 1.0, cluster_count)
    return np.quantile(points, levels, axis=0)


def _distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape (clusters, points)."""
    deltas = centers[:, None, :] - points[None, :, :]
    return np.sqrt((deltas**2).sum(axis=2))


def membership_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Inverse-squared-distance memberships, shape (clusters, points).

    Each column sums to 1. A point coinciding with a center belongs fully to
    the first such center.
    """
    d = _distances(points, centers)
    singular = d == 0.0
    with np.errstate(divide="ignore"):
        inv_sq = 1.0 / d**2
    u = np.zeros_like(d)
    regular_cols = ~singular.any(axis=0)
    if regular_cols.any():
        inv = inv_sq[:, regular_cols]
        u[:, regular_cols] = inv / inv.sum(axis=0, keepdims=True)
    for col in np.nonzero(~regular_cols)[0]:
        u[np.argmax(singular[:, col]), col] = 1.0
    return u


def region_masks(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify every (cluster, point) pair into inner shell / outer ring.

    Returns the ``(inner, outer)`` boolean masks, shaped like ``distances``;
    they never overlap.

    Thresholds scale with the point's nearest-center distance delta:
    inner iff distance <= (1 + INNER_MARGIN) * delta, outer iff it falls
    between that and (1 + OUTER_MARGIN) * delta. A point sitting exactly on
    a center (delta = 0) is inner for its nearest center only.
    """
    delta = distances.min(axis=0)
    chi_inner = (1.0 + INNER_MARGIN) * delta
    chi_outer = (1.0 + OUTER_MARGIN) * delta
    inner = distances <= chi_inner[None, :]
    outer = (distances > chi_inner[None, :]) & (distances <= chi_outer[None, :])
    on_center = delta == 0.0
    if on_center.any():
        cols = np.nonzero(on_center)[0]
        inner[:, cols] = False
        outer[:, cols] = False
        inner[np.argmin(distances[:, cols], axis=0), cols] = True
    return inner, outer


def update_centers(
    points: np.ndarray,
    inner: np.ndarray,
    outer: np.ndarray,
    previous: np.ndarray,
) -> np.ndarray:
    """Blend inner-shell and outer-ring member means into new centers, the
    outer ring at weight ``OUTER_WEIGHT``.

    An empty region substitutes the previous center at that region's weight,
    so the map stays total; a center with no members at all does not move.
    """
    w = OUTER_WEIGHT
    updated = previous.copy()
    for j in range(len(previous)):
        inner_pts = points[inner[j]]
        outer_pts = points[outer[j]]
        if len(inner_pts) and len(outer_pts):
            updated[j] = (1.0 - w) * inner_pts.mean(axis=0) + w * outer_pts.mean(axis=0)
        elif len(inner_pts):
            updated[j] = (1.0 - w) * inner_pts.mean(axis=0) + w * previous[j]
        elif len(outer_pts):
            updated[j] = w * outer_pts.mean(axis=0) + (1.0 - w) * previous[j]
    return updated


def extract_features(
    granules: np.ndarray,
    config: ClusterConfig = ClusterConfig(),
    record_trace: bool = False,
) -> tuple[np.ndarray, ClusterResult]:
    """Cluster the ``(n, 3)`` granule rows and return one feature row per window.

    Region / center-update sweeps run until the largest center move is at
    most ``config.tol`` times the range (max - min) of the granule entries,
    so the stop does not depend on the unit, or ``config.max_iters`` times;
    ``record_trace`` keeps the centers after every sweep.

    The feature matrix has shape ``(n, k + 3)`` for k clusters: row i holds
    window i's k converged memberships, then its granule's low, peak and up
    (so the peak is column ``PEAK_COLUMN``).
    """
    points = np.asarray(granules, dtype=np.float64)
    centers = init_centers(points, config.cluster_count)
    span = points.max() - points.min()
    threshold = config.tol * span
    center_trace: list[np.ndarray] = []
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        inner, outer = region_masks(_distances(points, centers))
        new_centers = update_centers(points, inner, outer, centers)
        displacement = np.abs(new_centers - centers).max()
        centers = new_centers
        if record_trace:
            center_trace.append(centers.copy())
        # a constant input's centers sit on it after one sweep, up to the
        # rounding of a mean of equal values, which no relative tol can absorb
        if displacement <= threshold or span == 0.0:
            converged = True
            break
    if not converged:
        logger.warning(
            "clustering did not converge in %d iterations (last displacement above %g)",
            config.max_iters,
            threshold,
        )
    memberships = membership_matrix(points, centers)
    result = ClusterResult(centers, memberships, iterations, converged, tuple(center_trace))
    return np.column_stack([memberships.T, points]), result
