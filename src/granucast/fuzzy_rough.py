"""Fuzzy-rough C-means over granule triples.

Soft memberships follow the inverse-squared-distance rule of fuzzy C-means.
On top of that, each point is assigned to concentric regions around its
nearest center: an inner shell (distance within (1 + inner_margin) of the
nearest-center distance) and an outer ring (within (1 + outer_margin)).
Centers move to a weighted blend of inner-shell and outer-ring means, which
keeps tight members dominant while letting fringe members pull a little.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import GranucastError

logger = logging.getLogger(__name__)

# column of the granule peak in an extract_features row
PEAK_COLUMN = -2


class TooFewGranules(GranucastError):
    pass


@dataclass(frozen=True)
class ClusterConfig:
    cluster_count: int = 3
    inner_margin: float = 0.3
    outer_margin: float = 0.7
    outer_weight: float = 0.5
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if self.cluster_count < 1:
            raise ValueError(f"cluster_count must be >= 1, got {self.cluster_count}")
        if not 0.0 < self.inner_margin < self.outer_margin:
            raise ValueError(
                f"need 0 < inner_margin < outer_margin, got "
                f"({self.inner_margin}, {self.outer_margin})"
            )
        if not 0.0 <= self.outer_weight <= 1.0:
            raise ValueError(f"outer_weight must be in [0, 1], got {self.outer_weight}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class RegionMasks:
    """Per-(cluster, point) region flags; inner and outer never overlap."""

    inner: np.ndarray
    outer: np.ndarray


@dataclass(frozen=True)
class ClusterResult:
    centers: np.ndarray
    memberships: np.ndarray
    iterations: int
    converged: bool
    center_trace: tuple[np.ndarray, ...] = ()
    membership_trace: tuple[np.ndarray, ...] = ()


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


def region_masks(distances: np.ndarray, config: ClusterConfig) -> RegionMasks:
    """Classify every (cluster, point) pair into inner shell / outer ring.

    Thresholds scale with the point's nearest-center distance delta:
    inner iff distance <= (1 + inner_margin) * delta, outer iff it falls
    between that and (1 + outer_margin) * delta. A point sitting exactly on
    a center (delta = 0) is inner for its nearest center only.
    """
    delta = distances.min(axis=0)
    chi_inner = (1.0 + config.inner_margin) * delta
    chi_outer = (1.0 + config.outer_margin) * delta
    inner = distances <= chi_inner[None, :]
    outer = (distances > chi_inner[None, :]) & (distances <= chi_outer[None, :])
    on_center = delta == 0.0
    if on_center.any():
        cols = np.nonzero(on_center)[0]
        inner[:, cols] = False
        outer[:, cols] = False
        inner[np.argmin(distances[:, cols], axis=0), cols] = True
    return RegionMasks(inner=inner, outer=outer)


def update_centers(
    points: np.ndarray, masks: RegionMasks, previous: np.ndarray, outer_weight: float
) -> np.ndarray:
    """Blend inner-shell and outer-ring member means into new centers.

    An empty region substitutes the previous center at that region's weight,
    so the map stays total; a center with no members at all does not move.
    """
    w = outer_weight
    updated = previous.copy()
    for j in range(len(previous)):
        inner_pts = points[masks.inner[j]]
        outer_pts = points[masks.outer[j]]
        if len(inner_pts) and len(outer_pts):
            updated[j] = (1.0 - w) * inner_pts.mean(axis=0) + w * outer_pts.mean(axis=0)
        elif len(inner_pts):
            updated[j] = (1.0 - w) * inner_pts.mean(axis=0) + w * previous[j]
        elif len(outer_pts):
            updated[j] = w * outer_pts.mean(axis=0) + (1.0 - w) * previous[j]
    return updated


@dataclass
class FuzzyRoughCMeans:
    """Iterates membership / region / center-update sweeps to a fixed point."""

    config: ClusterConfig = field(default_factory=ClusterConfig)

    def fit(self, points: np.ndarray, record_trace: bool = False) -> ClusterResult:
        points = np.asarray(points, dtype=np.float64)
        cfg = self.config
        centers = init_centers(points, cfg.cluster_count)
        center_trace: list[np.ndarray] = []
        membership_trace: list[np.ndarray] = []
        converged = False
        iterations = 0
        for iterations in range(1, cfg.max_iters + 1):
            if record_trace:
                membership_trace.append(membership_matrix(points, centers))
            masks = region_masks(_distances(points, centers), cfg)
            new_centers = update_centers(points, masks, centers, cfg.outer_weight)
            displacement = np.abs(new_centers - centers).max()
            centers = new_centers
            if record_trace:
                center_trace.append(centers.copy())
            if displacement < cfg.tol:
                converged = True
                break
        if not converged:
            logger.warning(
                "clustering did not converge in %d iterations (last displacement above %g)",
                cfg.max_iters,
                cfg.tol,
            )
        return ClusterResult(
            centers=centers,
            memberships=membership_matrix(points, centers),
            iterations=iterations,
            converged=converged,
            center_trace=tuple(center_trace),
            membership_trace=tuple(membership_trace),
        )


def extract_features(
    granules: np.ndarray,
    config: ClusterConfig = ClusterConfig(),
    record_trace: bool = False,
) -> tuple[np.ndarray, ClusterResult]:
    """Cluster the ``(n, 3)`` granule rows and return one feature row per window.

    The feature matrix has shape ``(n, k + 3)`` for k clusters: row i holds
    window i's k converged memberships, then its granule's low, peak and up
    (so the peak is column ``PEAK_COLUMN``).
    """
    result = FuzzyRoughCMeans(config).fit(granules, record_trace=record_trace)
    return np.column_stack([result.memberships.T, granules]), result
