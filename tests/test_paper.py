"""One test per checkable clause of the paper's abstract (PAPER.md), on the
shipped desk preset (``desk_runs``), the shared small run or a hand-made
case. A clause the code does not meet yet is a strict xfail that names the
ROADMAP item meant to make it hold. The "multiframe" forecast (item 10)
and the "dynamically adjust[ed]" weights (item 12) get tests once those
items define an interface."""

import numpy as np
import pytest

from granucast.ensemble import combine
from granucast.evaluation import mape, mse
from granucast.fuzzy_rough import INNER_MARGIN, OUTER_MARGIN, _distances, region_masks


def test_granules_are_triangular(desk_runs):
    """"a triangular affiliation function": each window's granule
    (low, peak, up) has low <= peak <= up."""
    for run in desk_runs.values():
        low, peak, up = run.granules.T
        assert (low <= peak).all() and (peak <= up).all()


def test_soft_clustering_builds_an_affiliation_matrix(desk_runs):
    """"soft clustering ... constructing an affiliation matrix": every
    membership lies in [0, 1], and each point's memberships sum to 1."""
    for run in desk_runs.values():
        u = run.cluster.memberships
        assert u.shape == (len(run.cluster.centers), len(run.granules))
        assert ((u >= 0.0) & (u <= 1.0)).all()
        np.testing.assert_allclose(u.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


def test_a_region_compares_each_center_distance_with_the_nearest(desk_runs):
    """"interclass and intraclass distances": a (center, point) pair's region
    follows from the point's distance to that center against its distance
    to the nearest center, and from nothing else."""
    # one point, four centers: the nearest, one at each region's outer edge
    # (the edges belong to the region), and one beyond both
    distances = np.array([[1.0], [1.0 + INNER_MARGIN], [1.0 + OUTER_MARGIN], [2.0 + OUTER_MARGIN]])
    inner, boundary = region_masks(distances)
    assert inner.ravel().tolist() == [True, True, False, False]
    assert boundary.ravel().tolist() == [False, False, True, False]
    for run in desk_runs.values():
        d = _distances(run.granules, run.cluster.centers)
        inner, boundary = region_masks(d)
        assert inner[d.argmin(axis=0), np.arange(d.shape[1])].all()
        # scaling each point's distances by a power of two is exact, and
        # keeps every ratio to the nearest distance
        scaled = region_masks(d * 2.0 ** (np.arange(d.shape[1]) % 9 - 4))
        assert (scaled[0] == inner).all() and (scaled[1] == boundary).all()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_every_center_has_inner_and_boundary_members(desk_runs):
    """"introduces the concepts of inner and boundary domains": at the final
    centers each one has both. On every desk seed one center's boundary
    domain is empty."""
    for run in desk_runs.values():
        inner, boundary = region_masks(_distances(run.granules, run.cluster.centers))
        assert inner.any(axis=1).all() and boundary.any(axis=1).all()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_centers_are_updated_from_the_membership_matrix(desk_runs):
    """"updates the cluster centers using the membership matrix": the final
    centers are a fixed point of fuzzy C-means' membership-weighted update
    (m = 2), to a thousandth of the granule range. ``update_centers`` reads
    only the hard region masks, and the desk runs miss by about 1%."""
    for run in desk_runs.values():
        weights = run.cluster.memberships**2
        update = (weights @ run.granules) / weights.sum(axis=1, keepdims=True)
        span = run.granules.max() - run.granules.min()
        assert np.abs(update - run.cluster.centers).max() <= 1e-3 * span


def test_the_weight_search_keeps_mape_and_mse_points(forecast_run):
    """"a dual objective function to ensure the accuracy and stability": the
    weight search's archive holds each member's (MAPE, MSE) on the panel
    it was fit on, and no member dominates another."""
    archive = forecast_run.forecaster.weight_fit.archive
    panel = forecast_run.val_panel
    assert archive.objectives.shape == (len(archive), 2)
    for weights, objectives in zip(archive.positions, archive.objectives):
        combined = combine(panel, weights)
        assert objectives.tolist() == [mape(panel.actuals, combined), mse(panel.actuals, combined)]
    assert archive.is_sound()
