import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granucast.fuzzy_rough import (
    PEAK_COLUMN,
    ClusterConfig,
    TooFewGranules,
    extract_features,
    init_centers,
    membership_matrix,
    region_masks,
    update_centers,
    _distances,
)
from granucast.granulation import granulate_series


def granule_cloud(rng, centers, per_cluster, sigma):
    """Ordered (low, peak, up) points scattered around the given centers."""
    points = []
    for c in centers:
        noise = rng.normal(0.0, sigma, size=(per_cluster, 3))
        pts = np.sort(np.asarray(c) + noise, axis=1)
        points.append(pts)
    return np.concatenate(points)


class TestInitCenters:
    def test_three_centers_span_components(self):
        points = np.array([[1, 2, 3], [3, 4, 5], [5, 6, 7]], dtype=np.float64)
        centers = init_centers(points, 3)
        assert centers.tolist() == [[1, 2, 3], [3, 4, 5], [5, 6, 7]]

    def test_repeated_granule_collapses_centers(self):
        points = np.array([[2, 3, 4]] * 5, dtype=np.float64)
        centers = init_centers(points, 3)
        assert np.array_equal(centers, np.array([[2, 3, 4]] * 3))

    def test_too_few_points(self):
        with pytest.raises(TooFewGranules):
            init_centers(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float64), 3)


class TestMembership:
    def test_equidistant_point_splits_evenly(self):
        centers = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        u = membership_matrix(np.zeros(3)[None, :], centers)[:, 0]
        assert u == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_coincident_point_is_crisp(self):
        centers = np.array([[0.0, 0, 0], [1.0, 1, 1], [2.0, 2, 2]])
        u = membership_matrix(np.array([1.0, 1, 1])[None, :], centers)[:, 0]
        assert u.tolist() == [0.0, 1.0, 0.0]

    def test_distances_one_two_two(self):
        centers = np.array([[1.0, 0, 0], [0.0, 2, 0], [0.0, 0, 2]])
        u = membership_matrix(np.zeros(3)[None, :], centers)[:, 0]
        assert u == pytest.approx([2 / 3, 1 / 6, 1 / 6])

    def test_coincident_tie_goes_to_first_center(self):
        centers = np.array([[1.0, 1, 1], [1.0, 1, 1], [0.0, 0, 0]])
        u = membership_matrix(np.array([1.0, 1, 1])[None, :], centers)[:, 0]
        assert u.tolist() == [1.0, 0.0, 0.0]

    @given(data=st.data())
    def test_columns_sum_to_one(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        points = rng.uniform(-5, 5, size=(data.draw(st.integers(1, 20)), 3))
        centers = rng.uniform(-5, 5, size=(3, 3))
        if data.draw(st.booleans()):
            points[0] = centers[1]  # force a singular column
        u = membership_matrix(points, centers)
        assert np.allclose(u.sum(axis=0), 1.0, atol=1e-9)
        assert (u >= 0).all() and (u <= 1).all()


class TestRegionMasks:
    def masks_for(self, distances):
        return region_masks(np.asarray(distances, dtype=np.float64)[:, None])

    def test_two_inner_one_boundary(self):
        inner, outer = self.masks_for([1.0, 1.2, 2.0])
        assert inner[:, 0].tolist() == [True, True, False]
        assert outer[:, 0].tolist() == [False, False, False]

    def test_one_inner_one_outer_one_excluded(self):
        inner, outer = self.masks_for([1.0, 1.5, 3.0])
        assert inner[:, 0].tolist() == [True, False, False]
        assert outer[:, 0].tolist() == [False, True, False]

    def test_on_center_point_is_inner_for_nearest_only(self):
        inner, outer = self.masks_for([0.0, 5.0, 5.0])
        assert inner[:, 0].tolist() == [True, False, False]
        assert outer[:, 0].tolist() == [False, False, False]

    @given(data=st.data())
    def test_nearest_center_always_inner_and_regions_disjoint(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        distances = rng.uniform(0, 4, size=(3, 12))
        inner, outer = region_masks(distances)
        assert inner[np.argmin(distances, axis=0), np.arange(12)].all()
        assert not (inner & outer).any()


class TestUpdateCenters:
    def test_inner_only_blends_with_previous(self):
        points = np.array([[1.0, 1, 1], [3.0, 3, 3]])
        inner, outer = region_masks(np.array([[0.1, 0.1]]))
        previous = np.array([[10.0, 10, 10]])
        updated = update_centers(points, inner, outer, previous)
        assert updated[0] == pytest.approx(0.5 * np.array([2.0, 2, 2]) + 0.5 * previous[0])

    def test_mixed_regions_blend_region_means(self):
        points = np.array([[0.0, 0, 0], [2.0, 2, 2], [4.0, 4, 4]])
        inner = np.array([[True, True, False]])
        outer = np.array([[False, False, True]])
        updated = update_centers(points, inner, outer, np.array([[9.0, 9, 9]]))
        assert updated[0].tolist() == [2.5, 2.5, 2.5]

    def test_memberless_center_stays_put(self):
        points = np.array([[1.0, 1, 1]])
        inner = np.array([[True], [False]])
        outer = np.array([[False], [False]])
        previous = np.array([[0.0, 0, 0], [7.0, 7, 7]])
        updated = update_centers(points, inner, outer, previous)
        assert updated[1].tolist() == [7.0, 7.0, 7.0]


class TestFit:
    def test_well_separated_clusters_recovered(self):
        rng = np.random.default_rng(0)
        true_centers = np.array([[0.0, 1.0, 2.0], [5.0, 6.0, 7.0], [10.0, 11.0, 12.0]])
        separation = np.linalg.norm(true_centers[1] - true_centers[0])
        points = granule_cloud(rng, true_centers, per_cluster=40, sigma=0.05 * separation)
        result = extract_features(points, ClusterConfig())[1]
        assert result.converged
        # greedy-match converged centers to the nearest true center
        for center in result.centers:
            err = np.linalg.norm(true_centers - center, axis=1).min()
            assert err < 0.05 * separation

    def test_identical_granules_converge_immediately(self):
        points = np.array([[2.0, 3, 4]] * 6)
        result = extract_features(points, ClusterConfig())[1]
        assert result.converged and result.iterations == 1
        assert result.memberships.sum(axis=0) == pytest.approx(np.ones(6))
        assert (result.memberships.argmax(axis=0) == 0).all()

    @pytest.mark.parametrize("value", [2.0, 31.848084366072715])
    def test_constant_input_converges_at_the_first_sweep(self, value):
        # the float mean of seven copies of the second value is not exactly
        # that value, so the centers move by one ulp on a range of 0
        points = np.full((7, 3), value)
        result = extract_features(points, ClusterConfig())[1]
        assert result.converged and result.iterations == 1

    def test_tol_above_every_displacement_stops_after_one_iteration(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(10, 3))
        points.sort(axis=1)
        result = extract_features(points, ClusterConfig(tol=1e300))[1]
        assert result.iterations == 1 and result.converged

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": np.inf},
            {"tol": -1.0},
            {"tol": 0.0},
            {"tol": np.nan},
            {"cluster_count": 0},
            {"max_iters": 2.5},
            {"cluster_count": True},
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            ClusterConfig(**bad)

    def test_membership_columns_sum_to_one_every_iteration(self):
        rng = np.random.default_rng(2)
        points = granule_cloud(
            rng, [[0.0, 0.5, 1.0], [4.0, 4.5, 5.0], [9.0, 9.5, 10.0]], 20, 0.3
        )
        result = extract_features(points, ClusterConfig(), record_trace=True)[1]
        assert len(result.center_trace) >= 1
        for centers in result.center_trace:
            u = membership_matrix(points, centers)
            assert np.allclose(u.sum(axis=0), 1.0, atol=1e-9)

    def test_trace_lengths_match_iterations(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 2, size=(12, 3))
        points.sort(axis=1)
        result = extract_features(points, ClusterConfig(max_iters=7), record_trace=True)[1]
        assert len(result.center_trace) == result.iterations

    @settings(max_examples=10)
    @given(seed=st.integers(0, 1000), scale=st.floats(0.1, 20))
    def test_scale_equivariance(self, seed, scale):
        # `tol` is relative to the data's range, so the same tol must stop
        # the scaled fit at the same sweep.
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 3, size=(15, 3))
        points.sort(axis=1)
        config = ClusterConfig(max_iters=20, tol=1e-6)
        base = extract_features(points, config)[1]
        scaled = extract_features(points * scale, config)[1]
        assert (scaled.iterations, scaled.converged) == (base.iterations, base.converged)
        assert np.allclose(scaled.centers, base.centers * scale, rtol=1e-8, atol=1e-10)
        assert np.allclose(scaled.memberships, base.memberships, atol=1e-9)


class TestExtractFeatures:
    def make_granules(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        values = np.repeat(rng.uniform(2, 10, n), 4) + rng.normal(0, 0.2, 4 * n)
        return granulate_series(values, window_size=4)

    def test_record_vector_layout(self):
        granules = self.make_granules()
        features, result = extract_features(granules)
        assert features.shape == (len(granules), 6)
        assert features[5, :3] == pytest.approx(result.memberships[:, 5])
        assert features[5, 3:] == pytest.approx(granules[5])
        np.testing.assert_array_equal(features[:, PEAK_COLUMN], granules[:, 1])

    def test_nearest_cluster_is_argmax_membership(self):
        granules = self.make_granules(seed=4)
        features, result = extract_features(granules)
        nearest = np.argmin(_distances(granules, result.centers), axis=0)
        np.testing.assert_array_equal(np.argmax(features[:, :3], axis=1), nearest)

    def test_permutation_equivariance(self):
        granules = self.make_granules(seed=7)
        features, _ = extract_features(granules)
        perm = np.random.default_rng(0).permutation(len(granules))
        p_features, _ = extract_features(granules[perm])
        for new_pos, old_pos in enumerate(perm):
            assert p_features[new_pos, :3] == pytest.approx(features[old_pos, :3], abs=1e-9)

    def test_too_few_granules(self):
        with pytest.raises(TooFewGranules):
            extract_features(np.array([[1.0, 2.0, 3.0]]))


def test_distance_matrix_shape_and_values():
    points = np.array([[0.0, 0, 0], [3.0, 4, 0]])
    centers = np.array([[0.0, 0, 0]])
    d = _distances(points, centers)
    assert d.shape == (1, 2)
    assert d[0].tolist() == [0.0, 5.0]
