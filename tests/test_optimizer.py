"""Optimizer tests: tent chain arithmetic, dominance and archive rules,
the optimization loop's determinism and bound handling, benchmark
objective values and front-quality metrics."""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from granucast.benchmarks import (
    OutOfDomain,
    front_quality,
    zdt1_front,
    zdt2_front,
    zdt3_front,
    zdt_evaluate,
)
from granucast.sunflower import (
    TENT_APEX,
    EmptyArchive,
    InvalidSeed,
    NonFiniteObjective,
    OptimizerConfig,
    ParetoArchive,
    SunflowerOptimizer,
    TentChain,
    _row_norms,
    dominates,
    tent_positions,
)


def run_zdt(which, dim, config):
    """Optimize one ZDT problem over its box [0, 1]^dim."""
    return SunflowerOptimizer(lambda v: zdt_evaluate(which, v), dim, 0.0, 1.0, config).run()


def digest(*arrays) -> str:
    """SHA-256 of the arrays' float64 bytes, one after the other."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestTentChain:
    def test_single_step_values(self):
        assert TentChain(0.35).draw(1)[0] == pytest.approx(0.5, abs=1e-15)
        assert TentChain(0.84).draw(1)[0] == pytest.approx(0.5333333333333333, abs=1e-12)

    def test_chained_steps(self):
        out = TentChain(0.35).draw(2)
        assert out[0] == pytest.approx(0.5, abs=1e-15)
        assert out[1] == pytest.approx(0.5 / 0.7, abs=1e-12)

    def test_seed_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(InvalidSeed):
                TentChain(bad)

    def test_fixed_point_escape(self):
        # seeding at the apex maps straight onto 1.0, which would freeze
        # the chain without the nudge
        out = TentChain(TENT_APEX).draw(50)
        assert np.all((out > 0.0) & (out < 1.0))
        assert len(np.unique(out)) > 40

    def test_interior_fixed_point_escape(self):
        fixed = 1.0 / (2.0 - TENT_APEX)
        out = TentChain(fixed).draw(50)
        assert np.all((out > 0.0) & (out < 1.0))
        assert len(np.unique(out)) > 40

    def test_iterates_fill_the_interval_evenly(self):
        draws = TentChain(1.0 / np.pi).draw(10_000)
        counts, _ = np.histogram(draws, bins=10, range=(0.0, 1.0))
        share = counts / len(draws)
        assert np.all(share >= 0.05) and np.all(share <= 0.2)

    def test_draw_continues_where_it_stopped(self):
        whole = TentChain(0.3).draw(10)
        chain = TentChain(0.3)
        split = np.concatenate([chain.draw(4), chain.draw(6)])
        np.testing.assert_array_equal(whole, split)


class TestDominance:
    def test_trivial_cases(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert not dominates((1.0, 2.0), (2.0, 1.0))
        assert not dominates((2.0, 2.0), (1.0, 1.0))

    def test_broadcasts_over_rows(self):
        rows = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        np.testing.assert_array_equal(dominates(rows, (1.5, 2.0)), [True, False, False])
        np.testing.assert_array_equal(dominates((1.0, 2.0), rows), [False, True, True])
        pairwise = dominates(rows[:, None], rows[None, :])
        np.testing.assert_array_equal(
            pairwise, [[False, True, True], [False, False, False], [False, False, False]]
        )

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteObjective):
            dominates((np.nan, 1.0), (2.0, 2.0))
        with pytest.raises(NonFiniteObjective):
            dominates((1.0, 1.0), (np.inf, 2.0))


class TestBounds:
    def test_validation(self):
        # an empty box (low >= high) is rejected
        for low, high in ((1.0, 1.0), (2.0, -2.0)):
            with pytest.raises(ValueError):
                SunflowerOptimizer(lambda v: v, 4, low, high)


class TestParetoArchive:
    def test_insert_rules(self):
        archive = ParetoArchive()
        assert archive.insert([0.0], (1.0, 1.0))
        assert not archive.insert([1.0], (2.0, 2.0))
        assert archive.insert([2.0], (0.5, 2.0))
        assert len(archive) == 2
        # a dominating candidate sweeps out everything it beats
        assert archive.insert([3.0], (0.5, 0.5))
        assert len(archive) == 1
        np.testing.assert_array_equal(archive.objectives, [[0.5, 0.5]])

    def test_duplicate_handling(self):
        archive = ParetoArchive()
        archive.insert([1.0, 2.0], (1.0, 1.0))
        assert not archive.insert([1.0, 2.0], (1.0, 1.0))
        assert archive.insert([9.0, 9.0], (1.0, 1.0))
        assert len(archive) == 2

    def test_capacity_enforced(self):
        archive = ParetoArchive(capacity=5, rng=np.random.default_rng(0))
        f1 = np.linspace(0.0, 1.0, 10)
        for v in f1:
            archive.insert([v], (v, 1.0 - v))
        assert len(archive) == 5
        assert archive.is_sound()

    def test_eviction_hits_the_most_crowded_cell(self):
        archive = ParetoArchive(capacity=3, grid_divisions=2, rng=np.random.default_rng(0))
        archive.insert([0.0], (0.00, 1.00))
        archive.insert([1.0], (0.01, 0.99))
        archive.insert([2.0], (1.00, 0.00))
        archive.insert([3.0], (0.02, 0.98))
        assert len(archive) == 3
        survivors = [tuple(row) for row in archive.objectives]
        assert (1.0, 0.0) in survivors

    def test_guide_from_empty_archive(self):
        with pytest.raises(EmptyArchive):
            ParetoArchive().select_guide()

    def test_guide_is_a_member(self):
        archive = ParetoArchive(rng=np.random.default_rng(1))
        for v in np.linspace(0.0, 1.0, 7):
            archive.insert([v], (v, 1.0 - v))
        guide = archive.select_guide()
        assert isinstance(guide, int) and 0 <= guide < len(archive)

    def test_soundness_flags_planted_violation(self):
        archive = ParetoArchive()
        archive.insert([0.0], (1.0, 1.0))
        assert archive.is_sound()
        archive.positions = np.vstack([archive.positions, [1.0]])
        archive.objectives = np.vstack([archive.objectives, [2.0, 2.0]])
        assert not archive.is_sound()

    def test_non_finite_candidate_rejected(self):
        with pytest.raises(NonFiniteObjective):
            ParetoArchive().insert([0.0], (np.nan, 1.0))
        with pytest.raises(NonFiniteObjective):
            ParetoArchive().insert_many([[0.0], [1.0]], [(0.0, 1.0), (np.inf, 1.0)])

    def test_guide_roulette_cannot_run_past_the_last_cell(self):
        """Six equally crowded cells give a cumulative sum ending at
        1 - 2**-53; a draw of exactly that must pick the last cell."""

        class TopDraw:
            def __init__(self):
                self.inner = np.random.default_rng(0)

            def random(self):
                return np.nextafter(1.0, 0.0)

            def integers(self, *args):
                return self.inner.integers(*args)

        archive = ParetoArchive(grid_divisions=6, rng=TopDraw())
        for v in range(6):
            archive.insert([float(v)], (float(v), 5.0 - v))
        _, counts = archive._cells()
        weights = 1.0 / counts
        assert np.cumsum(weights / weights.sum())[-1] == np.nextafter(1.0, 0.0)
        assert archive.select_guide() == 5


class ListArchive:
    """Reference archive: members as a list of (position, objectives) pairs,
    grid cells counted with tuple keys. ``select_guide`` returns the
    member's list index."""

    def __init__(self, capacity, grid_divisions, rng):
        self.capacity = capacity
        self.grid_divisions = grid_divisions
        self.rng = rng
        self.members = []

    def insert(self, position, objectives):
        obj = np.asarray(objectives, dtype=np.float64).copy()
        pos = np.asarray(position, dtype=np.float64).copy()
        if self.members:
            mat = np.stack([m[1] for m in self.members])
            if (np.all(mat <= obj, axis=1) & np.any(mat < obj, axis=1)).any():
                return False
            for row in np.nonzero(np.all(mat == obj, axis=1))[0]:
                if np.array_equal(self.members[row][0], pos):
                    return False
            beaten = np.all(obj <= mat, axis=1) & np.any(obj < mat, axis=1)
            self.members = [m for m, out in zip(self.members, beaten) if not out]
        self.members.append((pos, obj))
        if len(self.members) > self.capacity:
            keys = self._cell_keys()
            counts = Counter(keys)
            peak = max(counts.values())
            crowded = min(key for key, n in counts.items() if n == peak)
            pool = [i for i, key in enumerate(keys) if key == crowded]
            del self.members[pool[self.rng.integers(len(pool))]]
        return True

    def _cell_keys(self):
        mat = np.stack([m[1] for m in self.members])
        mins = mat.min(axis=0)
        span = mat.max(axis=0) - mins
        span[span == 0.0] = 1.0
        idx = np.floor((mat - mins) / span * self.grid_divisions).astype(int)
        idx = np.clip(idx, 0, self.grid_divisions - 1)
        return [tuple(row) for row in idx]

    def select_guide(self):
        keys = self._cell_keys()
        counts = Counter(keys)
        cells = sorted(counts)
        weights = np.array([1.0 / counts[c] for c in cells])
        cumulative = np.cumsum(weights / weights.sum())
        drawn = int(np.searchsorted(cumulative, self.rng.random(), side="right"))
        winner = cells[min(drawn, len(cells) - 1)]
        pool = [i for i, key in enumerate(keys) if key == winner]
        return pool[self.rng.integers(len(pool))]


class TestArchiveMatchesReference:
    def test_random_insert_sequences(self):
        """Lattice objectives on an anti-diagonal with small offsets give
        duplicates, dominated candidates, tied cells and evictions."""
        for seed in range(60):
            draw = np.random.default_rng(seed)
            capacity = int(draw.integers(3, 21))
            grid = int(draw.integers(2, 5))
            archive = ParetoArchive(capacity, grid, np.random.default_rng(seed))
            reference = ListArchive(capacity, grid, np.random.default_rng(seed))
            for _ in range(150):
                k = int(draw.integers(0, 30))
                objectives = (float(k), float(30 - k + draw.integers(0, 3)))
                position = draw.integers(0, 3, size=2).astype(float)
                assert archive.insert(position, objectives) == reference.insert(
                    position, objectives
                )
                if draw.random() < 0.3:
                    assert archive.select_guide() == reference.select_guide()
                self.assert_same(archive, reference)

    @staticmethod
    def assert_same(archive, reference):
        np.testing.assert_array_equal(
            archive.positions, np.stack([m[0] for m in reference.members])
        )
        np.testing.assert_array_equal(
            archive.objectives, np.stack([m[1] for m in reference.members])
        )
        assert archive.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_random_batches(self):
        """Batches offered through ``insert_many`` end where one-by-one
        inserts into the reference end, evictions and rng state included."""
        for seed in range(60):
            draw = np.random.default_rng(seed)
            capacity = int(draw.integers(3, 21))
            grid = int(draw.integers(2, 5))
            archive = ParetoArchive(capacity, grid, np.random.default_rng(seed))
            reference = ListArchive(capacity, grid, np.random.default_rng(seed))
            for _ in range(40):
                size = int(draw.integers(1, 13))
                k = draw.integers(0, 30, size=size)
                objectives = np.column_stack([k, 30 - k + draw.integers(0, 3, size=size)])
                positions = draw.integers(0, 3, size=(size, 2)).astype(float)
                archive.insert_many(positions, objectives.astype(float))
                for row in zip(positions, objectives):
                    reference.insert(*row)
                if draw.random() < 0.3:
                    assert archive.select_guide() == reference.select_guide()
                self.assert_same(archive, reference)

    def test_screen_redone_after_an_eviction(self):
        """(1, 11) is dominated only by (0, 10). When (5, 5) enters a full
        archive and evicts (0, 10), the later (1, 11) must enter, as it
        does under one-by-one insertion."""
        late_entries = 0
        for seed in range(20):
            archive = ParetoArchive(2, 1, np.random.default_rng(seed))
            reference = ListArchive(2, 1, np.random.default_rng(seed))
            for target in (archive, reference):
                target.insert([0.0], (0.0, 10.0))
                target.insert([1.0], (10.0, 0.0))
            batch = np.array([[5.0, 5.0], [1.0, 11.0]])
            archive.insert_many([[2.0], [3.0]], batch)
            for position, objectives in zip([[2.0], [3.0]], batch):
                reference.insert(position, objectives)
            self.assert_same(archive, reference)
            late_entries += [1.0, 11.0] in archive.objectives.tolist()
        assert late_entries > 0


class TestOptimizerConfig:
    def test_validation(self):
        for bad in (
            {"population": 0},
            {"iterations": -1},
            {"population": 2.5},
            {"iterations": True},
            {"rng_seed": -1},
        ):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)


class TestOptimizationLoop:
    def test_deterministic_for_a_seed(self):
        config = OptimizerConfig(population=20, iterations=10, rng_seed=42)
        first = run_zdt(1, 3, config)
        second = run_zdt(1, 3, config)
        np.testing.assert_array_equal(first.objectives, second.objectives)
        np.testing.assert_array_equal(first.positions, second.positions)

    def test_zero_iterations_archives_the_seed_population(self):
        archive = run_zdt(1, 3, OptimizerConfig(population=15, iterations=0, rng_seed=0))
        assert 1 <= len(archive) <= 15
        assert archive.is_sound()

    def test_population_of_one(self):
        archive = run_zdt(1, 2, OptimizerConfig(population=1, iterations=5, rng_seed=0))
        assert len(archive) >= 1

    def test_positions_respect_bounds(self):
        # zdt raises OutOfDomain on any out-of-box evaluation, so merely
        # finishing proves the clamp; check the archive contents anyway
        archive = run_zdt(2, 4, OptimizerConfig(population=30, iterations=15, rng_seed=3))
        positions = archive.positions
        assert np.all(positions >= 0.0) and np.all(positions <= 1.0)

    def test_non_finite_objective_aborts(self):
        config = OptimizerConfig(population=5, iterations=1)
        optimizer = SunflowerOptimizer(
            lambda v: np.tile([np.nan, 0.0], (len(v), 1)), 2, 0.0, 1.0, config
        )
        with pytest.raises(NonFiniteObjective):
            optimizer.run()

    def test_non_finite_objective_names_the_first_bad_row(self):
        config = OptimizerConfig(population=6, iterations=0)
        optimizer = SunflowerOptimizer(
            lambda v: np.column_stack([v[:, 0], np.where(v[:, 0] > 0.5, np.inf, 0.0)]),
            2,
            0.0,
            1.0,
            config,
        )
        positions = tent_positions(TentChain(optimizer.tent.state), 6, 2, 0.0, 1.0)
        first_bad = positions[np.flatnonzero(positions[:, 0] > 0.5)[0]]
        with pytest.raises(NonFiniteObjective, match=re.escape(str(first_bad))):
            optimizer.run()

    def test_one_objective_call_per_sweep(self):
        shapes = []

        def objective(v):
            shapes.append(v.shape)
            return zdt_evaluate(1, v)

        config = OptimizerConfig(population=12, iterations=7, rng_seed=2)
        SunflowerOptimizer(objective, 3, 0.0, 1.0, config).run()
        assert shapes == [(12, 3)] * 8

    def test_objective_shape_checked(self):
        optimizer = SunflowerOptimizer(lambda v: np.zeros(len(v)), 2, 0.0, 1.0)
        with pytest.raises(ValueError, match="objective returned shape"):
            optimizer.run()

    def test_zdt_runs_match_recorded_digests(self):
        """Archives recorded with one objective call and one insert per
        candidate; sweeps and the dominance screen must not move a bit."""
        config = OptimizerConfig(population=50, iterations=40, rng_seed=9)
        recorded = {
            1: (33, "811569022a28b2cac78cd4b4a4c763f517b70a227774b6eb57ba71ce66101fb8"),
            3: (24, "92b577127b6fb39ec944444fc7ab1f6ad0e0ded78c992e4cc74a72e75c8feb52"),
        }
        for which, (size, expected) in recorded.items():
            archive = run_zdt(which, 4, config)
            assert len(archive) == size
            assert digest(archive.positions, archive.objectives) == expected

    def test_tent_positions_alignment(self):
        flat = TentChain(0.3).draw(6)
        positions = tent_positions(TentChain(0.3), 3, 2, -2.0, 2.0)
        np.testing.assert_allclose(positions, -2.0 + flat.reshape(3, 2) * 4.0, atol=1e-15)

    def test_converges_toward_the_known_front(self):
        archive = run_zdt(1, 3, OptimizerConfig(population=40, iterations=40, rng_seed=7))
        igd, spacing = front_quality(archive.objectives, zdt1_front(200))
        assert igd < 0.1
        assert spacing >= 0.0

    def test_row_norms_are_the_one_row_norms(self):
        rng = np.random.default_rng(6)
        for shape in ((1, 1), (100, 2), (100, 4), (37, 9)):
            rows = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)
            expected = np.array([np.linalg.norm(row) for row in rows])
            np.testing.assert_array_equal(
                _row_norms(rows).view(np.int64), expected.view(np.int64)
            )

    def test_default_step_scale(self):
        # 5% of the box diagonal: norm((4, 4, 4, 4)) = 8 for [-2, 2]^4
        assert SunflowerOptimizer(lambda w: w, 4, -2.0, 2.0).step_scale == pytest.approx(0.4)


class TestBenchmarkObjectives:
    def test_known_values(self):
        rows = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.25, 0.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 1.0],
            ]
        )
        values = zdt_evaluate(1, rows)
        assert values.shape == (4, 2)
        assert tuple(values[0]) == (0.0, 1.0)
        assert tuple(values[1]) == (1.0, 0.0)
        f1, f2 = values[2]
        assert (f1, f2) == (0.25, pytest.approx(0.5, abs=1e-15))
        assert tuple(values[3]) == (0.0, 10.0)
        f1, f2 = zdt_evaluate(2, np.array([[0.5, 0.0]]))[0]
        assert (f1, f2) == (0.5, pytest.approx(0.75, abs=1e-15))
        f1, f2 = zdt_evaluate(3, np.array([[0.5, 0.0]]))[0]
        assert f2 == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(OutOfDomain, match=r"\[1.5 0. \]"):
            zdt_evaluate(1, np.array([[0.5, 0.0], [1.5, 0.0]]))
        with pytest.raises(OutOfDomain):
            zdt_evaluate(1, np.array([[0.5]]))
        with pytest.raises(OutOfDomain):
            zdt_evaluate(1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            zdt_evaluate(4, np.array([[0.5, 0.5]]))

    def test_reference_fronts(self):
        np.testing.assert_allclose(
            zdt1_front(3), [[0.0, 1.0], [0.5, 1.0 - np.sqrt(0.5)], [1.0, 0.0]], atol=1e-15
        )
        np.testing.assert_allclose(
            zdt2_front(3), [[0.0, 1.0], [0.5, 0.75], [1.0, 0.0]], atol=1e-15
        )

    def test_disconnected_front_is_non_dominated(self):
        front = zdt3_front(120)
        assert len(front) == 120
        assert front[0, 0] == 0.0 and front[0, 1] == 1.0
        assert np.all(np.diff(front[:, 0]) > 0.0)
        assert np.all(np.diff(front[:, 1]) < 0.0)
        # strictly increasing f1 with strictly decreasing f2 means no pair
        # dominates; spot-check against the curve definition too
        f1 = front[:, 0]
        curve = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        np.testing.assert_allclose(front[:, 1], curve, atol=1e-12)


class TestFrontQuality:
    def test_perfect_match_scores_zero(self):
        reference = zdt1_front(50)
        igd, _ = front_quality(reference, reference)
        assert igd == 0.0

    def test_uniform_vertical_shift(self):
        reference = zdt1_front(100)
        shifted = reference + np.array([0.0, 0.01])
        igd, _ = front_quality(shifted, reference)
        assert igd == pytest.approx(0.01, abs=1e-12)

    def test_spacing_of_evenly_spread_points(self):
        _, spacing = front_quality(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), zdt1_front(10))
        assert spacing == 0.0

    def test_single_member_spacing_is_zero(self):
        _, spacing = front_quality(np.array([[0.3, 0.4]]), zdt1_front(10))
        assert spacing == 0.0

    def test_empty_archive_rejected(self):
        with pytest.raises(EmptyArchive):
            front_quality(ParetoArchive().objectives, zdt1_front(10))

    def test_accepts_archive_objects(self):
        archive = ParetoArchive()
        archive.insert([0.0], (0.0, 1.0))
        igd, spacing = front_quality(archive.objectives, np.array([[0.0, 1.0]]))
        assert igd == 0.0 and spacing == 0.0
