"""Sunflower-style multi-objective optimizer with a gridded Pareto archive.

The population moves toward a guide ("sun") drawn from the archive by a
roulette that favors sparsely populated grid cells. Step lengths follow an
inverse-square kernel of the distance to the neighboring individual, so the
swarm contracts as it clusters. A fraction of the population nearest the
guide takes pollination steps (midpoints with random archive members), the
farthest fraction is reseeded from the chaotic tent chain, and every moved
individual receives a heavy-tailed perturbation whose degrees of freedom
grow with the iteration count while its scale shrinks as 1/sqrt(t): wide
exploration early, fine refinement late.

The search works in whole sweeps. The objective maps an (n, dim) matrix of
positions to an (n, k) matrix of objective rows, so each sweep makes one
objective call, and ``ParetoArchive.insert_many`` offers the sweep to the
archive behind one broadcast dominance screen. The screen is exact: it only
rejects candidates that a current member dominates, and sequential
insertion rejects those too. Dominance is transitive, and between two
evictions a member leaves only when a candidate that dominates it enters,
so some member still dominates the candidate when its turn comes. An
eviction breaks that chain, so after every entry that leaves the archive
full (every eviction does) the rest of the sweep is screened again.
Rejected candidates draw nothing from the rng and change no state, so the
archive, its evictions and guide picks, and the rng stream are those of
one-by-one insertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GranucastError, require_int

# The fixed shape of the search: the shares of the population that pollinate
# (nearest the guide) and that are reseeded from the tent chain (farthest),
# the tent map's apex, and the default archive size and grid resolution.
POLLINATION_RATE = 0.1
MORTALITY_RATE = 0.1
TENT_APEX = 0.7
ARCHIVE_CAPACITY = 100
GRID_DIVISIONS = 30

_TENT_FIXED_POINTS = (0.0, 1.0 / (2.0 - TENT_APEX), 1.0)
_FIXED_POINT_TOL = 1e-12
_ESCAPE_NUDGE = 1e-6
_KERNEL_EPS = 1e-9


class InvalidSeed(GranucastError):
    pass


class NonFiniteObjective(GranucastError):
    pass


class EmptyArchive(GranucastError):
    pass


class TentChain:
    """Skewed tent map iterator over (0, 1) with fixed-point escape.

    The map, with its apex at ``TENT_APEX``, has a uniform invariant
    density, which is why it seeds populations more evenly than raw
    pseudo-random draws. Iterates landing (numerically) on {0, apex fixed
    point, 1} would freeze the chain, so they get nudged by 1e-6 and
    wrapped back into (0, 1).
    """

    def __init__(self, seed_value: float):
        if not 0.0 < seed_value < 1.0:
            raise InvalidSeed(f"seed_value must lie in (0, 1), got {seed_value}")
        self.state = float(seed_value)

    def draw(self, count: int) -> np.ndarray:
        out = np.empty(count)
        value = self.state
        for k in range(count):
            if value < TENT_APEX:
                value = value / TENT_APEX
            else:
                value = (1.0 - value) / (1.0 - TENT_APEX)
            if any(abs(value - fp) <= _FIXED_POINT_TOL for fp in _TENT_FIXED_POINTS):
                value += _ESCAPE_NUDGE
                if value >= 1.0:
                    value -= 1.0
            out[k] = value
        self.state = value
        return out


def dominates(a, b):
    """Pareto dominance for minimization: a no worse everywhere, better somewhere.

    Compares along the last axis and broadcasts over the others, so a row
    against a matrix (or a matrix against itself, via new axes) gives one
    flag per pair.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteObjective("objective vectors must be finite")
    return np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)


class ParetoArchive:
    """Bounded non-dominated store with grid-based crowding control.

    Members are the rows of ``positions`` (m, d) and ``objectives`` (m, k),
    in insertion order. The grid re-partitions the current objective
    ranges into equal cells; evictions remove a random member of the most
    crowded cell, and guide selection favors the least crowded ones.
    """

    def __init__(
        self,
        capacity: int = ARCHIVE_CAPACITY,
        grid_divisions: int = GRID_DIVISIONS,
        rng: np.random.Generator | None = None,
    ):
        if capacity < 1 or grid_divisions < 1:
            raise ValueError("capacity and grid_divisions must be >= 1")
        self.capacity = capacity
        self.grid_divisions = grid_divisions
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.positions = np.empty((0, 0))
        self.objectives = np.empty((0, 0))

    def __len__(self) -> int:
        return len(self.objectives)

    def insert(self, position, objectives) -> bool:
        """Offer a candidate; returns True when it enters the archive."""
        obj = np.asarray(objectives, dtype=np.float64)
        if not np.isfinite(obj).all():
            raise NonFiniteObjective("candidate objectives must be finite")
        pos = np.asarray(position, dtype=np.float64)
        if not len(self):
            self.positions, self.objectives = pos[None].copy(), obj[None].copy()
            return True
        if dominates(self.objectives, obj).any():
            return False
        same = np.all(self.objectives == obj, axis=1) & np.all(self.positions == pos, axis=1)
        if same.any():
            return False  # exact duplicate adds nothing
        keep = ~dominates(obj, self.objectives)
        self.positions = np.vstack([self.positions[keep], pos])
        self.objectives = np.vstack([self.objectives[keep], obj])
        if len(self) > self.capacity:
            self._evict()
        return True

    def insert_many(self, positions, objectives) -> None:
        """Offer candidate rows in order, with the same outcome as calling
        ``insert`` on each; candidates that a current member dominates are
        dropped by one broadcast screen instead of one insert each."""
        objectives = np.asarray(objectives, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        if not np.isfinite(objectives).all():
            raise NonFiniteObjective("candidate objectives must be finite")
        start = 0
        while start < len(objectives):
            open_rows = np.arange(start, len(objectives))
            if len(self):
                beaten = dominates(self.objectives[:, None], objectives[None, start:])
                open_rows = open_rows[~beaten.any(axis=0)]
            start = len(objectives)
            for row in open_rows:
                if self.insert(positions[row], objectives[row]) and len(self) == self.capacity:
                    # an eviction may have dropped the only member that
                    # dominated a later candidate: screen all later ones again
                    start = row + 1
                    break

    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Each member's cell number and each cell's occupancy; cells are
        numbered in lexicographic order of their grid coordinates."""
        mat = self.objectives
        mins = mat.min(axis=0)
        span = mat.max(axis=0) - mins
        span[span == 0.0] = 1.0
        idx = np.floor((mat - mins) / span * self.grid_divisions).astype(int)
        idx = np.clip(idx, 0, self.grid_divisions - 1)
        _, cell, counts = np.unique(idx, axis=0, return_inverse=True, return_counts=True)
        return cell.ravel(), counts

    def _pick_in_cell(self, cell: np.ndarray, winner: int) -> int:
        pool = np.flatnonzero(cell == winner)
        return int(pool[self.rng.integers(len(pool))])

    def _evict(self):
        cell, counts = self._cells()
        # argmax takes the first, i.e. lexicographically lowest, crowded cell
        row = self._pick_in_cell(cell, int(np.argmax(counts)))
        self.positions = np.delete(self.positions, row, axis=0)
        self.objectives = np.delete(self.objectives, row, axis=0)

    def select_guide(self) -> int:
        """Row of the guide: a roulette over grid cells weighted by
        1/occupancy, then a uniform pick inside the winning cell."""
        if not len(self):
            raise EmptyArchive("cannot select a guide from an empty archive")
        cell, counts = self._cells()
        weights = 1.0 / counts
        cumulative = np.cumsum(weights / weights.sum())
        winner = int(np.searchsorted(cumulative, self.rng.random(), side="right"))
        # the cumulative sum can end just below 1.0, so a draw can land past the last cell
        return self._pick_in_cell(cell, min(winner, len(counts) - 1))

    def is_sound(self) -> bool:
        """Exhaustive pairwise check that no member dominates another."""
        return not dominates(self.objectives[:, None], self.objectives[None, :]).any()


@dataclass(frozen=True)
class OptimizerConfig:
    population: int = 100
    iterations: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        require_int("population", self.population, 1)
        require_int("iterations", self.iterations, 0)
        require_int("rng_seed", self.rng_seed, 0)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, computed as ``np.linalg.norm`` computes
    it for one row, sqrt(dot(x, x)); ``norm(axis=1)`` rounds some rows
    differently."""
    return np.sqrt([row.dot(row) for row in rows])


def tent_positions(chain: TentChain, count: int, dim: int, low: float, high: float) -> np.ndarray:
    """Map ``count * dim`` chained tent iterates onto [low, high]^dim, row-major."""
    unit = chain.draw(count * dim).reshape(count, dim)
    return low + unit * (high - low)


class SunflowerOptimizer:
    """Minimizes the vector objective ``evaluate`` over the box
    [low, high]^dim; ``run`` returns the archive and is deterministic for a
    given seed.

    ``evaluate`` scores a whole population at once: it maps an (n, dim)
    matrix of positions to an (n, k) matrix whose row i holds the k
    objectives of position i.
    """

    def __init__(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        dim: int,
        low: float,
        high: float,
        config: OptimizerConfig = OptimizerConfig(),
    ):
        if not low < high:
            raise ValueError(f"need low < high, got [{low}, {high}]")
        self.evaluate = evaluate
        self.dim, self.low, self.high = dim, low, high
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)
        seed_value = float(self.rng.uniform(1e-9, 1.0 - 1e-9))
        self.tent = TentChain(seed_value)
        self.archive = ParetoArchive(rng=self.rng)
        self.step_scale = 0.05 * float(np.linalg.norm(np.full(dim, high - low)))

    def _evaluate(self, positions: np.ndarray) -> np.ndarray:
        """Objective rows for the position rows, from one objective call."""
        objectives = np.asarray(self.evaluate(positions), dtype=np.float64)
        if objectives.ndim != 2 or len(objectives) != len(positions):
            raise ValueError(
                f"objective returned shape {objectives.shape} for {len(positions)} positions"
            )
        finite = np.isfinite(objectives).all(axis=1)
        if not finite.all():
            raise NonFiniteObjective(
                "objective evaluation returned non-finite values at "
                f"{positions[np.argmin(finite)]}"
            )
        return objectives

    def run(self) -> ParetoArchive:
        cfg = self.config
        positions = tent_positions(self.tent, cfg.population, self.dim, self.low, self.high)
        objectives = self._evaluate(positions)
        self.archive.insert_many(positions, objectives)
        for t in range(1, cfg.iterations + 1):
            positions, objectives = self.step(positions, objectives, t)
        return self.archive

    def step(self, positions: np.ndarray, objectives: np.ndarray, t: int):
        """One synchronous sweep; t is the 1-based iteration index. Returns
        the moved positions and their objectives, both already offered to
        the archive."""
        count, dim = positions.shape
        guide = self.archive.select_guide()

        guide_distance = _row_norms(objectives - self.archive.objectives[guide])
        ranking = np.argsort(guide_distance, kind="stable")
        pollinator = np.zeros(count, dtype=bool)
        pollinator[ranking[: math.ceil(POLLINATION_RATE * count)]] = True
        farthest = ranking[::-1][~pollinator[ranking[::-1]]]
        mortal = np.zeros(count, dtype=bool)
        mortal[farthest[: math.ceil(MORTALITY_RATE * count)]] = True

        neighbor_distance = np.linalg.norm(positions - np.roll(positions, 1, axis=0), axis=1)
        kernel = 1.0 / (4.0 * np.pi * np.maximum(neighbor_distance, _KERNEL_EPS) ** 2)
        kernel_norm = kernel / kernel.max()
        # perturbation scale shrinks as 1/sqrt(t) so late sweeps refine
        noise_scale = self.step_scale / math.sqrt(t)

        # the draw order fixes the outputs: row by row, a partner before its noise
        partner = np.zeros(count, dtype=int)
        noise = np.zeros((count, dim))
        for i in np.flatnonzero(~mortal):
            if pollinator[i]:
                partner[i] = self.rng.integers(len(self.archive))
            noise[i] = self.rng.standard_t(df=t, size=dim)

        towards = self.archive.positions[guide] - positions
        norm = _row_norms(towards)[:, None]
        direction = np.divide(towards, norm, out=np.zeros_like(towards), where=norm > 0.0)
        step = self.step_scale * kernel_norm * neighbor_distance
        moved = np.clip(positions + step[:, None] * direction, self.low, self.high)
        moved[pollinator] = (
            positions[pollinator] + self.archive.positions[partner[pollinator]]
        ) / 2.0
        new_positions = np.clip(moved + noise * noise_scale, self.low, self.high)
        new_positions[mortal] = tent_positions(
            self.tent, int(mortal.sum()), dim, self.low, self.high
        )

        new_objectives = self._evaluate(new_positions)
        self.archive.insert_many(new_positions, new_objectives)
        return new_positions, new_objectives

