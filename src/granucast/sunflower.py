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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GranucastError

_FIXED_POINT_TOL = 1e-12
_ESCAPE_NUDGE = 1e-6
_KERNEL_EPS = 1e-9


class InvalidSeed(GranucastError):
    pass


class NonFiniteObjective(GranucastError):
    pass


class EmptyArchive(GranucastError):
    pass


@dataclass(frozen=True)
class Bounds:
    """Per-dimension box constraints."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, lower: float, upper: float, dim: int) -> "Bounds":
        return cls(np.full(dim, lower), np.full(dim, upper))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def span_norm(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def clamp(self, position: np.ndarray) -> np.ndarray:
        return np.clip(position, self.lower, self.upper)


class TentChain:
    """Skewed tent map iterator over (0, 1) with fixed-point escape.

    The map's invariant density is uniform, which is why it seeds
    populations more evenly than raw pseudo-random draws. Iterates landing
    (numerically) on {0, apex fixed point, 1} would freeze the chain, so
    they get nudged by 1e-6 and wrapped back into (0, 1).
    """

    def __init__(self, seed_value: float, apex: float = 0.7):
        if not 0.0 < seed_value < 1.0:
            raise InvalidSeed(f"seed_value must lie in (0, 1), got {seed_value}")
        if not 0.0 < apex < 1.0:
            raise ValueError(f"apex must lie in (0, 1), got {apex}")
        self.state = float(seed_value)
        self.apex = apex
        self._fixed_points = (0.0, 1.0 / (2.0 - apex), 1.0)

    def draw(self, count: int) -> np.ndarray:
        out = np.empty(count)
        value = self.state
        for k in range(count):
            if value < self.apex:
                value = value / self.apex
            else:
                value = (1.0 - value) / (1.0 - self.apex)
            if any(abs(value - fp) <= _FIXED_POINT_TOL for fp in self._fixed_points):
                value += _ESCAPE_NUDGE
                if value >= 1.0:
                    value -= 1.0
            out[k] = value
        self.state = value
        return out


def tent_sequence(seed_value: float, apex: float, length: int) -> np.ndarray:
    """The first ``length`` iterates of the tent chain after the seed."""
    return TentChain(seed_value, apex).draw(length)


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: a no worse everywhere, better somewhere."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteObjective("objective vectors must be finite")
    return bool(np.all(a <= b) and np.any(a < b))


@dataclass
class ArchiveEntry:
    position: np.ndarray
    objectives: np.ndarray


class ParetoArchive:
    """Bounded non-dominated store with grid-based crowding control.

    The grid re-partitions the current objective ranges into equal cells;
    evictions remove a random member of the most crowded cell, and guide
    selection favors the least crowded ones.
    """

    def __init__(
        self,
        capacity: int = 100,
        grid_divisions: int = 30,
        rng: np.random.Generator | None = None,
    ):
        if capacity < 1 or grid_divisions < 1:
            raise ValueError("capacity and grid_divisions must be >= 1")
        self.capacity = capacity
        self.grid_divisions = grid_divisions
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.members: list[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self.members)

    def objectives_array(self) -> np.ndarray:
        return np.stack([m.objectives for m in self.members])

    def positions_array(self) -> np.ndarray:
        return np.stack([m.position for m in self.members])

    def insert(self, position, objectives) -> bool:
        """Offer a candidate; returns True when it enters the archive."""
        obj = np.asarray(objectives, dtype=np.float64).copy()
        if not np.isfinite(obj).all():
            raise NonFiniteObjective("candidate objectives must be finite")
        pos = np.asarray(position, dtype=np.float64).copy()
        if self.members:
            mat = self.objectives_array()
            beats_candidate = np.all(mat <= obj, axis=1) & np.any(mat < obj, axis=1)
            if beats_candidate.any():
                return False
            equal_rows = np.nonzero(np.all(mat == obj, axis=1))[0]
            for row in equal_rows:
                if np.array_equal(self.members[row].position, pos):
                    return False  # exact duplicate adds nothing
            beaten = np.all(obj <= mat, axis=1) & np.any(obj < mat, axis=1)
            if beaten.any():
                self.members = [m for m, out in zip(self.members, beaten) if not out]
        self.members.append(ArchiveEntry(position=pos, objectives=obj))
        if len(self.members) > self.capacity:
            self._evict()
        return True

    def _cell_keys(self) -> list[tuple[int, ...]]:
        mat = self.objectives_array()
        mins = mat.min(axis=0)
        span = mat.max(axis=0) - mins
        span[span == 0.0] = 1.0
        idx = np.floor((mat - mins) / span * self.grid_divisions).astype(int)
        idx = np.clip(idx, 0, self.grid_divisions - 1)
        return [tuple(row) for row in idx]

    def _evict(self):
        keys = self._cell_keys()
        counts = Counter(keys)
        peak = max(counts.values())
        crowded = min(key for key, n in counts.items() if n == peak)
        pool = [i for i, key in enumerate(keys) if key == crowded]
        del self.members[pool[self.rng.integers(len(pool))]]

    def select_guide(self) -> ArchiveEntry:
        """Roulette over grid cells weighted by 1/occupancy, then a uniform
        pick inside the winning cell."""
        if not self.members:
            raise EmptyArchive("cannot select a guide from an empty archive")
        keys = self._cell_keys()
        counts = Counter(keys)
        cells = sorted(counts)
        weights = np.array([1.0 / counts[c] for c in cells])
        cumulative = np.cumsum(weights / weights.sum())
        winner = cells[int(np.searchsorted(cumulative, self.rng.random(), side="right"))]
        pool = [i for i, key in enumerate(keys) if key == winner]
        return self.members[pool[self.rng.integers(len(pool))]]

    def is_sound(self) -> bool:
        """Exhaustive pairwise check that no member dominates another."""
        for i, a in enumerate(self.members):
            for j, b in enumerate(self.members):
                if i != j and dominates(a.objectives, b.objectives):
                    return False
        return True


@dataclass(frozen=True)
class OptimizerConfig:
    population: int = 100
    iterations: int = 100
    pollination_rate: float = 0.1
    mortality_rate: float = 0.1
    tent_apex: float = 0.7
    step_scale: float | None = None
    archive_capacity: int = 100
    grid_divisions: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("pollination_rate", "mortality_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {rate}")
        if self.pollination_rate + self.mortality_rate >= 1.0:
            raise ValueError("pollination_rate + mortality_rate must stay below 1")
        if not 0.0 < self.tent_apex < 1.0:
            raise ValueError(f"tent_apex must lie in (0, 1), got {self.tent_apex}")
        if self.step_scale is not None and self.step_scale < 0:
            raise ValueError(f"step_scale must be >= 0, got {self.step_scale}")


@dataclass(frozen=True)
class OptimizationProblem:
    """Vector objective over a box, for minimization."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    bounds: Bounds


@dataclass
class Individual:
    position: np.ndarray
    objectives: np.ndarray | None = None


def tent_positions(chain: TentChain, count: int, bounds: Bounds) -> np.ndarray:
    """Map ``count * dim`` chained tent iterates onto the box, row-major."""
    flat = chain.draw(count * bounds.dim)
    unit = flat.reshape(count, bounds.dim)
    return bounds.lower + unit * (bounds.upper - bounds.lower)


class SunflowerOptimizer:
    """Runs the full optimization loop; deterministic for a given seed."""

    def __init__(self, problem: OptimizationProblem, config: OptimizerConfig = OptimizerConfig()):
        self.problem = problem
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)
        seed_value = float(self.rng.uniform(1e-9, 1.0 - 1e-9))
        self.tent = TentChain(seed_value, config.tent_apex)
        self.archive = ParetoArchive(
            capacity=config.archive_capacity,
            grid_divisions=config.grid_divisions,
            rng=self.rng,
        )
        if config.step_scale is not None:
            self.step_scale = config.step_scale
        else:
            self.step_scale = 0.05 * problem.bounds.span_norm

    def init_population(self) -> list[Individual]:
        positions = tent_positions(self.tent, self.config.population, self.problem.bounds)
        return [Individual(position=row) for row in positions]

    def _evaluate(self, individual: Individual):
        obj = np.asarray(self.problem.evaluate(individual.position), dtype=np.float64)
        if not np.isfinite(obj).all():
            raise NonFiniteObjective(
                f"objective evaluation returned non-finite values at {individual.position}"
            )
        individual.objectives = obj

    def run(self) -> ParetoArchive:
        population = self.init_population()
        for individual in population:
            self._evaluate(individual)
            self.archive.insert(individual.position, individual.objectives)
        for t in range(1, self.config.iterations + 1):
            self.step(population, t)
        return self.archive

    def step(self, population: list[Individual], t: int):
        """One synchronous sweep; t is the 1-based iteration index."""
        cfg = self.config
        count = len(population)
        bounds = self.problem.bounds
        guide = self.archive.select_guide()

        guide_distance = np.array(
            [float(np.linalg.norm(ind.objectives - guide.objectives)) for ind in population]
        )
        ranking = np.argsort(guide_distance, kind="stable")
        pollinator_count = math.ceil(cfg.pollination_rate * count)
        mortality_count = math.ceil(cfg.mortality_rate * count)
        pollinators = {int(i) for i in ranking[:pollinator_count]}
        mortal: set[int] = set()
        for i in reversed(ranking):
            if len(mortal) == mortality_count:
                break
            if int(i) not in pollinators:
                mortal.add(int(i))

        positions = np.stack([ind.position for ind in population])
        neighbor_distance = np.linalg.norm(positions - np.roll(positions, 1, axis=0), axis=1)
        kernel = 1.0 / (4.0 * np.pi * np.maximum(neighbor_distance, _KERNEL_EPS) ** 2)
        kernel_norm = kernel / kernel.max()
        # perturbation scale shrinks as 1/sqrt(t) so late sweeps refine
        noise_scale = self.step_scale / math.sqrt(t)

        new_positions = np.empty_like(positions)
        for i in range(count):
            if i in mortal:
                new_positions[i] = tent_positions(self.tent, 1, bounds)[0]
                continue
            if i in pollinators:
                partner = self.archive.members[self.rng.integers(len(self.archive.members))]
                moved = (positions[i] + partner.position) / 2.0
            else:
                towards = guide.position - positions[i]
                norm = float(np.linalg.norm(towards))
                direction = towards / norm if norm > 0.0 else np.zeros_like(towards)
                step = self.step_scale * kernel_norm[i] * neighbor_distance[i]
                moved = bounds.clamp(positions[i] + step * direction)
            noise = self.rng.standard_t(df=t, size=bounds.dim) * noise_scale
            new_positions[i] = bounds.clamp(moved + noise)

        for i, individual in enumerate(population):
            individual.position = new_positions[i]
            self._evaluate(individual)
            self.archive.insert(individual.position, individual.objectives)


def optimize(problem: OptimizationProblem, config: OptimizerConfig = OptimizerConfig()) -> ParetoArchive:
    return SunflowerOptimizer(problem, config).run()
