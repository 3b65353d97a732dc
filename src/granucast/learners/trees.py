"""Regression trees: bagged CART forest and second-order gradient boosting.

Both learners grow their trees with one preorder grower and one split scan
over a flat array-of-nodes tree representation that serializes to plain
lists. They differ only in the leaf value, the cut score and one extra
stop rule. Split search is exact over sorted feature values with prefix
sums; ties break to the lowest feature index, then the lowest threshold,
so rebuilds are reproducible across platforms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

_LEAF = -1


@dataclass
class Tree:
    """Binary regression tree as parallel node arrays."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    @property
    def leaf_count(self) -> int:
        return sum(1 for f in self.feature if f == _LEAF)

    def leaf_values(self) -> np.ndarray:
        return np.array([v for f, v in zip(self.feature, self.value) if f == _LEAF])

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(len(x))
        for row, sample in enumerate(x):
            node = 0
            while self.feature[node] != _LEAF:
                if sample[self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[row] = self.value[node]
        return out


def _best_split(cols: np.ndarray, y: np.ndarray, cut_scores) -> tuple[float, int, float]:
    """Best cut over the candidate columns ``cols`` of one node.

    ``cut_scores(sorted_y, y)`` maps the node's targets sorted by each
    column, shape (n, k), to the score of cutting after each of the first
    n - 1 rows. Cuts between equal values score -inf. Returns (score,
    column position, threshold); the score is -inf when every column is
    constant. The first maximum in column-major order keeps the lowest
    column, then the lowest threshold, on ties.
    """
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    scores = cut_scores(y[order], y)
    scores[~(xs[1:] > xs[:-1])] = -np.inf
    column, row = divmod(int(np.argmax(scores.T)), len(y) - 1)
    threshold = float((xs[row, column] + xs[row + 1, column]) / 2.0)
    return float(scores[row, column]), column, threshold


def _grow(x, y, max_depth, leaf_value, cut_scores, candidates, min_score) -> Tree:
    """Greedy preorder tree growth shared by both learners.

    Every node stores ``leaf_value(targets)``. A node stays a leaf when it
    has one row, sits at ``max_depth``, ``candidates(targets)`` returns None
    instead of a sorted array of feature indices, or its best cut scores no
    more than ``min_score``.
    """
    tree = Tree()

    def grow(rows: np.ndarray, depth: int) -> int:
        node = tree.add_node()
        sub_y = y[rows]
        tree.value[node] = leaf_value(sub_y)
        if len(rows) < 2 or (max_depth is not None and depth >= max_depth):
            return node
        features = candidates(sub_y)
        if features is None:
            return node
        score, column, threshold = _best_split(x[rows[:, None], features], sub_y, cut_scores)
        if score <= min_score:
            return node
        feature = int(features[column])
        goes_left = x[rows, feature] <= threshold
        tree.feature[node], tree.threshold[node] = feature, threshold
        tree.left[node] = grow(rows[goes_left], depth + 1)
        tree.right[node] = grow(rows[~goes_left], depth + 1)
        return node

    grow(np.arange(len(y)), 0)
    return tree


def _negative_sse(ys: np.ndarray, _y: np.ndarray) -> np.ndarray:
    """Minus the summed squared error of the two sides of each cut."""
    n = len(ys)
    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys**2, axis=0)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    left1, left2 = s1[:-1], s2[:-1]
    right_n = n - left_n
    return -((left2 - left1**2 / left_n) + ((s2[-1] - left2) - (s1[-1] - left1) ** 2 / right_n))


def build_cart(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int | None = None,
    features_per_split: int | None = None,
) -> Tree:
    """Greedy least-squares CART; optional per-split feature sampling.

    Leaves hold the mean target; nodes whose targets are all equal stay
    leaves.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_features = x.shape[1]

    def candidates(sub_y: np.ndarray) -> np.ndarray | None:
        if np.all(sub_y == sub_y[0]):
            return None
        if features_per_split is None or features_per_split >= n_features:
            return np.arange(n_features)
        return np.sort(rng.choice(n_features, size=features_per_split, replace=False))

    return _grow(x, y, max_depth, lambda t: float(t.mean()), _negative_sse, candidates, -np.inf)


@dataclass
class RandomForest:
    """Bootstrap-aggregated CART trees; prediction is the plain tree mean.

    Each tree draws ceil(sqrt(features)) candidate features per split.
    """

    trees: list[Tree]

    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        tree_count: int,
        seed: int,
        max_depth: int | None = None,
    ) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if np.all(y == y[0]):
            logger.warning("all targets identical; forest degenerates to a constant")
        n, f = x.shape
        features_per_split = math.ceil(math.sqrt(f))
        trees = []
        for index in range(tree_count):
            # derived per-tree seed keeps parallel and serial builds identical
            rng = np.random.default_rng(seed + index)
            rows = rng.integers(0, n, size=n)
            trees.append(build_cart(x[rows], y[rows], rng, max_depth, features_per_split))
        return cls(trees=trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.stack([tree.predict(x) for tree in self.trees]).mean(axis=0)


def build_boosted_tree(
    x: np.ndarray,
    residual_grad: np.ndarray,
    lambda_reg: float,
    gamma_reg: float,
    max_depth: int,
) -> Tree:
    """One boosting round's tree on gradients of squared loss (hessian 1).

    Leaf weight is -G / (H + lambda) with H = member count; a cut scores
    its second-order gain over keeping the node whole, and is kept only
    when that gain exceeds gamma.
    """
    all_features = np.arange(x.shape[1])

    def gain(gs: np.ndarray, g: np.ndarray) -> np.ndarray:
        n = len(g)
        total_g = g.sum()
        parent_score = total_g**2 / (n + lambda_reg)
        left_g = np.cumsum(gs, axis=0)[:-1]
        left_n = np.arange(1, n, dtype=np.float64)[:, None]
        return 0.5 * (
            left_g**2 / (left_n + lambda_reg)
            + (total_g - left_g) ** 2 / (n - left_n + lambda_reg)
            - parent_score
        )

    def leaf_weight(g: np.ndarray) -> float:
        return float(-g.sum() / (len(g) + lambda_reg))

    return _grow(x, residual_grad, max_depth, leaf_weight, gain, lambda _: all_features, gamma_reg)


@dataclass
class BoostedTrees:
    """Additive tree ensemble fit by gradient boosting on squared loss."""

    base_score: float
    shrinkage: float
    lambda_reg: float
    gamma_reg: float
    trees: list[Tree] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)

    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        rounds: int,
        max_depth: int = 1,
        lambda_reg: float = 1.0,
        gamma_reg: float = 0.0,
        shrinkage: float = 0.3,
    ) -> "BoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if np.all(y == y[0]):
            logger.warning("all targets identical; boosting fits single-leaf trees")
        model = cls(
            base_score=float(y.mean()),
            shrinkage=shrinkage,
            lambda_reg=lambda_reg,
            gamma_reg=gamma_reg,
        )
        pred = np.full(len(y), model.base_score)
        penalty = 0.0
        model.objective_history.append(model._objective(y, pred, penalty))
        for _ in range(rounds):
            grad = pred - y
            tree = build_boosted_tree(x, grad, lambda_reg, gamma_reg, max_depth)
            model.trees.append(tree)
            pred += shrinkage * tree.predict(x)
            shrunk = shrinkage * tree.leaf_values()
            penalty += gamma_reg * tree.leaf_count + (lambda_reg / 2.0) * float(
                (shrunk**2).sum()
            )
            model.objective_history.append(model._objective(y, pred, penalty))
        return model

    @staticmethod
    def _objective(y: np.ndarray, pred: np.ndarray, penalty: float) -> float:
        return float(0.5 * ((y - pred) ** 2).sum() + penalty)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        pred = np.full(len(x), self.base_score)
        for tree in self.trees:
            pred += self.shrinkage * tree.predict(x)
        return pred
