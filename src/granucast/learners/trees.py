"""Regression trees: least-squares CART and second-order gradient boosting.

``build_cart`` grows the random forest's trees (the bagging lives in
``models.ForestRegressor``); ``BoostedTrees`` is lstm_xgb's second stage.
Both grow a flat array-of-nodes tree, which serializes to plain lists, with
one preorder grower; they differ only in the leaf value, the cut score and
one extra stop rule.

Split search is exact and sorts once: ``presort`` orders each feature's rows
by (value, row) once per tree (once per fit for boosting), and every node
keeps that order filtered to its own rows, so it scores all cuts of its
candidate features with prefix sums and no sort. Cuts between equal values
are never taken. Ties break to the lowest feature, then the lowest
threshold, but only between bit-equal scores: one partition reached through
two features is summed in two row orders, and the two scores can differ in
the last bit (ROADMAP item 13).
"""

from __future__ import annotations

import logging
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


def presort(x: np.ndarray) -> np.ndarray:
    """Each feature's row indices in ascending (value, row) order, shape (features, rows)."""
    return np.argsort(x.T, axis=1, kind="stable")


def _grow(x, y, order, max_depth, leaf_value, cut_scores, candidates, min_score) -> Tree:
    """Greedy preorder tree growth shared by both learners, from ``presort(x)``.

    A node holds its m rows as a (features + 1, m) matrix: row f lists them
    in feature f's (value, row) order, the last row ascending; a split
    partitions each row stably. A node stores ``leaf_value(sum, m)`` of its
    targets and stays a leaf when it has one row, sits at ``max_depth``,
    ``candidates(targets)`` returns None instead of k sorted feature indices,
    or its best cut scores no more than ``min_score``. ``cut_scores(cuts,
    sum)`` scores cutting after each of the first m - 1 candidate rows,
    given as a C-ordered (m, k) array, each column in its feature's order.
    """
    xt = np.ascontiguousarray(x.T)
    tree = Tree()
    # (ranked rows, depth, parent, parent's link list); the left child pops first
    stack = [(np.vstack([order, np.arange(len(y))]), 0, _LEAF, tree.left)]
    while stack:
        ranked, depth, parent, link = stack.pop()
        node = tree.add_node()
        if parent != _LEAF:
            link[parent] = node
        rows = ranked[-1]
        m = len(rows)
        if m == 1:
            # numpy's sum adds a lone value to 0.0, which turns -0.0 into 0.0
            tree.value[node] = leaf_value(y[rows[0]] + 0.0, 1)
            continue
        targets = y[rows]
        total = np.add.reduce(targets)
        tree.value[node] = leaf_value(total, m)
        if m < 2 or (max_depth is not None and depth >= max_depth):
            continue
        features = candidates(targets)
        if features is None:
            continue
        cuts = np.ascontiguousarray(ranked.take(features, axis=0).T)
        xs = xt[features, cuts]
        scores = cut_scores(cuts, total)
        scores[~(xs[1:] > xs[:-1])] = -np.inf
        column, row = divmod(int(scores.T.argmax()), m - 1)
        if scores[row, column] <= min_score:
            continue
        feature = int(features[column])
        lo, hi = xs[row, column], xs[row + 1, column]
        # a midpoint that rounds up to hi, or overflows, would send every row left
        threshold = float((lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else np.nextafter(hi, lo))
        tree.feature[node], tree.threshold[node] = feature, threshold
        # children at max_depth are leaves: they need only their rows
        keep = ranked[-1:] if max_depth is not None and depth + 1 >= max_depth else ranked
        goes_left = (xt[feature][keep] <= threshold).ravel()
        for part, link in ((~goes_left, tree.right), (goes_left, tree.left)):
            stack.append((keep.compress(part).reshape(len(keep), -1), depth + 1, node, link))
    return tree


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
    n, n_features = x.shape
    k = n_features if features_per_split is None else min(features_per_split, n_features)
    y2 = y * y
    counts = np.arange(n + 1, dtype=np.float64)[:, None]

    def candidates(targets: np.ndarray) -> np.ndarray | None:
        if (targets == targets[0]).all():
            return None
        if k == n_features:
            return np.arange(k)
        drawn = rng.choice(n_features, size=k, replace=False)
        drawn.sort()
        return drawn

    def negative_sse(cuts: np.ndarray, _total) -> np.ndarray:
        """Minus the summed squared error of the two sides of each cut."""
        m = len(cuts)
        s1 = np.add.accumulate(y[cuts], axis=0)
        s2 = np.add.accumulate(y2[cuts], axis=0)
        left1, left2 = s1[:-1], s2[:-1]
        return -(
            (left2 - left1**2 / counts[1:m])
            + ((s2[-1] - left2) - (s1[-1] - left1) ** 2 / counts[m - 1 : 0 : -1])
        )

    def mean(total, m: int) -> float:
        return float(total / m)

    return _grow(x, y, presort(x), max_depth, mean, negative_sse, candidates, -np.inf)


def build_boosted_tree(
    x: np.ndarray,
    residual_grad: np.ndarray,
    lambda_reg: float,
    gamma_reg: float,
    max_depth: int,
    order: np.ndarray | None = None,
) -> Tree:
    """One boosting round's tree on gradients of squared loss (hessian 1).

    Leaf weight is -G / (H + lambda) with H = member count; a cut scores
    its second-order gain over keeping the node whole, and is kept only
    when that gain exceeds gamma. ``order`` is ``presort(x)``, sorted here
    unless given.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(residual_grad, dtype=np.float64)
    n, n_features = x.shape
    all_features = np.arange(n_features)
    hessian = np.arange(n + 1, dtype=np.float64)[:, None] + lambda_reg  # H + lambda, H = 0..n

    def gain(cuts: np.ndarray, total_g) -> np.ndarray:
        m = len(cuts)
        left_g = np.add.accumulate(g[cuts], axis=0)[:-1]
        return 0.5 * (
            left_g**2 / hessian[1:m]
            + (total_g - left_g) ** 2 / hessian[m - 1 : 0 : -1]
            - total_g**2 / (m + lambda_reg)
        )

    def leaf_weight(total_g, m: int) -> float:
        return float(-total_g / (m + lambda_reg))

    order = presort(x) if order is None else order
    return _grow(x, g, order, max_depth, leaf_weight, gain, lambda _: all_features, gamma_reg)


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
        order = presort(x)
        pred = np.full(len(y), model.base_score)
        penalty = 0.0
        model.objective_history.append(model._objective(y, pred, penalty))
        for _ in range(rounds):
            grad = pred - y
            tree = build_boosted_tree(x, grad, lambda_reg, gamma_reg, max_depth, order)
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
