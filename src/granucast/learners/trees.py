"""Regression trees: least-squares CART and second-order gradient boosting.

``build_cart`` grows the random forest's trees (the bagging lives in
``models.ForestRegressor``); ``BoostedTrees`` is lstm_xgb's second stage.
Both grow a ``Tree``, five numpy node arrays in level order, with one
level-wise grower and one split rule: XGBoost's second-order gain with unit
hessians (Chen & Guestrin, KDD 2016). A forest tree is a boosted tree at
lambda 0, where the gain is half CART's cut in squared error (Breiman et
al. 1984) and the leaf is the mean; boosting negates its leaves into
weights. ``Tree.predict`` is the one way to route rows: all rows go
down together, one level a pass. A model file stores a tree as the JSON
lists of ``Tree.state``.

Growth goes one depth a pass. The pass scores every open node of the depth
at once, in blocks of nodes of like size, splits them, and stably
partitions their rows into the children, which are numbered as they
grow: the next depth's nodes follow this one's. Split search is exact:
``presort`` orders each feature's rows by (value, row) once per tree (once
per fit for boosting), a node ranks its own rows by their places in that
order, and prefix sums over those rows alone score every cut of its
candidate features. Cuts between equal values
are never taken. Ties break to the lowest feature, then the lowest
threshold, but only between bit-equal scores: one partition reached through
two features is summed in two row orders, and the two scores can differ in
the last bit (ROADMAP item 13).

A node's value and cuts depend on its own rows only, never on the other
nodes of its depth or on the block it is scored in. Node totals are
``np.add.reduce`` over the node's targets in ascending row order, as a
node-by-node grower takes them, so growing by depth changes no tree grown
on all features: every all-feature CART and every boosted tree splits as
a node-by-node grower splits it, bit for bit. Feature sampling draws once
per depth: one ``rng.random((nodes, features))`` over the depth's
nodes to split, in level order, and each node scores the features of its
row's k smallest keys, sorted. That is a uniform k-subset for every node,
as random forests need (Breiman, Machine Learning 2001); without sampling
nothing is drawn.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

_LEAF = -1


@dataclass(eq=False)
class Tree:
    """Binary regression tree as five parallel node arrays: a leaf has
    feature -1, and a split sends a row to ``left`` when its feature is at
    most ``threshold``. A grown tree is in level order, depth by depth and
    left to right, so the k-th split's children are nodes 2k + 1 and
    2k + 2; any order with each child after its parent routes alike."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def state(self) -> dict:
        """The tree as JSON-ready lists, one per array, in field order."""
        return {name: nodes.tolist() for name, nodes in vars(self).items()}

    @classmethod
    def load(cls, state: dict, width: int) -> "Tree":
        """The tree of a ``state()``; ValueError unless ``predict`` can route
        rows of ``width`` features through it: int split features in range,
        each int child link after its parent (level order and the preorder
        of older model files both are), every link an int64, and finite
        float thresholds and leaf values."""
        lists = vars(cls(**state))  # TypeError unless the keys are the five fields
        count = len(lists["feature"])
        if not count or {len(nodes) for nodes in lists.values()} != {count}:
            raise ValueError("tree node lists are empty or of unequal length")
        arrays = {}
        for name in ("feature", "left", "right"):
            if not all(type(v) is int and -(2**63) <= v < 2**63 for v in lists[name]):
                raise ValueError(f"tree {name} entries must be int64 integers")
            arrays[name] = np.array(lists[name], dtype=np.int64)
        for name in ("threshold", "value"):
            if not all(isinstance(v, float) and math.isfinite(v) for v in lists[name]):
                raise ValueError(f"tree {name} entries must be finite floats")
            arrays[name] = np.array(lists[name], dtype=np.float64)
        for node, (f, lo, hi) in enumerate(zip(lists["feature"], lists["left"], lists["right"])):
            if f != _LEAF and not (0 <= f < width and node < lo < count and node < hi < count):
                raise ValueError(f"tree node {node}: feature {f}, children {lo} and {hi}")
        return cls(**arrays)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Each row's leaf value; all rows descend together, one level a pass."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        node = np.zeros(len(x), dtype=np.int64)
        rows = np.arange(len(x))
        while len(rows):
            at = node[rows]
            split = self.feature[at] != _LEAF
            rows, at = rows[split], at[split]
            goes_left = x[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(goes_left, self.left[at], self.right[at])
        return self.value[node]


def presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each feature's rows in ascending (value, row) order, then a padding
    row n, as three (features, rows + 1) tables: the row at each place, each
    row's place, and the value at each place. The padding row's value is
    -inf, so that no cut falls after a node's last row."""
    n, f = x.shape
    order = np.hstack([np.argsort(x.T, axis=1, kind="stable"), np.full((f, 1), n)])
    place = np.empty_like(order)
    np.put_along_axis(place, order, np.arange(n + 1), axis=1)
    values = np.take_along_axis(np.hstack([x.T, np.full((f, 1), -np.inf)]), order, axis=1)
    return order, place, values


# most (node, feature, row) cells, padding included, that one scoring pass
# holds; a batching width only: every width grows the same trees
_BLOCK_CELLS = 4096


def _segment_sums(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each segment of ``values``, bit for bit: segments
    of one length reduce together as the rows of one block."""
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    # each segment's values, shortest segment first
    shift = starts[by_size] - np.cumsum(ordered) + ordered
    grouped = values[np.arange(len(values)) + np.repeat(shift, ordered)]
    edges = [0, *(np.flatnonzero(np.diff(ordered)) + 1).tolist(), len(sizes)]
    sums, done = [], 0
    for first, end in zip(edges[:-1], edges[1:]):
        count, m = end - first, int(ordered[first])
        sums.append(np.add.reduce(grouped[done : done + count * m].reshape(count, m), axis=1))
        done += count * m
    out = np.empty(len(sizes))
    out[by_size] = np.concatenate(sums)
    return out


def _blocks(sizes: np.ndarray, k: int):
    """Slices of ``sizes`` (ascending) that score as one block: each adds
    nodes while its nodes times its largest size times ``k`` stay within
    ``_BLOCK_CELLS``, and holds at least one node."""
    first = 0
    for end, m in enumerate(sizes.tolist()):
        if end > first and (end + 1 - first) * m * k > _BLOCK_CELLS:
            yield slice(first, end)
            first = end
    if first < len(sizes):
        yield slice(first, len(sizes))


def _grow(x, y, presorted, max_depth, lambda_reg, min_gain, rng=None, k=None) -> Tree:
    """Greedy second-order growth from ``presort(x)``, one depth a pass.

    A depth's nodes hold their rows ascending, as consecutive segments of
    one array in level order. A node of target sum S and M rows stores
    S / (M + λ), λ = ``lambda_reg``, and a cut with L rows of sum S_L on its
    left and R of sum S_R on its right gains
    (S_L²/(L + λ) + S_R²/(R + λ) - S²/(M + λ)) / 2. A node stays a leaf when
    its targets are all equal, it sits at ``max_depth``, or its best cut
    gains no more than ``min_gain``. With ``k`` below the feature count,
    each node scores k features drawn from ``rng``, else all of them. Nodes
    of like size score together, padded to the largest with the padding row
    of ``presort``; scores past a node's own rows are ignored.
    """
    n, n_features = x.shape
    if not n:
        raise ValueError("cannot grow a tree on an empty training set")
    order, place, ordered_x = presorted
    ordered_y = np.append(y, 0.0)[order]  # the padding row's target is 0
    counts = np.arange(n + 1, dtype=np.float64)
    rows, sizes = np.arange(n), np.array([n])
    levels = []  # per depth, in level order: (feature, threshold, value)
    for depth in itertools.count():
        targets, starts = y[rows], np.cumsum(sizes) - sizes
        sums = _segment_sums(targets, starts, sizes)
        feature, threshold = np.full(len(sizes), _LEAF), np.zeros(len(sizes))
        levels.append((feature, threshold, sums / (sizes + lambda_reg)))
        if max_depth is not None and depth >= max_depth:
            break
        varied = np.logical_or.reduceat(targets != np.repeat(targets[starts], sizes), starts)
        scored = np.flatnonzero(varied & (sizes > 1))
        if k is None or k >= n_features:
            drawn = np.broadcast_to(np.arange(n_features), (len(scored), n_features))
        else:
            keys = rng.random((len(scored), n_features))
            drawn = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :k], axis=1)
        by_size = np.argsort(sizes[scored], kind="stable")
        scored, drawn = scored[by_size], drawn[by_size]
        padded = np.append(rows, n)
        found = []
        for block in _blocks(sizes[scored], drawn.shape[1]):
            nodes, features = scored[block], drawn[block]
            m = sizes[nodes]
            width = int(m[-1])
            if depth == 0:  # the root's rows are each feature's whole order
                xs, ranked_y = ordered_x[features, :n], ordered_y[features, :n]
            else:
                span = np.arange(width)
                at = np.where(span < m[:, None], starts[nodes, None] + span, len(rows))
                places = place[features[:, :, None], padded[at][:, None, :]]
                places.sort(axis=2)
                places += (features * (n + 1))[:, :, None]
                xs, ranked_y = ordered_x.ravel()[places], ordered_y.ravel()[places]
            total = sums[nodes, None, None]
            left_sum = np.add.accumulate(ranked_y, axis=2)[..., :-1]
            left = counts[1:width]
            right = np.maximum(m[:, None, None] - left, 1.0)
            gains = 0.5 * (
                left_sum**2 / (left + lambda_reg)
                + (total - left_sum) ** 2 / (right + lambda_reg)
                - total**2 / (m[:, None, None] + lambda_reg)
            )
            gains[~(xs[..., 1:] > xs[..., :-1])] = -np.inf
            column, row = np.divmod(gains.reshape(len(nodes), -1).argmax(axis=1), width - 1)
            each = np.arange(len(nodes))
            bounds = xs[each[:, None], column[:, None], row[:, None] + [0, 1]]
            found.append((nodes, gains[each, column, row], features[each, column], bounds))
        if not found:
            break
        nodes, best, chosen, bounds = map(np.concatenate, zip(*found))
        split = ~(best <= min_gain)
        if not split.any():
            break
        nodes, (lo, hi) = nodes[split], bounds[split].T
        mid = (lo + hi) / 2.0
        # a midpoint that rounds up to hi, or overflows, would send every row left
        threshold[nodes] = np.where(mid < hi, mid, np.nextafter(hi, lo))
        feature[nodes] = chosen[split]
        splits = feature != _LEAF
        node = np.repeat(np.arange(len(sizes)), sizes)
        keep = splits[node]
        node, rows = node[keep], rows[keep]
        goes_left = x[rows, feature[node]] <= threshold[node]
        # each split's left child, then its right one, in level order
        child = 2 * (np.cumsum(splits) - 1)[node] + ~goes_left
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * len(nodes))
    feature, threshold, value = map(np.concatenate, zip(*levels))
    # each split's children are the next depth's next two nodes, left first,
    # so in level order split k (from 0) has children 2k + 1 and 2k + 2
    splits = feature != _LEAF
    left = np.where(splits, 2 * np.cumsum(splits) - 1, _LEAF)
    return Tree(feature, threshold, left, np.where(splits, left + 1, _LEAF), value)


def build_cart(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int | None = None,
    features_per_split: int | None = None,
) -> Tree:
    """Greedy least-squares CART; optional per-split feature sampling.

    ``_grow`` at lambda 0: leaves hold the mean target, a cut gains half
    the drop it makes in summed squared error, and a node splits at its
    best cut whatever the gain. With sampling, each depth draws one
    ``rng.random((nodes, features))`` for its nodes to split, in level
    order, and each node scores the features of its row's
    ``features_per_split`` smallest keys.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _grow(x, y, presort(x), max_depth, 0.0, -np.inf, rng, features_per_split)


def build_boosted_tree(
    x: np.ndarray,
    residual_grad: np.ndarray,
    lambda_reg: float,
    gamma_reg: float,
    max_depth: int,
    presorted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Tree:
    """One boosting round's tree on gradients of squared loss (hessian 1).

    ``_grow`` on the gradients, whose leaves G / (H + lambda), H the member
    count, are then negated into the leaf weights; a cut is kept only when
    its second-order gain exceeds gamma. ``presorted`` is ``presort(x)``,
    sorted here unless given.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(residual_grad, dtype=np.float64)
    presorted = presort(x) if presorted is None else presorted
    tree = _grow(x, g, presorted, max_depth, lambda_reg, gamma_reg)
    # negating the leaves, not the gradients, keeps a zero-sum leaf at -0.0
    np.negative(tree.value, out=tree.value)
    return tree


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
        presorted = presort(x)
        pred = np.full(len(y), model.base_score)
        penalty = 0.0
        model.objective_history.append(model._objective(y, pred, penalty))
        for _ in range(rounds):
            grad = pred - y
            tree = build_boosted_tree(x, grad, lambda_reg, gamma_reg, max_depth, presorted)
            model.trees.append(tree)
            pred += shrinkage * tree.predict(x)
            leaves = tree.feature == _LEAF
            shrunk = shrinkage * tree.value[leaves]
            penalty += gamma_reg * np.count_nonzero(leaves) + (lambda_reg / 2.0) * float(
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
