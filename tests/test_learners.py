"""Learner tests: supervised-set construction, layer semantics checked
against hand-rolled references, analytic gradients against finite
differences, the tree learners, and the fit/save/load lifecycle."""

import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import gradient_rel_err
from hypothesis import given
from hypothesis import strategies as st

from granucast.evaluation import point_scores
from granucast.fuzzy_rough import PEAK_COLUMN
from granucast.learners import (
    KINDS,
    BiLstmRegressor,
    BoostedTrees,
    CnnGruRegressor,
    DimensionMismatch,
    ForestRegressor,
    LearnerConfig,
    LstmBoostedRegressor,
    LstmRegressor,
    ModelFileError,
    RandomForest,
    SequenceTooShort,
    SupervisedSet,
    TooFewRecords,
    UntrainedModel,
    fit_learner,
    load_model,
    make_supervised,
    save_model,
)
from granucast.learners.models import _MODEL_CLASSES
from granucast.learners.nn import BiLSTMLayer, Conv1dLayer, GRULayer, LSTMLayer
from granucast.learners.trees import build_boosted_tree, build_cart


def toy_features(count: int) -> np.ndarray:
    """Feature rows that are easy to predict by eye: two memberships, then
    window i's granule (i, i + 0.5, i + 1)."""
    i = np.arange(count, dtype=np.float64)
    return np.column_stack([0.25 + 0.01 * i, 0.75 - 0.01 * i, i, i + 0.5, i + 1.0])


def toy_supervised(n: int = 30, width: int = 5, lag: int = 4, seed: int = 0) -> SupervisedSet:
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, lag * width))
    targets = 0.6 * inputs[:, 0] - 0.4 * inputs[:, 3] + 0.2 * np.sin(inputs[:, 5])
    return SupervisedSet(
        inputs=inputs,
        targets=targets,
        lag=lag,
        record_width=width,
        target_indices=np.arange(lag, lag + n),
    )


class TestMakeSupervised:
    def test_five_records_lag_two(self):
        features = toy_features(5)
        data = make_supervised(features, lag=2)
        assert len(data) == 3
        assert data.inputs.shape == (3, 10)
        assert data.record_width == 5
        assert data.lag == 2
        np.testing.assert_array_equal(data.inputs[0], np.concatenate(features[:2]))
        np.testing.assert_array_equal(data.targets, [2.5, 3.5, 4.5])
        np.testing.assert_array_equal(data.target_indices, [2, 3, 4])

    def test_minimum_size(self):
        features = toy_features(2)
        data = make_supervised(features, lag=1)
        assert len(data) == 1
        np.testing.assert_array_equal(data.inputs[0], features[0])
        assert data.targets[0] == features[1, PEAK_COLUMN]

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            make_supervised(toy_features(3), lag=4)
        with pytest.raises(TooFewRecords):
            make_supervised(toy_features(4), lag=4)
        assert len(make_supervised(toy_features(5), lag=4)) == 1

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            make_supervised(toy_features(5), lag=0)

    def test_inputs_never_see_the_target_window(self):
        # every value in feature row i equals i, so the largest value
        # allowed in input row j is j + lag - 1
        lag = 3
        features = np.repeat(np.arange(8, dtype=np.float64)[:, None], 5, axis=1)
        data = make_supervised(features, lag=lag)
        for j in range(len(data)):
            assert data.inputs[j].max() == j + lag - 1
            assert data.targets[j] == j + lag

    @pytest.mark.parametrize("lag", [1, 2, 4])
    def test_matches_row_by_row_reference(self, lag):
        features = np.random.default_rng(lag).normal(size=(12, 6))
        data = make_supervised(features, lag=lag)
        for i in range(len(data)):
            expected = np.concatenate([features[i + k] for k in range(lag)])
            assert data.inputs[i].tobytes() == expected.tobytes()
            assert data.targets[i] == features[i + lag, PEAK_COLUMN]

    def test_take_selects_samples(self):
        data = make_supervised(toy_features(10), lag=2)
        for rows in (slice(2, 5), np.array([0, 3, 7])):
            part = data.take(rows)
            np.testing.assert_array_equal(part.inputs, data.inputs[rows])
            np.testing.assert_array_equal(part.targets, data.targets[rows])
            np.testing.assert_array_equal(part.target_indices, data.target_indices[rows])
            assert (part.lag, part.record_width) == (data.lag, data.record_width)


class TestLstmLayer:
    def test_forward_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        layer = LSTMLayer(2, 3)
        for p in layer.params.values():
            p[...] = rng.normal(scale=0.5, size=p.shape)
        x = rng.normal(size=(2, 4, 2))
        h_seq, _ = layer.forward(x)

        wx, wh, b = layer.params["wx"], layer.params["wh"], layer.params["b"]
        hdim = 3
        for sample in range(2):
            h = np.zeros(hdim)
            c = np.zeros(hdim)
            for t in range(4):
                a = x[sample, t] @ wx + h @ wh + b
                gate_i = 1.0 / (1.0 + np.exp(-a[:hdim]))
                gate_f = 1.0 / (1.0 + np.exp(-a[hdim : 2 * hdim]))
                gate_o = 1.0 / (1.0 + np.exp(-a[2 * hdim : 3 * hdim]))
                cand = np.tanh(a[3 * hdim :])
                c = gate_f * c + gate_i * cand
                h = gate_o * np.tanh(c)
                np.testing.assert_allclose(h_seq[sample, t], h, rtol=0, atol=1e-12)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(DimensionMismatch):
            LSTMLayer(2, 3).forward(np.zeros((1, 4, 5)))


class TestBiLstmLayer:
    def test_zero_parameters_give_zero_output(self):
        layer = BiLSTMLayer(2, 3)
        out, _ = layer.forward(np.random.default_rng(0).normal(size=(2, 5, 2)))
        assert out.shape == (2, 5, 6)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_tied_weights_swap_halves_under_time_reversal(self):
        rng = np.random.default_rng(11)
        layer = BiLSTMLayer(2, 3)
        for name in layer.fwd.params:
            value = rng.normal(scale=0.4, size=layer.fwd.params[name].shape)
            layer.fwd.params[name][...] = value
            layer.bwd.params[name][...] = value
        x = rng.normal(size=(2, 6, 2))
        out, _ = layer.forward(x)
        out_rev, _ = layer.forward(x[:, ::-1, :])
        np.testing.assert_allclose(out_rev[:, ::-1, 3:], out[:, :, :3], rtol=0, atol=1e-14)
        np.testing.assert_allclose(out_rev[:, ::-1, :3], out[:, :, 3:], rtol=0, atol=1e-14)


class TestGruLayer:
    def test_zero_parameters_halve_the_state(self):
        layer = GRULayer(2, 3)
        h_prev = np.array([[1.0, -2.0, 4.0]])
        h, _ = layer.step(h_prev, np.array([[0.3, 0.7]]))
        np.testing.assert_array_equal(h, 0.5 * h_prev)

    def test_closed_update_gate_keeps_the_state(self):
        layer = GRULayer(2, 3)
        layer.params["bu"][...] = -1000.0
        h_prev = np.array([[1.0, -2.0, 4.0]])
        h, _ = layer.step(h_prev, np.array([[0.3, 0.7]]))
        np.testing.assert_array_equal(h, h_prev)

    def test_open_update_gate_jumps_to_the_candidate(self):
        layer = GRULayer(2, 3)
        layer.params["bu"][...] = 1000.0
        layer.params["bc"][...] = 0.3
        h, _ = layer.step(np.array([[1.0, -2.0, 4.0]]), np.array([[0.3, 0.7]]))
        np.testing.assert_array_equal(h, np.full((1, 3), np.tanh(0.3)))

    def test_forward_matches_step_loop(self):
        rng = np.random.default_rng(4)
        layer = GRULayer(2, 3)
        for p in layer.params.values():
            p[...] = rng.normal(scale=0.5, size=p.shape)
        x = rng.normal(size=(2, 5, 2))
        h_seq, _ = layer.forward(x)
        h = np.zeros((2, 3))
        for t in range(5):
            h, _ = layer.step(h, x[:, t, :])
            np.testing.assert_array_equal(h_seq[:, t, :], h)

    @given(st.integers(0, 10_000))
    def test_state_stays_in_the_unit_box(self, seed):
        # h is a convex blend of the previous state and a tanh candidate,
        # so from h = 0 it can never leave [-1, 1]
        rng = np.random.default_rng(seed)
        layer = GRULayer(2, 4)
        for p in layer.params.values():
            p[...] = rng.normal(scale=2.0, size=p.shape)
        h_seq, _ = layer.forward(rng.normal(scale=3.0, size=(2, 5, 2)))
        assert np.all(np.abs(h_seq) <= 1.0)


class TestConv1dLayer:
    def test_zero_kernel_ignores_the_input(self):
        rng = np.random.default_rng(0)
        layer = Conv1dLayer(2, 4, kernel=3)
        out_a, _ = layer.forward(rng.normal(size=(2, 6, 2)))
        out_b, _ = layer.forward(rng.normal(size=(2, 6, 2)))
        np.testing.assert_array_equal(out_a, np.zeros((2, 4, 4)))
        np.testing.assert_array_equal(out_a, out_b)

    def test_center_tap_identity_kernel(self):
        layer = Conv1dLayer(2, 2, kernel=3)
        layer.params["k"][1] = np.eye(2)
        x = np.random.default_rng(8).normal(size=(2, 5, 2))
        out, _ = layer.forward(x)
        np.testing.assert_array_equal(out, np.tanh(x[:, 1:4, :]))

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(9)
        layer = Conv1dLayer(3, 2, kernel=2)
        for p in layer.params.values():
            p[...] = rng.normal(size=p.shape)
        x = rng.normal(size=(2, 5, 3))
        out, _ = layer.forward(x)
        k, b = layer.params["k"], layer.params["b"]
        for sample in range(2):
            for t in range(4):
                for ch in range(2):
                    pre = b[ch] + sum(
                        x[sample, t + tau, w] * k[tau, w, ch]
                        for tau in range(2)
                        for w in range(3)
                    )
                    assert abs(out[sample, t, ch] - np.tanh(pre)) < 1e-12

    def test_sequence_shorter_than_kernel(self):
        with pytest.raises(SequenceTooShort):
            Conv1dLayer(2, 4, kernel=3).forward(np.zeros((1, 2, 2)))

    def test_rejects_wrong_input_width(self):
        with pytest.raises(DimensionMismatch):
            Conv1dLayer(2, 4, kernel=3).forward(np.zeros((1, 5, 3)))


TINY = LearnerConfig(hidden_sizes=(3,), epochs=1, batch_size=4, learning_rate=0.01)


@pytest.mark.parametrize("model_cls", [BiLstmRegressor, CnnGruRegressor, LstmRegressor])
def test_analytic_gradients_match_finite_differences(model_cls):
    rng = np.random.default_rng(7)
    for _ in range(3):
        assert gradient_rel_err(model_cls, TINY, rng) < 1e-6


class TestBoostedTrees:
    def test_constant_targets_never_move(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 3.25)
        model = BoostedTrees.fit(x, y, rounds=10)
        assert model.base_score == 3.25
        np.testing.assert_array_equal(model.predict(x), y)
        assert all(tree.leaf_count == 1 for tree in model.trees)
        assert model.objective_history == [0.0] * 11

    def test_huge_gamma_freezes_at_the_base_score(self):
        # mean 2.0 is exact in floats, so the first gradient sum is exactly
        # zero and every root stays an unsplit zero-valued leaf
        x = np.arange(8.0).reshape(-1, 1)
        y = np.array([1.0, 3.0] * 4)
        model = BoostedTrees.fit(x, y, rounds=5, gamma_reg=1e12)
        assert all(tree.leaf_count == 1 for tree in model.trees)
        np.testing.assert_array_equal(model.predict(x), np.full(8, 2.0))

    def test_huge_lambda_stays_near_the_base_score(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        model = BoostedTrees.fit(x, y, rounds=20, lambda_reg=1e12)
        np.testing.assert_allclose(model.predict(x), np.full(30, y.mean()), atol=1e-6)

    def test_learns_a_step_function_exactly(self):
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        y = (x.ravel() >= 5).astype(float)
        model = BoostedTrees.fit(
            x, y, rounds=1, max_depth=1, lambda_reg=0.0, gamma_reg=0.0, shrinkage=1.0
        )
        tree = model.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 4.5
        np.testing.assert_array_equal(model.predict(x), y)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=40)
        model = BoostedTrees.fit(x, y, rounds=50)
        assert len(model.objective_history) == 51
        assert all(np.diff(model.objective_history) <= 1e-9)

    def test_zero_rounds_is_the_mean_predictor(self):
        x = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        model = BoostedTrees.fit(x, y, rounds=0)
        np.testing.assert_array_equal(model.predict(x), np.full(6, 2.5))
        assert len(model.objective_history) == 1


class TestRandomForest:
    def test_single_unbagged_tree_memorizes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        tree = build_cart(x, y, np.random.default_rng(0))
        np.testing.assert_array_equal(tree.predict(x), y)

    def test_prediction_is_the_plain_tree_mean(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        forest = RandomForest.fit(x, y, tree_count=10, seed=0)
        manual = np.stack([tree.predict(x) for tree in forest.trees]).mean(axis=0)
        np.testing.assert_array_equal(forest.predict(x), manual)

    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        a = RandomForest.fit(x, y, tree_count=5, seed=9).predict(x)
        b = RandomForest.fit(x, y, tree_count=5, seed=9).predict(x)
        np.testing.assert_array_equal(a, b)

    def test_bagging_beats_the_median_tree_out_of_sample(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(120, 4))
        y = x[:, 0] - 0.5 * x[:, 1] ** 2 + 0.3 * rng.normal(size=120)
        forest = RandomForest.fit(x[:80], y[:80], tree_count=30, seed=0)
        forest_mse = float(((forest.predict(x[80:]) - y[80:]) ** 2).mean())
        tree_mses = [
            float(((tree.predict(x[80:]) - y[80:]) ** 2).mean()) for tree in forest.trees
        ]
        assert forest_mse < np.median(tree_mses)


def exact_optima(x: np.ndarray, score) -> list[tuple[int, float]]:
    """Every (feature, midpoint) cut with the highest exact score, in
    feature-then-threshold order; ``score`` maps a left-side mask to a
    Fraction."""
    best, where = None, []
    for j in range(x.shape[1]):
        values = np.unique(x[:, j])
        for threshold in (values[:-1] + values[1:]) / 2.0:
            value = score(x[:, j] <= threshold)
            if best is None or value > best:
                best, where = value, []
            if value == best:
                where.append((j, float(threshold)))
    return where


def negative_sse(y: np.ndarray):
    def score(left):
        total = Fraction(0)
        for side in (y[left], y[~left]):
            values = [Fraction(int(v)) for v in side]
            mean = sum(values) / len(values)
            total += sum((v - mean) ** 2 for v in values)
        return -total

    return score


def split_gain(g: np.ndarray, lambda_reg: int):
    """The second-order gain up to its constant parent term and factor 1/2."""

    def score(left):
        return sum(
            Fraction(int(side.sum())) ** 2 / (len(side) + lambda_reg)
            for side in (g[left], g[~left])
        )

    return score


def tied_columns(seed: int) -> tuple[np.ndarray, np.random.Generator]:
    """Integer features whose first two columns are equal."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(20, 2)).astype(float)
    return np.column_stack([base[:, 0], base[:, 0], base[:, 1]]), rng


def root_split(tree) -> tuple[int, float]:
    return tree.feature[0], tree.threshold[0]


class TestSplitRule:
    @pytest.mark.parametrize("seed", range(8))
    def test_cart_root_is_the_least_sse_cut(self, seed):
        x, rng = tied_columns(seed)
        y = rng.integers(0, 3, size=len(x)).astype(float)
        tree = build_cart(x, y, rng)
        assert root_split(tree) == exact_optima(x, negative_sse(y))[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_boosted_root_is_the_highest_gain_cut(self, seed):
        x, rng = tied_columns(seed)
        g = rng.integers(-2, 3, size=len(x)).astype(float)
        tree = build_boosted_tree(x, g, lambda_reg=1.0, gamma_reg=0.0, max_depth=1)
        assert root_split(tree) == exact_optima(x, split_gain(g, 1))[0]

    @pytest.mark.parametrize(
        "mirrored, pattern, optima",
        [
            # cuts at 0.5 and 2.5 tie exactly on both equal columns
            (False, [0.0, 1.0, 1.0, 0.0], [(0, 0.5), (0, 2.5), (1, 0.5), (1, 2.5)]),
            # the mirrored column 0 makes the same cut at a higher threshold
            (True, [0.0, 1.0, 1.0, 1.0], [(0, 2.5), (1, 0.5)]),
        ],
        ids=["equal_columns", "mirrored_column"],
    )
    def test_ties_go_to_the_lowest_feature_then_threshold(self, mirrored, pattern, optima):
        v = np.repeat(np.arange(4.0), 2)
        x = np.column_stack([3.0 - v if mirrored else v, v])
        y = np.repeat(pattern, 2)
        g = 1.0 - 2.0 * y
        assert exact_optima(x, negative_sse(y)) == optima
        assert exact_optima(x, split_gain(g, 1)) == optima
        assert root_split(build_cart(x, y, np.random.default_rng(0))) == optima[0]
        boosted = build_boosted_tree(x, g, lambda_reg=1.0, gamma_reg=0.0, max_depth=1)
        assert root_split(boosted) == optima[0]


SMALL = LearnerConfig(
    hidden_sizes=(6,),
    epochs=8,
    batch_size=8,
    learning_rate=0.05,
    tree_count=10,
    boosting_rounds=10,
    rng_seed=3,
)


class TestModelLifecycle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_is_deterministic(self, kind):
        data = toy_supervised()
        first = fit_learner(kind, data, SMALL).predict(data.inputs)
        second = fit_learner(kind, data, SMALL).predict(data.inputs)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("kind", KINDS)
    def test_save_load_round_trip_is_bit_exact(self, kind, tmp_path):
        data = toy_supervised()
        model = fit_learner(kind, data, SMALL)
        before = model.predict(data.inputs)
        path = tmp_path / f"{kind}.npz"
        save_model(model, path)
        after = load_model(path).predict(data.inputs)
        np.testing.assert_array_equal(before, after)

    def test_predict_before_fit_raises(self):
        for cls in (BiLstmRegressor, CnnGruRegressor, LstmBoostedRegressor, ForestRegressor):
            with pytest.raises(UntrainedModel):
                cls(SMALL, 5, 2).predict(np.zeros((1, 10)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_learner("mlp", toy_supervised(), SMALL)

    def test_registry_is_the_four_kinds(self):
        assert tuple(_MODEL_CLASSES) == KINDS
        # lstm_xgb's first stage is not a learner of its own
        with pytest.raises(ValueError):
            fit_learner("lstm", toy_supervised(), SMALL)

    @pytest.mark.parametrize(
        "change",
        [{"kind": "mlp"}, {"kind": "lstm"}, {"format": 2}],
        ids=["kind_mlp", "kind_lstm", "format_2"],
    )
    def test_load_rejects_unknown_files(self, change, tmp_path):
        path = tmp_path / "model.npz"
        save_model(fit_learner("lstm_xgb", toy_supervised(), SMALL), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = {**json.loads(str(arrays.pop("meta")[()])), **change}
        with path.open("wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_config_validation(self):
        for bad in (
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"tree_count": 0},
            {"hidden_sizes": ()},
            {"hidden_sizes": (0,)},
            {"boosting_rounds": -1},
            {"max_depth": 0},
            {"lambda_reg": -1.0},
            {"gamma_reg": -0.5},
        ):
            with pytest.raises(ValueError):
                LearnerConfig(**bad)

    def test_stacked_stage_improves_on_the_mean(self):
        data = toy_supervised(n=60)
        model = fit_learner("lstm_xgb", data, SMALL)
        mse = float(((model.predict(data.inputs) - data.targets) ** 2).mean())
        baseline = float(data.targets.var())
        assert mse < baseline
        assert all(np.diff(model.stage2.objective_history) <= 1e-9)


def test_each_learner_tracks_held_out_data(forecast_run):
    for k, kind in enumerate(KINDS):
        scores = point_scores(forecast_run.test_set.targets, forecast_run.test_panel.matrix[k])
        assert scores.r2 > 0.8, f"{kind} r2 {scores.r2:.3f}"
