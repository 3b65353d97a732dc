"""Learner tests: supervised-set construction, layer semantics checked
against hand-rolled references, analytic gradients against finite
differences, the tree learners, and the fit/save/load lifecycle."""

import dataclasses
import hashlib
import json
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import gradient_rel_err
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from granucast.config import build_run_config
from granucast.evaluation import point_scores
from granucast.fuzzy_rough import PEAK_COLUMN
from granucast.learners import (
    KINDS,
    BiLstmRegressor,
    BoostedTrees,
    CnnGruRegressor,
    DimensionMismatch,
    ForestConfig,
    ForestRegressor,
    LstmBoostedRegressor,
    LstmRegressor,
    ModelFileError,
    NetConfig,
    SequenceTooShort,
    StackConfig,
    SupervisedSet,
    TooFewRecords,
    UntrainedModel,
    fit_learner,
    load_model,
    make_supervised,
    save_model,
)
from granucast.learners import nn, trees
from granucast.learners.models import _MODEL_CLASSES
from granucast.learners.nn import BiLSTMLayer, Conv1dLayer, GRULayer, LSTMLayer, sigmoid
from granucast.learners.trees import Tree, build_boosted_tree, build_cart


def toy_features(count: int) -> np.ndarray:
    """Feature rows that are easy to predict by eye: two memberships, then
    window i's granule (i, i + 0.5, i + 1)."""
    i = np.arange(count, dtype=np.float64)
    return np.column_stack([0.25 + 0.01 * i, 0.75 - 0.01 * i, i, i + 0.5, i + 1.0])


def write_npz(path, meta: str | None, arrays: dict) -> None:
    """An .npz of ``arrays`` plus, unless None, the ``meta`` string."""
    extra = {} if meta is None else {"meta": np.array(meta)}
    with path.open("wb") as fh:
        np.savez(fh, **extra, **arrays)


def damage_root(meta: dict, trees: list, key: str, value) -> str:
    """``meta`` as JSON, with entry ``key`` of the first tree's root (a split)
    set to ``value``."""
    assert trees[0]["feature"][0] >= 0
    trees[0][key][0] = value
    return json.dumps(meta)


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


# --- frozen references: the plain kernels the fused ones must match bit for bit


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_lstm(params, x, d_h_seq):
    """Per-gate LSTM forward and backward; returns (h_seq, dx, grads)."""
    wx, wh, b = params["wx"], params["wh"], params["b"]
    batch, steps, _ = x.shape
    hdim = wh.shape[0]
    h = np.zeros((batch, hdim), x.dtype)
    c = np.zeros((batch, hdim), x.dtype)
    h_seq = np.empty((batch, steps, hdim), x.dtype)
    cache = []
    for t in range(steps):
        a = x[:, t, :] @ wx + h @ wh + b
        i = reference_sigmoid(a[:, :hdim])
        f = reference_sigmoid(a[:, hdim : 2 * hdim])
        o = reference_sigmoid(a[:, 2 * hdim : 3 * hdim])
        g = np.tanh(a[:, 3 * hdim :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        cache.append((x[:, t, :], h, c, i, f, o, g, tanh_c))
        h, c = h_new, c_new
        h_seq[:, t, :] = h

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    dx = np.empty_like(x)
    dh_next = np.zeros((batch, hdim), x.dtype)
    dc_next = np.zeros((batch, hdim), x.dtype)
    for t in reversed(range(steps)):
        x_t, h_prev, c_prev, i, f, o, g, tanh_c = cache[t]
        dh = d_h_seq[:, t, :] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        da = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g**2)],
            axis=1,
        )
        grads["wx"] += x_t.T @ da
        grads["wh"] += h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dx[:, t, :] = da @ wx.T
        dh_next = da @ wh.T
    return h_seq, dx, grads


def reference_gru(p, x, d_h_seq):
    """GRU forward and backward with every matmul; returns (h_seq, dx, grads)."""
    batch, steps, _ = x.shape
    hdim = p["wuh"].shape[0]
    h = np.zeros((batch, hdim), x.dtype)
    h_seq = np.empty((batch, steps, hdim), x.dtype)
    cache = []
    for t in range(steps):
        x_t, h_prev = x[:, t, :], h
        u = reference_sigmoid(h_prev @ p["wuh"] + x_t @ p["wux"] + p["bu"])
        r = reference_sigmoid(h_prev @ p["wrh"] + x_t @ p["wrx"] + p["br"])
        hr = r * h_prev
        cand = np.tanh(hr @ p["wch"] + x_t @ p["wcx"] + p["bc"])
        h = (1.0 - u) * h_prev + u * cand
        cache.append((x_t, h_prev, u, r, hr, cand))
        h_seq[:, t, :] = h

    g = {name: np.zeros_like(value) for name, value in p.items()}
    dx = np.empty_like(x)
    dh_next = np.zeros((batch, hdim), x.dtype)
    for t in reversed(range(steps)):
        x_t, h_prev, u, r, hr, cand = cache[t]
        dh = d_h_seq[:, t, :] + dh_next
        du = dh * (cand - h_prev)
        dcand = dh * u
        dh_prev = dh * (1.0 - u)
        dcin = dcand * (1.0 - cand**2)
        g["wch"] += hr.T @ dcin
        g["wcx"] += x_t.T @ dcin
        g["bc"] += dcin.sum(axis=0)
        dhr = dcin @ p["wch"].T
        dx_t = dcin @ p["wcx"].T
        dr = dhr * h_prev
        dh_prev += dhr * r
        drin = dr * r * (1.0 - r)
        g["wrh"] += h_prev.T @ drin
        g["wrx"] += x_t.T @ drin
        g["br"] += drin.sum(axis=0)
        dh_prev += drin @ p["wrh"].T
        dx_t += drin @ p["wrx"].T
        duin = du * u * (1.0 - u)
        g["wuh"] += h_prev.T @ duin
        g["wux"] += x_t.T @ duin
        g["bu"] += duin.sum(axis=0)
        dh_prev += duin @ p["wuh"].T
        dx_t += duin @ p["wux"].T
        dx[:, t, :] = dx_t
        dh_next = dh_prev
    return h_seq, dx, g


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    bits = f"i{actual.itemsize}"
    np.testing.assert_array_equal(actual.view(bits), expected.view(bits))


def normal32(rng, size) -> np.ndarray:
    """Standard normal draws cast to float32, the nets' dtype."""
    return rng.normal(size=size).astype(np.float32)


SPECIAL_INPUTS = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300])


class TestSigmoid:
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
            elements=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
        )
    )
    def test_matches_the_piecewise_form_bit_for_bit(self, z):
        with np.errstate(over="raise"):
            assert_same_bits(sigmoid(z), reference_sigmoid(z))
            flat = np.concatenate([z.ravel(), SPECIAL_INPUTS])
            assert_same_bits(sigmoid(flat), reference_sigmoid(flat))


KERNEL_SHAPES = [(1, 1, 3), (3, 4, 3), (100, 4, 3)]


def random_layer(layer_cls, width, hidden, rng):
    """A float32 layer with standard-normal parameters times 0.5."""
    layer = layer_cls(width, hidden)
    for value in layer.params.values():
        value[...] = rng.normal(scale=0.5, size=value.shape)
    return layer


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize(
    ("layer_cls", "reference"), [(LSTMLayer, reference_lstm), (GRULayer, reference_gru)]
)
def test_recurrent_kernels_match_the_plain_loops_bit_for_bit(layer_cls, reference, shape):
    # the (1, 1, w) case runs only the zero-state step; the longer ones run it
    # and then the full step
    rng = np.random.default_rng(sum(shape))
    batch, steps, width = shape
    hidden = 4
    layer = random_layer(layer_cls, width, hidden, rng)
    x = normal32(rng, shape)
    d_h_seq = normal32(rng, (batch, steps, hidden))
    h_seq, cache = layer.forward(x)
    dx = layer.backward(d_h_seq, cache)
    ref_h_seq, ref_dx, ref_grads = reference(layer.params, x, d_h_seq)
    assert_same_bits(h_seq, ref_h_seq)
    assert_same_bits(dx, ref_dx)
    assert layer.grads.keys() == ref_grads.keys()
    for name, grad in layer.grads.items():
        assert_same_bits(grad, ref_grads[name])


def forward_backward(layer, x, d_out, workspace=None):
    """Output, input gradient and parameter gradients of one pass from zero
    gradients, copied out of any workspace array."""
    for grad in layer.grads.values():
        grad[...] = 0.0
    out, cache = layer.forward(x, workspace)
    out = out.copy()
    dx = layer.backward(d_out, cache)
    return out, dx, {name: grad.copy() for name, grad in layer.grads.items()}


@pytest.mark.parametrize(
    ("layer_cls", "reference"),
    [(LSTMLayer, reference_lstm), (GRULayer, reference_gru), (Conv1dLayer, None)],
)
def test_a_shared_workspace_changes_no_bits(layer_cls, reference):
    # batch 5, then 2, then 5 again: the second 5 reuses the first one's arrays
    rng = np.random.default_rng(12)
    steps, width, hidden = 4, 3, 4
    layer = random_layer(layer_cls, width, hidden, rng)
    # the convolution's kernel of 3 drops two steps
    out_steps = steps - 2 if layer_cls is Conv1dLayer else steps
    workspace = {}
    for batch in (5, 2, 5):
        x = normal32(rng, (batch, steps, width))
        d_out = normal32(rng, (batch, out_steps, hidden))
        out, dx, grads = forward_backward(layer, x, d_out, workspace)
        expected = [forward_backward(layer, x, d_out)]
        if reference is not None:
            expected.append(reference(layer.params, x, d_out))
        for ref_out, ref_dx, ref_grads in expected:
            assert_same_bits(out, ref_out)
            assert_same_bits(dx, ref_dx)
            for name, grad in grads.items():
                assert_same_bits(grad, ref_grads[name])
    assert workspace


class TestLstmLayer:
    def test_forward_matches_reference_loop(self, float64_nets):
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
        h = layer.step(h_prev, np.array([[0.3, 0.7]]))
        np.testing.assert_array_equal(h, 0.5 * h_prev)

    def test_closed_update_gate_keeps_the_state(self):
        layer = GRULayer(2, 3)
        layer.params["bu"][...] = -1000.0
        h_prev = np.array([[1.0, -2.0, 4.0]])
        h = layer.step(h_prev, np.array([[0.3, 0.7]]))
        np.testing.assert_array_equal(h, h_prev)

    def test_open_update_gate_jumps_to_the_candidate(self):
        layer = GRULayer(2, 3)
        layer.params["bu"][...] = 1000.0
        layer.params["bc"][...] = 0.3
        h = layer.step(
            np.array([[1.0, -2.0, 4.0]], np.float32), np.array([[0.3, 0.7]], np.float32)
        )
        np.testing.assert_array_equal(h, np.full((1, 3), np.tanh(np.float32(0.3))))

    def test_forward_matches_step_loop(self):
        rng = np.random.default_rng(4)
        layer = GRULayer(2, 3)
        for p in layer.params.values():
            p[...] = rng.normal(scale=0.5, size=p.shape)
        x = rng.normal(size=(2, 5, 2))
        h_seq, _ = layer.forward(x)
        h = np.zeros((2, 3))
        for t in range(5):
            h = layer.step(h, x[:, t, :])
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
        x = normal32(np.random.default_rng(8), (2, 5, 2))
        out, _ = layer.forward(x)
        np.testing.assert_array_equal(out, np.tanh(x[:, 1:4, :]))

    def test_matches_naive_convolution(self, float64_nets):
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


TINY = NetConfig(hidden_sizes=(3,), epochs=1, batch_size=4, learning_rate=0.01)


@pytest.mark.parametrize("model_cls", [BiLstmRegressor, CnnGruRegressor, LstmRegressor])
def test_analytic_gradients_match_finite_differences(model_cls, float64_nets):
    rng = np.random.default_rng(7)
    for _ in range(3):
        assert gradient_rel_err(model_cls, TINY, rng) < 1e-6


@pytest.mark.parametrize("model_cls", [BiLstmRegressor, CnnGruRegressor, LstmRegressor])
def test_float32_gradients_match_float64_ones(model_cls, monkeypatch):
    # the same float32-representable parameters and batch in both dtypes; the
    # float32 gradient's relative L2 error, about 3e-7 at these shapes, is held
    # under 1e-5
    config = NetConfig(hidden_sizes=(16, 8))
    rng = np.random.default_rng(8)
    model = model_cls(config, record_width=5, lag=4)
    model.theta[...] = rng.uniform(-0.3, 0.3, size=model.theta.size)
    x_seq, y = normal32(rng, (100, 4, 5)), normal32(rng, 100)
    model.loss_and_grads(x_seq, y)
    assert model.grad.dtype == np.float32
    monkeypatch.setattr(nn, "DTYPE", np.float64)
    wide = model_cls(config, record_width=5, lag=4)
    wide.theta[...] = model.theta
    wide.loss_and_grads(x_seq.astype(np.float64), y.astype(np.float64))
    assert wide.grad.dtype == np.float64
    error = np.linalg.norm(model.grad - wide.grad) / np.linalg.norm(wide.grad)
    assert error < 1e-5


@pytest.mark.parametrize("kind", ["bilstm", "cnn_gru", "lstm_xgb"])
def test_a_fit_runs_in_float32_and_predicts_float64(kind, monkeypatch):
    # one stray np.empty(shape) or np.zeros(shape) in a pass would upcast the
    # arrays after it to float64 without failing anything else
    # (what, array): workspace arrays, and each layer pass's input and output
    # (for backward, the gradient it is handed and its dx)
    seen = []
    original = nn.buffer

    def recording_buffer(workspace, key, shape):
        array = original(workspace, key, shape)
        if workspace is not None:
            seen.append((f"workspace {key[1]}", array))
        return array

    def recording(method, name):
        def wrapper(self, given, *args, **kwargs):
            result = method(self, given, *args, **kwargs)
            seen.append((f"{name} input", given))
            seen.append((name, result[0] if name.endswith("forward") else result))
            return result

        return wrapper

    monkeypatch.setattr(nn, "buffer", recording_buffer)
    for cls in (LSTMLayer, BiLSTMLayer, GRULayer, Conv1dLayer, nn.DenseHead):
        for method in ("forward", "backward"):
            name = f"{cls.__name__}.{method}"
            monkeypatch.setattr(cls, method, recording(getattr(cls, method), name))
    data = toy_supervised()
    model = fit_learner(kind, data, SMALL[kind])
    names = {name for name, _ in seen}
    assert {"DenseHead.forward", "DenseHead.backward"} <= names
    assert any(name.startswith("workspace") for name in names)
    assert [name for name, array in seen if array.dtype != np.float32] == []
    assert model.theta.dtype == model.grad.dtype == np.float32
    assert model.predict(data.inputs).dtype == np.float64


@pytest.mark.parametrize("model_cls", [BiLstmRegressor, CnnGruRegressor])
def test_a_workspace_leaves_the_same_gradient(model_cls):
    rng = np.random.default_rng(6)
    model = model_cls(NetConfig(hidden_sizes=(4, 3)), record_width=3, lag=4)
    model.theta[...] = rng.normal(scale=0.5, size=model.theta.size)
    workspace = {}
    for batch in (5, 2, 5):
        x_seq, y = normal32(rng, (batch, 4, 3)), normal32(rng, batch)
        loss = model.loss_and_grads(x_seq, y, workspace)
        grad = model.grad.copy()
        assert model.loss_and_grads(x_seq, y) == loss
        assert_same_bits(model.grad, grad)
    assert workspace


@pytest.mark.parametrize("kind", ["bilstm", "cnn_gru", "lstm_xgb"])
def test_a_fit_drops_its_workspace(kind, monkeypatch):
    # arrays a fit keeps past its return grow with each predict batch size
    # and raise a forecast's peak memory
    handed_out = []
    original = nn.buffer

    def recording_buffer(workspace, key, shape):
        array = original(workspace, key, shape)
        if workspace is not None:
            handed_out.append(weakref.ref(array))
        return array

    monkeypatch.setattr(nn, "buffer", recording_buffer)
    data = toy_supervised()
    model = fit_learner(kind, data, SMALL[kind])
    assert handed_out
    # freed on return, without waiting for a garbage collection
    assert all(ref() is None for ref in handed_out)
    first, second = model.predict(data.inputs), model.predict(data.inputs)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("model_cls", [BiLstmRegressor, CnnGruRegressor, LstmRegressor])
def test_layer_arrays_are_views_of_theta_and_grad(model_cls):
    model = model_cls(NetConfig(hidden_sizes=(3, 2)), record_width=2, lag=4)
    model.theta[...] = np.arange(model.theta.size)
    model.grad[...] = -np.arange(model.grad.size)
    for vector, attr in ((model.theta, "params"), (model.grad, "grads")):
        entries = [a for layer in model._all_layers for a in getattr(layer, attr).values()]
        # layers in turn, each in dict order: the layout of every saved theta
        assert np.array_equal(np.concatenate([a.ravel() for a in entries]), vector)
        assert all(np.shares_memory(a, vector) for a in entries)
        for layer in model.layers:
            if isinstance(layer, BiLSTMLayer):
                for prefix in ("fwd", "bwd"):
                    for name, a in getattr(getattr(layer, prefix), attr).items():
                        assert a is getattr(layer, attr)[f"{prefix}_{name}"]


class TestBoostedTrees:
    def test_constant_targets_never_move(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 3.25)
        model = BoostedTrees.fit(x, y, rounds=10)
        assert model.base_score == 3.25
        np.testing.assert_array_equal(model.predict(x), y)
        assert all(len(tree.feature) == 1 for tree in model.trees)
        assert model.objective_history == [0.0] * 11

    def test_huge_gamma_freezes_at_the_base_score(self):
        # mean 2.0 is exact in floats, so the first gradient sum is exactly
        # zero and every root stays an unsplit zero-valued leaf
        x = np.arange(8.0).reshape(-1, 1)
        y = np.array([1.0, 3.0] * 4)
        model = BoostedTrees.fit(x, y, rounds=5, gamma_reg=1e12)
        assert all(len(tree.feature) == 1 for tree in model.trees)
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

    def test_training_predictions_match_the_recorded_digest(self):
        """The fit's running prediction, which sets every gradient and
        objective, was recorded when ``Tree.predict`` walked one row at a
        time; routing all rows together must not move a bit. The objective
        digest was re-recorded when trees came to be stored in level order:
        its penalty sums the leaf values in node order. The predictions were
        recorded with trees in preorder and hold."""
        rng = np.random.default_rng(8)
        x = np.round(rng.normal(size=(120, 5)), 1)
        y = np.round(x[:, 0] - x[:, 2] ** 2 + rng.normal(size=120), 1)
        model = BoostedTrees.fit(x, y, rounds=25, max_depth=3, gamma_reg=0.1)
        digest = hashlib.sha256(np.array(model.objective_history).tobytes()).hexdigest()
        assert digest == "d19da60d0d212bc2c4ece2d4da4fa2606e8bf5df918a4f822e44c74e7b38a1f0"
        digest = hashlib.sha256(model.predict(x).tobytes()).hexdigest()
        assert digest == "bdc5333c19ceccf0dfc137a0e49ca5fc2fb32400d00bfc893409f78a60c3523c"

    def test_zero_rounds_is_the_mean_predictor(self):
        x = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        model = BoostedTrees.fit(x, y, rounds=0)
        np.testing.assert_array_equal(model.predict(x), np.full(6, 2.5))
        assert len(model.objective_history) == 1


def fit_forest(x: np.ndarray, y: np.ndarray, tree_count: int, seed: int) -> ForestRegressor:
    """The random_forest learner on raw (x, y) rows."""
    data = SupervisedSet(
        inputs=x, targets=y, lag=1, record_width=x.shape[1], target_indices=np.arange(len(y))
    )
    return fit_learner("random_forest", data, ForestConfig(tree_count=tree_count, rng_seed=seed))


class TestRandomForest:
    def test_single_unbagged_tree_memorizes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        tree = build_cart(x, y, np.random.default_rng(0))
        np.testing.assert_array_equal(tree.predict(x), y)

    def test_a_grown_tree_loads_back_whole_and_not_cut(self):
        rng = np.random.default_rng(5)
        tree = build_cart(rng.normal(size=(12, 3)), rng.normal(size=12), rng)
        state = tree.state()
        assert Tree.load(state, 3).state() == state
        for cut in ({**state, "value": state["value"][:-1]}, {key: [] for key in state}):
            with pytest.raises(ValueError, match="empty or of unequal length"):
                Tree.load(cut, 3)

    def test_prediction_is_the_plain_tree_mean(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        forest = fit_forest(x, y, tree_count=10, seed=0)
        manual = np.stack([tree.predict(x) for tree in forest.trees]).mean(axis=0)
        np.testing.assert_array_equal(forest.predict(x), manual)

    def test_no_tree_shares_a_seed_with_another_or_the_optimizer(self, monkeypatch):
        # at --seed 5 a tree seeded with rng_seed + index drew the optimizer's
        # stream: tree 6 of the forest's 9 hit the optimizer's 15
        config = build_run_config(preset="desk", seed=5)
        forest_config = config.learners["random_forest"]
        data = toy_supervised()
        seeds = []
        original = np.random.default_rng

        def recording(seed=None):
            seeds.append(seed)
            return original(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        fit_learner("random_forest", data, forest_config)
        monkeypatch.undo()
        assert len(seeds) == forest_config.tree_count
        streams = {
            tuple(np.random.SeedSequence(seed).generate_state(4))
            for seed in [*seeds, config.optimizer.rng_seed]
        }
        assert len(streams) == len(seeds) + 1

    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        a = fit_forest(x, y, tree_count=5, seed=9).predict(x)
        b = fit_forest(x, y, tree_count=5, seed=9).predict(x)
        np.testing.assert_array_equal(a, b)

    def test_a_fitted_forest_holds_its_trees_in_compact_arrays(self):
        # 100 trees of about 145 nodes: five 8-byte entries a node, plus
        # each tree's array headers; per-node Python lists held about 82
        # bytes a node
        config = build_run_config(preset="desk", seed=5).learners["random_forest"]
        data = toy_supervised(n=116, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            forest = fit_learner("random_forest", data, config)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        nodes = 0
        for tree in forest.trees:
            count = len(tree.feature)
            for name, array in vars(tree).items():
                expected = np.float64 if name in ("threshold", "value") else np.int64
                assert array.dtype == expected and array.shape == (count,)
                assert array.base is None
            nodes += count
        assert held / nodes < 60, f"{held} bytes over {nodes} nodes"

    def test_bagging_beats_the_median_tree_out_of_sample(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(120, 4))
        y = x[:, 0] - 0.5 * x[:, 1] ** 2 + 0.3 * rng.normal(size=120)
        forest = fit_forest(x[:80], y[:80], tree_count=30, seed=0)
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
    def test_every_cart_split_is_the_least_sse_cut_of_its_rows(self, seed):
        x, rng = tied_columns(seed)
        y = rng.integers(0, 3, size=len(x)).astype(float)
        tree = build_cart(x, y, rng)
        internal = np.flatnonzero(tree.feature != -1)
        assert len(internal) > 5
        members = node_rows(tree, x)
        for node in internal.tolist():
            rows = members[node]
            cut = (tree.feature[node], tree.threshold[node])
            assert cut == exact_optima(x[rows], negative_sse(y[rows]))[0]

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

    def test_a_zero_sum_boosted_leaf_stores_minus_zero(self):
        # the leaves are negated after growth: growing on -g would store +0.0
        x = np.arange(4.0).reshape(-1, 1)
        root = build_boosted_tree(x[:2], np.array([1.0, -1.0]), 1.0, 0.0, max_depth=0)
        stump = build_boosted_tree(x, np.array([2.0, -2.0, 5.0, 5.0]), 1.0, 0.0, max_depth=1)
        assert len(root.feature) == 1 and len(stump.feature) == 3
        for value in (root.value[0], stump.value[1]):
            assert value == 0.0 and np.signbit(value)

    def test_equal_gradients_stay_a_leaf_at_lambda_zero(self):
        # the gain of any cut is 0 in exact arithmetic but rounds above it
        x = np.arange(3.0).reshape(-1, 1)
        tree = build_boosted_tree(x, np.full(3, 0.1), 0.0, 0.0, max_depth=3)
        assert len(tree.feature) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "low, high",
        [(1.0000000000000002, 1.0000000000000004), (1e308, 1.5e308), (0.0, np.inf)],
        ids=["adjacent_doubles", "overflowing_sum", "infinite_upper"],
    )
    def test_threshold_separates_when_the_midpoint_does_not(self, low, high):
        # (low + high) / 2 is high or inf here, and x <= it would keep both rows
        # together: the threshold falls back to the largest double below high
        x = np.array([[low], [high]])
        y = np.array([0.0, 1.0])
        cart = build_cart(x, y, np.random.default_rng(0))
        boosted = build_boosted_tree(x, 1.0 - 2.0 * y, 1.0, 0.0, max_depth=3)
        for tree in (cart, boosted):
            assert len(tree.feature) == 3
            assert tree.threshold[0] == np.nextafter(high, low)
        np.testing.assert_array_equal(cart.predict(x), y)
        np.testing.assert_array_equal(boosted.predict(x), [-0.5, 0.5])


def golden_sample() -> tuple[np.ndarray, np.ndarray]:
    """A seeded bootstrap: duplicated rows, and x and y rounded to one decimal
    so that values tie within columns, within targets and between cuts."""
    rng = np.random.default_rng(2024)
    x = np.round(rng.normal(size=(150, 9)), 1)
    y = np.round(x[:, 0] - x[:, 3] ** 2 + rng.normal(size=150), 1)
    rows = rng.integers(0, 150, size=150)
    return x[rows], y[rows]


def sha256_of(tree) -> str:
    return hashlib.sha256(json.dumps(tree.state()).encode()).hexdigest()


def level_order(tree, root: int = 0) -> list[int]:
    """The nodes under ``root`` as a breadth-first walk of the links meets
    them: depth by depth, each split's left child before its right."""
    walk = [root]
    for node in walk:
        if tree.feature[node] != -1:
            walk += [int(tree.left[node]), int(tree.right[node])]
    return walk


def node_rows(tree, x) -> dict[int, np.ndarray]:
    """The training rows that reach each node of a tree grown on ``x``,
    ascending."""
    members = {0: np.arange(len(x))}
    for node in level_order(tree):  # parents first
        if tree.feature[node] != -1:
            rows = members[node]
            left = x[rows, tree.feature[node]] <= tree.threshold[node]
            members[tree.left[node]], members[tree.right[node]] = rows[left], rows[~left]
    return members


def renumbered(tree, order: list[int]) -> Tree:
    """The subtree of ``tree`` whose nodes are ``order``, numbered by their
    places in it."""
    order = np.array(order)
    place = np.full(len(tree.feature), -1)
    place[order] = np.arange(len(order))
    split = tree.feature[order] != -1
    left, right = (np.where(split, place[links[order]], -1) for links in (tree.left, tree.right))
    return Tree(tree.feature[order], tree.threshold[order], left, right, tree.value[order])


def preorder(tree) -> Tree:
    """``tree`` renumbered into preorder, the node order of the model files
    written while trees were stored in preorder."""
    order, stack = [], [0]
    while stack:
        order.append(node := stack.pop())
        if tree.feature[node] != -1:
            stack += [int(tree.right[node]), int(tree.left[node])]
    return renumbered(tree, order)


class TestGoldenTrees:
    """Trees pinned to the bit: a faster grower must reproduce them exactly.

    ROADMAP item 13 (ties decided by last-bit noise) will change these
    digests on purpose; a change that only speeds growth up must not.
    ``cart_sqrt_features`` was re-recorded when the feature draw became one
    ``rng.random`` per depth, and again when CART came to score its cuts by
    the second-order gain at lambda 0, which ties up to rounding where the
    squared error did not. The trees of more than one depth were
    re-recorded when trees came to be stored in level order; renumbered into
    preorder, each still hashes to the digest recorded before.
    """

    @pytest.mark.parametrize(
        "build, nodes, digest, preorder_digest",
        [
            (
                lambda x, y, g: build_cart(x, y, np.random.default_rng(3), features_per_split=3),
                177,
                "3dec454886b52896b50fcf1de1a2f0379663afd45ada5530fb8839a18e56dda8",
                "d0ae8056ed869535a0bc62e147e288806091c02c65377e9d43b100dd703b2fd5",
            ),
            (
                lambda x, y, g: build_cart(x, y, np.random.default_rng(3), max_depth=3),
                15,
                "1240a87ca78439724e43281d8646c711c6971e43456285526c91ee6b09a3e1ae",
                "94b903c913ffe68d8a31673f08893498d8874bad016e866552132703f322dbcd",
            ),
            (
                lambda x, y, g: build_boosted_tree(x, g, 1.0, gamma_reg=0.5, max_depth=1),
                3,
                "8818fcd415ab894db0dfa1e021a2a3c52dc8af47cd8a6a52b1f167a092257536",
                "8818fcd415ab894db0dfa1e021a2a3c52dc8af47cd8a6a52b1f167a092257536",
            ),
            (
                lambda x, y, g: build_boosted_tree(x, g, 1.0, gamma_reg=0.5, max_depth=3),
                15,
                "acf3eecea72f13650c7c379bc5e3f342549cb81914a92e95db15fb432572982f",
                "a3a008dbe718b5afc76b12206ce1ea11ce7088eabe3513205bdf864876ebd0d1",
            ),
        ],
        ids=["cart_sqrt_features", "cart_depth_3", "boosted_depth_1", "boosted_depth_3"],
    )
    def test_tree(self, build, nodes, digest, preorder_digest):
        x, y = golden_sample()
        tree = build(x, y, np.round(y - y.mean(), 1))
        assert len(tree.feature) == nodes
        assert sha256_of(tree) == digest
        assert sha256_of(preorder(tree)) == preorder_digest

    def test_boosting_predictions(self):
        x, y = golden_sample()
        model = BoostedTrees.fit(x, y, rounds=20, max_depth=3, gamma_reg=0.5)
        assert (
            hashlib.sha256(model.predict(x).tobytes()).hexdigest()
            == "89b5486d25f3dc01a514d2fa70402b9bd54d81ddd20add5826df6aa2fe85a495"
        )


class TestLevelWisePredict:
    """``Tree.predict`` moves all rows down one level a pass; each case holds
    it bit for bit to ``reference_predict``, the per-row walk."""

    @staticmethod
    def golden_trees():
        x, y = golden_sample()
        g = np.round(y - y.mean(), 1)
        cart = build_cart(x, y, np.random.default_rng(3), features_per_split=3)
        return x, (cart, build_boosted_tree(x, g, 1.0, gamma_reg=0.5, max_depth=3))

    def test_golden_trees_on_their_rows_and_on_new_ones(self):
        x, trees = self.golden_trees()
        fresh = np.random.default_rng(11).normal(size=(200, x.shape[1]))
        for tree in trees:
            assert_routes_as_the_walk(tree, x)
            assert_routes_as_the_walk(tree, fresh)

    def test_rows_on_a_threshold(self):
        x, trees = self.golden_trees()
        for tree in trees:
            # each row takes, on its way down, the threshold of every split
            # whose feature it has not met yet
            rows = x.copy()
            for sample in rows:
                node, met = 0, set()
                while tree.feature[node] != -1:
                    feature = tree.feature[node]
                    if feature not in met:
                        sample[feature] = tree.threshold[node]
                        met.add(feature)
                    go_left = sample[feature] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
            assert_routes_as_the_walk(tree, rows)

    def test_a_nan_feature_goes_right(self):
        x, trees = self.golden_trees()
        rows = x[:40].copy()
        rows[np.random.default_rng(12).random(rows.shape) < 0.3] = np.nan
        for tree in trees:
            assert_routes_as_the_walk(tree, rows)
            node = 0
            while tree.feature[node] != -1:
                node = tree.right[node]
            assert tree.predict(np.full(x.shape[1], np.nan)) == tree.value[node]

    def test_a_single_leaf_tree(self):
        x = np.random.default_rng(13).normal(size=(10, 3))
        tree = build_cart(x, np.full(10, 2.5), np.random.default_rng(0))
        assert len(tree.feature) == 1
        assert_routes_as_the_walk(tree, x)
        np.testing.assert_array_equal(tree.predict(x), np.full(10, 2.5))

    def test_no_rows_and_one_flat_row(self):
        x, trees = self.golden_trees()
        for tree in trees:
            empty = tree.predict(np.empty((0, x.shape[1])))
            assert empty.shape == (0,) and empty.dtype == np.float64
            assert_routes_as_the_walk(tree, np.empty((0, x.shape[1])))
            assert tree.predict(x[7]).shape == (1,)
            assert_routes_as_the_walk(tree, x[7])


class TestLevelWiseGrowth:
    """The grower scores all nodes of one depth together; no node may feel
    the others."""

    def test_an_empty_training_set_is_named(self):
        x, y = np.empty((0, 3)), np.empty(0)
        with pytest.raises(ValueError, match="empty training set"):
            build_cart(x, y, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty training set"):
            build_boosted_tree(x, y, 1.0, 0.0, max_depth=2)

    def test_a_nodes_subtree_depends_only_on_its_rows(self):
        # grown alone on a node's rows (kept ascending), CART rebuilds the
        # node's subtree, gathered by its links, bit for bit: no prefix sum
        # runs across nodes
        x, y = golden_sample()
        tree = build_cart(x, y, np.random.default_rng(3))
        members = node_rows(tree, x)
        internal = np.flatnonzero(tree.feature != -1)
        assert len(internal) > 50
        for node in internal.tolist():
            rows = members[node]
            alone = build_cart(x[rows], y[rows], np.random.default_rng(0))
            subtree = renumbered(tree, level_order(tree, node))
            assert json.dumps(alone.state()) == json.dumps(subtree.state())

    def test_trees_are_stored_in_level_order(self):
        # a breadth-first walk from the root meets the nodes in index order
        x, y = golden_sample()
        g = np.round(y - y.mean(), 1)
        for tree in (
            build_cart(x, y, np.random.default_rng(3), features_per_split=3),
            build_cart(x, y, np.random.default_rng(3)),
            build_boosted_tree(x, g, 1.0, gamma_reg=0.0, max_depth=6),
            build_cart(x, np.full(len(y), 2.5), np.random.default_rng(0)),
        ):
            assert level_order(tree) == list(range(len(tree.feature)))

    def test_a_forest_saved_in_preorder_loads_and_predicts_alike(self, tmp_path):
        # model files written while trees were stored in preorder are format
        # 3 too, and must load and predict as they did
        data = toy_supervised()
        forest = fit_learner("random_forest", data, SMALL["random_forest"])
        path = tmp_path / "model.npz"
        save_model(forest, path)
        with np.load(path) as saved:
            meta = json.loads(str(saved["meta"][()]))
        old = [preorder(tree).state() for tree in forest.trees]
        assert sum(state != tree.state() for state, tree in zip(old, forest.trees)) > 5
        meta["extra"]["trees"] = old
        write_npz(path, json.dumps(meta), {})
        loaded = load_model(path)
        assert [tree.state() for tree in loaded.trees] == old
        assert_same_bits(loaded.predict(data.inputs), forest.predict(data.inputs))

    @pytest.mark.parametrize("cells", [1, 1 << 20], ids=["one_node_a_block", "one_block_a_depth"])
    def test_the_block_width_changes_no_tree(self, monkeypatch, cells):
        x, y = golden_sample()
        g = np.round(y - y.mean(), 1)

        def grow():
            return [
                json.dumps(tree.state())
                for tree in (
                    build_cart(x, y, np.random.default_rng(3), features_per_split=3),
                    build_cart(x, y, np.random.default_rng(3)),
                    build_boosted_tree(x, g, 1.0, gamma_reg=0.0, max_depth=6),
                )
            ]

        default = grow()
        monkeypatch.setattr(trees, "_BLOCK_CELLS", cells)
        assert grow() == default


# --- frozen reference: the grower that sorted each node's columns afresh


def reference_tree(x, y, max_depth, leaf_value, cut_scores, candidates, min_score) -> dict:
    """Growth one depth at a time that argsorts the candidate columns at
    every node, numbering the nodes in level order; the presorted grower must
    build the same tree bit for bit. ``candidates`` gets the targets of a
    depth's nodes of two or more rows above ``max_depth``, in level order, and
    returns each one's candidate features, or None to keep it a leaf."""
    nodes = [{"rows": np.arange(len(y)), "left": -1, "right": -1}]
    level, depth = nodes[:], 0
    while level:
        for node in level:
            node["value"] = leaf_value(y[node["rows"]])
        if max_depth is not None and depth >= max_depth:
            break
        open_nodes = [node for node in level if len(node["rows"]) > 1]
        level = []
        for node, features in zip(open_nodes, candidates([y[n["rows"]] for n in open_nodes])):
            if features is None:
                continue
            rows = node["rows"]
            sub_y = y[rows]
            cols = x[rows[:, None], features]
            order = np.argsort(cols, axis=0, kind="stable")
            xs = np.take_along_axis(cols, order, axis=0)
            scores = cut_scores(sub_y[order], sub_y)
            scores[~(xs[1:] > xs[:-1])] = -np.inf
            column, row = divmod(int(np.argmax(scores.T)), len(rows) - 1)
            if scores[row, column] <= min_score:
                continue
            node["feature"] = int(features[column])
            node["threshold"] = float((xs[row, column] + xs[row + 1, column]) / 2.0)
            goes_left = x[rows, node["feature"]] <= node["threshold"]
            node["left"], node["right"] = len(nodes), len(nodes) + 1
            for part in (rows[goes_left], rows[~goes_left]):
                nodes.append({"rows": part, "left": -1, "right": -1})
                level.append(nodes[-1])
        depth += 1
    return {
        "feature": [node.get("feature", -1) for node in nodes],
        "threshold": [node.get("threshold", 0.0) for node in nodes],
        **{key: [node[key] for node in nodes] for key in ("left", "right", "value")},
    }


def reference_predict(tree, x) -> np.ndarray:
    """The per-row walk that ``Tree.predict`` did before it routed all rows
    together; the level-wise predict must return its bits."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty(len(x))
    for row, sample in enumerate(x):
        node = 0
        while tree.feature[node] != -1:
            if sample[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[row] = tree.value[node]
    return out


def assert_routes_as_the_walk(tree, x) -> None:
    np.testing.assert_array_equal(
        tree.predict(x).view(np.int64), reference_predict(tree, x).view(np.int64)
    )


def reference_gain(lambda_reg):
    def gain(gs, g):
        n, total_g = len(g), g.sum()
        left_g = np.cumsum(gs, axis=0)[:-1]
        left_n = np.arange(1, n, dtype=np.float64)[:, None]
        return 0.5 * (
            left_g**2 / (left_n + lambda_reg)
            + (total_g - left_g) ** 2 / (n - left_n + lambda_reg)
            - total_g**2 / (n + lambda_reg)
        )

    return gain


def reference_cart_candidates(rng, n_features, per_split):
    """Per depth: one key row a node whose targets differ, drawn together in
    level order; a node takes the features of its row's k smallest keys."""

    def candidates(targets):
        varied = [not np.all(t == t[0]) for t in targets]
        if per_split is None or per_split >= n_features:
            return [np.arange(n_features) if v else None for v in varied]
        keys = iter(rng.random((sum(varied), n_features)))
        return [np.sort(np.argsort(next(keys))[:per_split]) if v else None for v in varied]

    return candidates


@pytest.mark.parametrize("seed", range(48))
def test_presorted_growth_matches_per_node_sorting(seed):
    # bootstraps of rounded values: duplicated rows, ties within columns,
    # tied scores between columns, and -0.0 targets
    rng = np.random.default_rng(seed)
    n, f = int(rng.integers(2, 90)), int(rng.integers(1, 7))
    x = np.round(rng.normal(size=(n, f)), int(rng.integers(0, 3)))
    y = np.round(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), int(rng.integers(0, 4)))
    rows = rng.integers(0, n, size=n)
    x, y = x[rows], y[rows]
    depth, per_split = [None, 1, 2, 5][seed % 4], [None, 1, 2, f][seed // 4 % 4]
    lambda_reg, gamma_reg = [0.0, 1.0, 3.0][seed % 3], [0.0, 0.1][seed % 2]

    cart = build_cart(x, y, np.random.default_rng(seed), depth, per_split)
    expected = reference_tree(
        x,
        y,
        depth,
        lambda t: float(t.mean()),
        reference_gain(0.0),
        reference_cart_candidates(np.random.default_rng(seed), f, per_split),
        -np.inf,
    )
    assert json.dumps(cart.state()) == json.dumps(expected)

    boosted = build_boosted_tree(x, y, lambda_reg, gamma_reg, depth or 4)
    expected = reference_tree(
        x,
        y,
        depth or 4,
        lambda g: float(-g.sum() / (len(g) + lambda_reg)),
        reference_gain(lambda_reg),
        lambda targets: [np.arange(f)] * len(targets),
        gamma_reg,
    )
    assert json.dumps(boosted.state()) == json.dumps(expected)
    for tree in (cart, boosted):
        assert_routes_as_the_walk(tree, x)


SMALL_NET = NetConfig(hidden_sizes=(6,), epochs=8, batch_size=8, learning_rate=0.05, rng_seed=3)
# 30 rounds so the boosted stage splits on the LSTM's forecast; with 10 it
# ignores that column and the LSTM settings never reach the predictions
SMALL = {
    "bilstm": SMALL_NET,
    "cnn_gru": SMALL_NET,
    "lstm_xgb": StackConfig(**dataclasses.asdict(SMALL_NET), boosting_rounds=30),
    "random_forest": ForestConfig(tree_count=10, rng_seed=3),
}

# per config type, a value for each field that must change a fit's predictions
CHANGED = {
    NetConfig: {
        "learning_rate": 0.2,
        "batch_size": 3,
        "hidden_sizes": (4,),
        "epochs": 2,
        "rng_seed": 4,
    },
    ForestConfig: {"tree_count": 3, "max_depth": 1, "rng_seed": 4},
}
CHANGED[StackConfig] = {
    **CHANGED[NetConfig],
    "max_depth": 3,
    "boosting_rounds": 0,
    "lambda_reg": 1e6,
    "gamma_reg": 1e6,
}


class TestModelLifecycle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_is_deterministic(self, kind):
        data = toy_supervised()
        first = fit_learner(kind, data, SMALL[kind]).predict(data.inputs)
        second = fit_learner(kind, data, SMALL[kind]).predict(data.inputs)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("kind", KINDS)
    def test_save_load_round_trip_is_bit_exact(self, kind, tmp_path):
        data = toy_supervised()
        model = fit_learner(kind, data, SMALL[kind])
        before = model.predict(data.inputs)
        path = tmp_path / f"{kind}.npz"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(before, loaded.predict(data.inputs))
        # the format is symmetric: a reloaded model saves to the same bytes
        again = tmp_path / f"{kind}_again.npz"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_predict_before_fit_raises(self):
        for cls in (BiLstmRegressor, CnnGruRegressor, LstmBoostedRegressor, ForestRegressor):
            with pytest.raises(UntrainedModel, match=cls.kind):
                cls(SMALL[cls.kind], 5, 2).predict(np.zeros((1, 10)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "shape", [(3, 21), (3, 19), (3, 4, 5)], ids=["wider", "narrower", "three_dims"]
    )
    def test_predict_takes_rows_of_its_own_width_only(self, kind, shape):
        data = toy_supervised()
        assert data.inputs.shape[1] == 20
        model = fit_learner(kind, data, SMALL[kind])
        with pytest.raises(DimensionMismatch, match=f"{kind} rows need 20 features"):
            model.predict(np.zeros(shape))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        ("lag", "record_width", "columns"),
        [(5, 6, 30), (6, 4, 24), (4, 6, 30)],
        ids=["longer_lag", "same_width_other_layout", "rows_wider_than_the_set_says"],
    )
    def test_fit_takes_sets_of_its_own_layout_only(self, kind, lag, record_width, columns):
        model = _MODEL_CLASSES[kind](SMALL[kind], 6, 4)
        data = toy_supervised(width=6, lag=5)
        data = dataclasses.replace(
            data, inputs=data.inputs[:, :columns], lag=lag, record_width=record_width
        )
        with pytest.raises(DimensionMismatch, match=kind):
            model.fit(data)
        assert not model.trained

    def test_lstm_xgb_is_the_lstm_net_plus_boosted_trees(self):
        data = toy_supervised()
        model = fit_learner("lstm_xgb", data, SMALL["lstm_xgb"])
        net = LstmRegressor(SMALL_NET, data.record_width, data.lag).fit(data)
        assert isinstance(model, LstmRegressor) and not hasattr(model, "stage1")
        np.testing.assert_array_equal(model.theta, net.theta)
        stacked = np.column_stack([data.inputs, net.predict(data.inputs)])
        np.testing.assert_array_equal(model.predict(data.inputs), model.stage2.predict(stacked))

    def test_lstm_xgb_is_unfit_until_its_trees_are(self, monkeypatch):
        def fail(*_, **__):
            raise RuntimeError("boosting failed")

        monkeypatch.setattr(BoostedTrees, "fit", fail)
        model = LstmBoostedRegressor(SMALL["lstm_xgb"], 5, 4)
        with pytest.raises(RuntimeError):
            model.fit(toy_supervised())
        assert not model.trained

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_learner("mlp", toy_supervised(), SMALL_NET)

    def test_registry_is_the_four_kinds(self):
        assert tuple(_MODEL_CLASSES) == KINDS
        # the plain LSTM net under lstm_xgb is not a learner of its own
        with pytest.raises(ValueError):
            fit_learner("lstm", toy_supervised(), SMALL_NET)

    @pytest.mark.parametrize(
        "change",
        [{"kind": "mlp"}, {"kind": "lstm"}, {"format": 1}],
        ids=["kind_mlp", "kind_lstm", "format_1"],
    )
    def test_load_rejects_unknown_files(self, change, tmp_path):
        path = tmp_path / "model.npz"
        save_model(fit_learner("lstm_xgb", toy_supervised(), SMALL["lstm_xgb"]), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = {**json.loads(str(arrays.pop("meta")[()])), **change}
        with path.open("wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_load_names_an_old_format_and_a_float64_theta(self, tmp_path):
        path = tmp_path / "model.npz"
        model = fit_learner("bilstm", toy_supervised(), SMALL["bilstm"])
        save_model(model, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays.pop("meta")[()]))
        assert meta["format"] == 3 and arrays["theta"].dtype == np.float32
        write_npz(path, json.dumps({**meta, "format": 2}), arrays)
        with pytest.raises(ModelFileError, match="model format 2, expected 3"):
            load_model(path)
        write_npz(path, json.dumps(meta), {**arrays, "theta": arrays["theta"].astype(np.float64)})
        with pytest.raises(ModelFileError, match="theta of dtype float64, expected float32"):
            load_model(path)
        write_npz(path, json.dumps(meta), arrays)
        assert_same_bits(load_model(path).theta, model.theta)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path, meta, arrays: path.write_text("index,actual,point\n"),
            lambda path, meta, arrays: path.write_bytes(path.read_bytes()[:200]),
            lambda path, meta, arrays: write_npz(path, None, arrays),
            lambda path, meta, arrays: write_npz(path, "{format: 2", arrays),
            lambda path, meta, arrays: write_npz(path, "[2]", arrays),
            lambda path, meta, arrays: write_npz(
                path, json.dumps({k: v for k, v in meta.items() if k != "extra"}), arrays
            ),
            lambda path, meta, arrays: write_npz(
                path, json.dumps({**meta, "config": {"tree_count": 10}}), arrays
            ),
            lambda path, meta, arrays: write_npz(
                path, json.dumps(meta), {k: v for k, v in arrays.items() if k != "theta"}
            ),
            lambda path, meta, arrays: write_npz(
                path, json.dumps(meta), {**arrays, "theta": np.append(arrays["theta"], 1.0)}
            ),
            lambda path, meta, arrays: write_npz(
                path, json.dumps(meta), {**arrays, "theta": arrays["theta"][:1]}
            ),
            lambda path, meta, arrays: write_npz(
                path, json.dumps(meta), {**arrays, "x_mean": arrays["x_mean"][:3]}
            ),
            lambda path, meta, arrays: write_npz(
                path, damage_root(meta, meta["extra"]["stage2"]["trees"], "feature", 99), arrays
            ),
            lambda path, meta, arrays: write_npz(
                path, damage_root(meta, meta["extra"]["stage2"]["trees"], "left", 0), arrays
            ),
            lambda path, meta, arrays: write_npz(
                path, damage_root(meta, meta["extra"]["stage2"]["trees"], "feature", 2.0), arrays
            ),
            lambda path, meta, arrays: write_npz(
                path, damage_root(meta, meta["extra"]["stage2"]["trees"], "feature", True), arrays
            ),
            lambda path, meta, arrays: write_npz(
                path,
                damage_root(meta, meta["extra"]["stage2"]["trees"], "threshold", "1.0"),
                arrays,
            ),
        ],
        ids=[
            "text_file",
            "truncated_npz",
            "no_meta",
            "meta_not_json",
            "meta_not_an_object",
            "meta_without_extra",
            "config_of_another_kind",
            "no_theta",
            "theta_too_long",
            "theta_one_entry",
            "x_mean_short",
            "tree_feature_out_of_range",
            "tree_child_loops_back",
            "tree_feature_a_float",
            "tree_feature_a_bool",
            "tree_threshold_text",
        ],
    )
    def test_load_rejects_files_that_are_not_models(self, damage, tmp_path):
        path = tmp_path / "model.npz"
        save_model(fit_learner("lstm_xgb", toy_supervised(), SMALL["lstm_xgb"]), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays.pop("meta")[()]))
        damage(path, meta, arrays)
        with pytest.raises(ModelFileError, match="model.npz"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, node, value, message",
        [
            pytest.param("feature", 0, 99, "tree node 0", id="feature-99"),
            pytest.param("right", 0, 0, "tree node 0", id="right-0"),
            # predict never follows a leaf's links, but they must fit the arrays
            pytest.param("left", -1, 2**63, "int64", id="leaf_link_past_int64"),
        ],
    )
    def test_forest_load_checks_its_trees(self, key, node, value, message, tmp_path):
        path = tmp_path / "model.npz"
        save_model(fit_learner("random_forest", toy_supervised(), SMALL["random_forest"]), path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"][()]))
        tree = meta["extra"]["trees"][0]
        # the root splits, and the last node is a leaf
        assert tree["feature"][0] >= 0 and tree["feature"][-1] == -1
        tree[key][node] = value
        write_npz(path, json.dumps(meta), {})
        with pytest.raises(ModelFileError, match=f"model.npz: .*{message}"):
            load_model(path)

    def test_save_refuses_kinds_it_cannot_load(self, tmp_path):
        data = toy_supervised()
        net = LstmRegressor(TINY, data.record_width, data.lag)
        net.fit(data)
        path = tmp_path / "lstm.npz"
        with pytest.raises(ModelFileError, match="lstm"):
            save_model(net, path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_save_refuses_an_unfit_model(self, kind, tmp_path):
        path = tmp_path / f"{kind}.npz"
        with pytest.raises(UntrainedModel, match=kind):
            save_model(_MODEL_CLASSES[kind](SMALL[kind], 5, 2), path)
        assert not path.exists()

    def test_config_validation(self):
        for config_type, bad in (
            (NetConfig, {"learning_rate": 0.0}),
            (NetConfig, {"batch_size": 0}),
            (NetConfig, {"epochs": 0}),
            (ForestConfig, {"tree_count": 0}),
            (NetConfig, {"hidden_sizes": ()}),
            (NetConfig, {"hidden_sizes": (0,)}),
            (StackConfig, {"epochs": 0}),
            (StackConfig, {"boosting_rounds": -1}),
            (StackConfig, {"max_depth": 0}),
            (StackConfig, {"max_depth": None}),
            (ForestConfig, {"max_depth": 0}),
            (StackConfig, {"lambda_reg": -1.0}),
            (StackConfig, {"gamma_reg": -0.5}),
            (StackConfig, {"lambda_reg": float("nan")}),
            (StackConfig, {"gamma_reg": float("inf")}),
            (StackConfig, {"boosting_rounds": 2.5}),
            # integer settings take plain ints only
            (NetConfig, {"epochs": 2.5}),
            (NetConfig, {"batch_size": True}),
            (NetConfig, {"hidden_sizes": (2.5, 3)}),
            (NetConfig, {"rng_seed": -1}),
            (ForestConfig, {"tree_count": True}),
            (ForestConfig, {"max_depth": 2.5}),
            (ForestConfig, {"rng_seed": -1}),
        ):
            with pytest.raises(ValueError):
                config_type(**bad)

    @pytest.mark.parametrize(
        "kind, field",
        [(kind, f.name) for kind in KINDS for f in dataclasses.fields(SMALL[kind])],
    )
    def test_every_setting_changes_the_fit(self, kind, field):
        data = toy_supervised()
        config = SMALL[kind]
        changed = dataclasses.replace(config, **{field: CHANGED[type(config)][field]})
        default = fit_learner(kind, data, config).predict(data.inputs)
        assert not np.array_equal(fit_learner(kind, data, changed).predict(data.inputs), default)

    def test_stacked_stage_improves_on_the_mean(self):
        data = toy_supervised(n=60)
        model = fit_learner("lstm_xgb", data, SMALL["lstm_xgb"])
        mse = float(((model.predict(data.inputs) - data.targets) ** 2).mean())
        baseline = float(data.targets.var())
        assert mse < baseline
        assert all(np.diff(model.stage2.objective_history) <= 1e-9)


def test_each_learner_tracks_held_out_data(forecast_run):
    for k, kind in enumerate(KINDS):
        scores = point_scores(forecast_run.test_panel.actuals, forecast_run.test_panel.matrix[k])
        assert scores.r2 > 0.8, f"{kind} r2 {scores.r2:.3f}"
