"""The four point forecasters behind a single fit/predict interface.

Each learner is a ``_Learner``: a config, rows of ``lag`` records of
``record_width`` features (``width`` in all), and one input rule for
``predict``: an unfit model raises UntrainedModel, and rows, coerced once to
2-D float64, must have ``width`` features or raise DimensionMismatch. ``fit``
applies the same row rule and also raises DimensionMismatch for a
``SupervisedSet`` of another lag or record width.
The nets (bidirectional LSTM, conv + GRU, LSTM) are ``_SequenceRegressor``s:
an optional convolution, a stack of recurrent layers and a dense head,
trained in float32 (``nn.DTYPE``) by mini-batch Adam on squared loss with
gradient clipping, on inputs and targets z-scored in float64 with training
statistics and then cast once; predictions come back as float64. The steps
of one fit reuse one workspace for their layer caches, dropped when the fit
returns (see ``nn.buffer``). Each net keeps its parameters and gradients in
two vectors, ``theta`` and ``grad``. lstm_xgb is the LSTM net plus boosted
trees, ``stage2``, over (features, LSTM forecast); the random forest and
the trees consume raw features.

Models serialize to a single ``.npz`` with a JSON metadata entry; round
trips are bit-exact because parameters travel as raw float32, the
standardization statistics as raw float64 and tree structure as repr-exact
JSON floats.
"""

from __future__ import annotations

import json
import logging
import math
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import GranucastError, require_int
from ..fuzzy_rough import PEAK_COLUMN
from . import nn
from .nn import (
    BiLSTMLayer,
    Conv1dLayer,
    DenseHead,
    DimensionMismatch,
    GRULayer,
    LSTMLayer,
    clip_gradients,
)
from .trees import BoostedTrees, Tree, build_cart

logger = logging.getLogger(__name__)

# stacking-stage shrinkage for the boosted correction trees; the configured
# learning_rate belongs to the LSTM stage
_STACK_SHRINKAGE = 0.3

_GRAD_CLIP = 5.0
# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

_FORMAT = 3


class TooFewRecords(GranucastError):
    pass


class UntrainedModel(GranucastError):
    pass


class ModelFileError(GranucastError):
    """A saved model of an unknown format or learner kind."""


@dataclass(frozen=True)
class NetConfig:
    learning_rate: float = 0.001
    batch_size: int = 100
    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    epochs: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        # a saved model's JSON metadata gives hidden_sizes back as a list
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        require_int("batch_size", self.batch_size, 1)
        require_int("epochs", self.epochs, 1)
        require_int("rng_seed", self.rng_seed, 0)
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must not be empty")
        for size in self.hidden_sizes:
            require_int("hidden_sizes entry", size, 1)


@dataclass(frozen=True)
class StackConfig(NetConfig):
    """lstm_xgb: its LSTM stage's settings plus its boosted stage's."""

    max_depth: int = 1
    boosting_rounds: int = 100
    lambda_reg: float = 1.0
    gamma_reg: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        require_int("max_depth", self.max_depth, 1)
        require_int("boosting_rounds", self.boosting_rounds, 0)
        for name in ("lambda_reg", "gamma_reg"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ForestConfig:
    tree_count: int = 100
    max_depth: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        require_int("tree_count", self.tree_count, 1)
        require_int("rng_seed", self.rng_seed, 0)
        if self.max_depth is not None:
            require_int("max_depth", self.max_depth, 1)


@dataclass(frozen=True)
class SupervisedSet:
    """Lagged feature rows paired with the next window's mean speed."""

    inputs: np.ndarray
    targets: np.ndarray
    lag: int
    record_width: int
    target_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)

    def take(self, rows) -> "SupervisedSet":
        """The samples selected by ``rows`` (a slice or an index array)."""
        return replace(
            self,
            inputs=self.inputs[rows],
            targets=self.targets[rows],
            target_indices=self.target_indices[rows],
        )


def make_supervised(features: np.ndarray, lag: int) -> SupervisedSet:
    """Row i concatenates feature rows i..i+lag-1; the target is row i+lag's peak.

    ``features`` is an ``extract_features`` matrix. Inputs therefore never
    contain any information from the target's own window or later ones.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    features = np.asarray(features, dtype=np.float64)
    count, width = features.shape
    if count <= lag:
        raise TooFewRecords(f"need more than {lag} records, got {count}")
    n = count - lag
    return SupervisedSet(
        inputs=np.hstack([features[k : k + n] for k in range(lag)]),
        targets=features[lag:, PEAK_COLUMN].copy(),
        lag=lag,
        record_width=width,
        target_indices=np.arange(lag, count),
    )


class _Learner:
    """Settings, row layout and input rule of every learner."""

    kind = ""

    def __init__(self, config, record_width: int, lag: int):
        self.config = config
        self.record_width = record_width
        self.lag = lag
        self.width = lag * record_width
        self.trained = False

    def _rows(self, inputs) -> np.ndarray:
        """``inputs`` as 2-D float64 rows; DimensionMismatch unless each row
        has exactly ``width`` features."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != self.width:
            raise DimensionMismatch(f"{self.kind} rows need {self.width} features, got {x.shape}")
        return x

    def _input_rows(self, inputs) -> np.ndarray:
        """``_rows(inputs)``; UntrainedModel before a fit."""
        if not self.trained:
            raise UntrainedModel(f"{self.kind} model has not been fit")
        return self._rows(inputs)

    def _training_rows(self, data: SupervisedSet) -> np.ndarray:
        """``_rows(data.inputs)``; DimensionMismatch unless ``data`` has this
        model's lag and record width."""
        if (data.lag, data.record_width) != (self.lag, self.record_width):
            raise DimensionMismatch(
                f"{self.kind} takes lag {self.lag} records of {self.record_width} features,"
                f" got a set of lag {data.lag} records of {data.record_width}"
            )
        return self._rows(data.inputs)


def _adam_step(theta, grad, m, v, scratch, step: int, learning_rate: float):
    """Adam's bias-corrected update of ``theta`` at 1-based ``step``, in place:
    the moments ``m`` and ``v`` advance, and ``scratch``, theta-sized like
    them, takes every intermediate, so no theta-sized array is allocated."""
    m *= _ADAM_BETA1
    np.multiply(grad, 1.0 - _ADAM_BETA1, out=scratch)
    m += scratch
    v *= _ADAM_BETA2
    np.square(grad, out=scratch)
    scratch *= 1.0 - _ADAM_BETA2
    v += scratch
    # theta -= lr * m_hat / (sqrt(v_hat) + eps), m_hat and v_hat the moments
    # over their bias corrections
    np.sqrt(v, out=scratch)
    scratch /= math.sqrt(1.0 - _ADAM_BETA2**step)
    scratch += _ADAM_EPS
    np.divide(m, scratch, out=scratch)
    scratch *= learning_rate / (1.0 - _ADAM_BETA1**step)
    theta -= scratch


class _SequenceRegressor(_Learner):
    """The nets' one build (each ``cell`` layer ``directions * hidden`` wide) and training loop."""

    config_type = NetConfig
    cell = None  # the recurrent layer class
    directions = 1
    conv_channels = 0  # above 0, a convolution of conv_kernel steps leads the stack

    def __init__(self, config: NetConfig, record_width: int, lag: int):
        super().__init__(config, record_width, lag)
        self.layers, width = [], record_width
        if self.conv_channels:
            self.layers.append(Conv1dLayer(width, self.conv_channels, self.conv_kernel))
            width = self.conv_channels
        for hidden in config.hidden_sizes:
            self.layers.append(self.cell(width, hidden))
            width = self.directions * hidden
        self.head = DenseHead(width)
        # fixed from here on: theta lays the layers out in this order
        self._all_layers = [*self.layers, self.head]
        size = sum(p.size for layer in self._all_layers for p in layer.params.values())
        self.theta, self.grad = np.zeros(size, nn.DTYPE), np.zeros(size, nn.DTYPE)
        offset = 0
        for layer in self._all_layers:
            offset = layer.bind(self.theta, self.grad, offset)

    def _head_steps(self, width: int) -> np.ndarray:
        """The time step the head reads for each of the last layer's channels."""
        return np.full(width, -1)

    # --- forward / backward -------------------------------------------------

    def forward_sequences(self, x_seq: np.ndarray, workspace: dict | None = None):
        """Predictions in network space for (batch, lag, width) sequences."""
        out = x_seq
        caches = []
        for layer in self.layers:
            out, cache = layer.forward(out, workspace)
            caches.append(cache)
        head_index = (slice(None), self._head_steps(out.shape[2]), np.arange(out.shape[2]))
        # the gather comes back column-major, which sends the head's matmul
        # down another BLAS path and moves its last bits
        feat = np.ascontiguousarray(out[head_index])
        preds, head_cache = self.head.forward(feat)
        return preds, (caches, head_cache, out.shape, head_index)

    def loss_and_grads(self, x_seq: np.ndarray, y: np.ndarray, workspace: dict | None = None):
        """Mean squared error over the batch; its gradient lands in ``grad``.
        ``workspace`` is the fit's store of layer caches (see ``nn.buffer``)."""
        self.grad[...] = 0.0
        preds, (caches, head_cache, out_shape, head_index) = self.forward_sequences(
            x_seq, workspace
        )
        diff = preds - y
        loss = float((diff**2).mean())
        d_pred = 2.0 * diff / len(y)
        d_out = np.zeros(out_shape, nn.DTYPE)
        d_out[head_index] = self.head.backward(d_pred, head_cache)
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d_out = layer.backward(d_out, cache)
        return loss

    # --- training -----------------------------------------------------------

    def _fit_net(self, x: np.ndarray, targets: np.ndarray):
        """Train on ``_training_rows`` rows ``x`` and their targets."""
        cfg = self.config
        rng = np.random.default_rng(cfg.rng_seed)
        for layer in self._all_layers:
            layer.init_weights(rng)
        y = np.asarray(targets, dtype=np.float64)
        self.x_mean = x.mean(axis=0)
        self.x_std = x.std(axis=0)
        self.x_std[self.x_std == 0.0] = 1.0
        self.y_mean = float(y.mean())
        self.y_std = float(y.std()) or 1.0
        x_seq = self._to_sequences(x)
        y_n = ((y - self.y_mean) / self.y_std).astype(nn.DTYPE)
        n = len(y_n)
        # the steps' layer caches and Adam's two moments and scratch; locals,
        # so they are freed when the fit returns
        workspace = {}
        m, v, scratch = (np.zeros_like(self.theta) for _ in range(3))
        step = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                self.loss_and_grads(x_seq[batch], y_n[batch], workspace)
                clip_gradients(self._all_layers, _GRAD_CLIP)
                step += 1
                _adam_step(self.theta, self.grad, m, v, scratch, step, cfg.learning_rate)

    def _to_sequences(self, x: np.ndarray) -> np.ndarray:
        """(rows, lag, record_width) ``nn.DTYPE`` sequences of 2-D float64 rows,
        standardized in float64 and then cast."""
        z = (x - self.x_mean) / self.x_std
        return z.astype(nn.DTYPE).reshape(-1, self.lag, self.record_width)

    def _net_predict(self, x: np.ndarray) -> np.ndarray:
        """The net's float64 forecast for 2-D float64 rows of ``width`` features."""
        preds, _ = self.forward_sequences(self._to_sequences(x))
        return preds.astype(np.float64) * self.y_std + self.y_mean

    def fit(self, data: SupervisedSet):
        self._fit_net(self._training_rows(data), data.targets)
        self.trained = True
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self._net_predict(self._input_rows(inputs))

    # --- serialization ------------------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {
            "theta": self.theta,
            "x_mean": self.x_mean,
            "x_std": self.x_std,
            "y_stats": np.array([self.y_mean, self.y_std]),
        }

    def _load_state(self, extra: dict, arrays):
        shapes = {"theta": self.theta.shape, "x_mean": (self.width,), "x_std": (self.width,)}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{name} of shape {arrays[name].shape}, expected {shape}")
        if arrays["theta"].dtype != self.theta.dtype:
            raise ValueError(f"theta of dtype {arrays['theta'].dtype}, expected {self.theta.dtype}")
        self.theta[...] = arrays["theta"]
        self.x_mean = arrays["x_mean"]
        self.x_std = arrays["x_std"]
        self.y_mean, self.y_std = (float(v) for v in arrays["y_stats"])
        self.trained = True


class BiLstmRegressor(_SequenceRegressor):
    """Stacked bidirectional LSTM; head reads both directions' final states."""

    kind = "bilstm"
    cell = BiLSTMLayer
    directions = 2

    def _head_steps(self, width: int) -> np.ndarray:
        # forward channels end at the last step, backward ones at the first
        return np.repeat([-1, 0], width // 2)


class CnnGruRegressor(_SequenceRegressor):
    """1-D convolution front end feeding a stacked GRU."""

    kind = "cnn_gru"
    cell = GRULayer
    conv_channels = 16
    conv_kernel = 3


class LstmRegressor(_SequenceRegressor):
    """Single-direction stacked LSTM (also lstm_xgb's net)."""

    kind = "lstm"
    cell = LSTMLayer


class LstmBoostedRegressor(LstmRegressor):
    """lstm_xgb: the LSTM net, refined by boosted trees (``stage2``) over (features, forecast)."""

    kind = "lstm_xgb"
    config_type = StackConfig

    def fit(self, data: SupervisedSet):
        x = self._training_rows(data)
        self._fit_net(x, data.targets)
        stacked = np.column_stack([x, self._net_predict(x)])
        self.stage2 = BoostedTrees.fit(
            stacked,
            data.targets,
            rounds=self.config.boosting_rounds,
            max_depth=self.config.max_depth,
            lambda_reg=self.config.lambda_reg,
            gamma_reg=self.config.gamma_reg,
            shrinkage=_STACK_SHRINKAGE,
        )
        self.trained = True
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        # not super().predict: that would be a second traced predict call
        x = self._input_rows(inputs)
        return self.stage2.predict(np.column_stack([x, self._net_predict(x)]))

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        trees = [tree.state() for tree in self.stage2.trees]
        return {"stage2": {**vars(self.stage2), "trees": trees}}, super()._state()[1]

    def _load_state(self, extra: dict, arrays):
        super()._load_state(extra, arrays)
        stage2 = extra["stage2"]
        trees = [Tree.load(t, self.width + 1) for t in stage2.pop("trees")]
        self.stage2 = BoostedTrees(**stage2, trees=trees)


class ForestRegressor(_Learner):
    """Random forest over the flat lagged feature rows.

    Bootstrap-aggregated CART trees, each drawing ceil(sqrt(features))
    candidate features per split; prediction is the plain tree mean.
    """

    kind = "random_forest"
    config_type = ForestConfig

    def fit(self, data: SupervisedSet):
        x = self._training_rows(data)
        y = np.asarray(data.targets, dtype=np.float64)
        if np.all(y == y[0]):
            logger.warning("all targets identical; forest degenerates to a constant")
        n, f = x.shape
        features_per_split = math.ceil(math.sqrt(f))
        self.trees = []
        for index in range(self.config.tree_count):
            # derived per-tree seed keeps parallel and serial builds identical
            rng = np.random.default_rng((self.config.rng_seed, index))
            rows = rng.integers(0, n, size=n)
            self.trees.append(
                build_cart(x[rows], y[rows], rng, self.config.max_depth, features_per_split)
            )
        self.trained = True
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        x = self._input_rows(inputs)
        return np.stack([tree.predict(x) for tree in self.trees]).mean(axis=0)

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"trees": [tree.state() for tree in self.trees]}, {}

    def _load_state(self, extra: dict, arrays):
        self.trees = [Tree.load(t, self.width) for t in extra["trees"]]
        self.trained = True


_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (BiLstmRegressor, CnnGruRegressor, LstmBoostedRegressor, ForestRegressor)
}

KINDS = tuple(_MODEL_CLASSES)

CONFIG_TYPES = {kind: cls.config_type for kind, cls in _MODEL_CLASSES.items()}


def fit_learner(kind: str, data: SupervisedSet, config: NetConfig | ForestConfig):
    """Train one learner kind on a supervised set; deterministic per seed."""
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown learner kind {kind!r}, expected one of {KINDS}")
    model = _MODEL_CLASSES[kind](config, data.record_width, data.lag)
    return model.fit(data)


def save_model(model, path: str | Path):
    """Write a trained model to a single .npz file."""
    if model.kind not in KINDS:
        raise ModelFileError(f"cannot save model kind {model.kind!r}, expected one of {KINDS}")
    if not model.trained:
        raise UntrainedModel(f"{model.kind} model has not been fit")
    extra, arrays = model._state()
    meta = {
        "format": _FORMAT,
        "kind": model.kind,
        "config": asdict(model.config),
        "extra": {"record_width": model.record_width, "lag": model.lag, **extra},
    }
    with Path(path).open("wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path: str | Path):
    """Reconstruct a model saved by ``save_model``; bit-exact round trip.
    Any other file raises ModelFileError."""
    try:
        with np.load(Path(path), allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        fmt, kind = meta.get("format"), meta.get("kind")
        if fmt != _FORMAT:
            raise ModelFileError(f"{path}: model format {fmt!r}, expected {_FORMAT}")
        if kind not in KINDS:
            raise ModelFileError(f"{path}: model kind {kind!r}, expected one of {KINDS}")
        cls = _MODEL_CLASSES[kind]
        extra = meta["extra"]
        model = cls(cls.config_type(**meta["config"]), extra.pop("record_width"), extra.pop("lag"))
        model._load_state(extra, arrays)
    except (AttributeError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFileError(f"{path}: not a saved model ({type(exc).__name__}: {exc})") from None
    return model
