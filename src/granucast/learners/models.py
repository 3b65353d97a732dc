"""The four point forecasters behind a single fit/predict interface.

Neural learners (bidirectional LSTM, conv + GRU, LSTM feeding boosted
trees) train by plain mini-batch SGD on squared loss with gradient
clipping; inputs and targets are z-scored with training statistics and
predictions mapped back. Tree learners consume raw features.

Models serialize to a single ``.npz`` with a JSON metadata entry; round
trips are bit-exact because parameters travel as raw float64 and tree
structure as repr-exact JSON floats.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..errors import GranucastError
from ..fuzzy_rough import PEAK_COLUMN
from .nn import (
    BiLSTMLayer,
    Conv1dLayer,
    DenseHead,
    GRULayer,
    LSTMLayer,
    clip_gradients,
)
from .trees import BoostedTrees, RandomForest, Tree

KINDS = ("bilstm", "cnn_gru", "lstm_xgb", "random_forest")

# stacking-stage shrinkage for the boosted correction trees; the configured
# learning_rate belongs to the LSTM stage
_STACK_SHRINKAGE = 0.3

_GRAD_CLIP = 5.0

_FORMAT = 1


class TooFewRecords(GranucastError):
    pass


class UntrainedModel(GranucastError):
    pass


class ModelFileError(GranucastError):
    """A saved model of an unknown format or learner kind."""


@dataclass(frozen=True)
class LearnerConfig:
    learning_rate: float = 0.001
    batch_size: int = 100
    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    epochs: int = 200
    tree_count: int = 100
    max_depth: int | None = None
    boosting_rounds: int = 100
    lambda_reg: float = 1.0
    gamma_reg: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("batch_size", "epochs", "tree_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(h < 1 for h in self.hidden_sizes) or not self.hidden_sizes:
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.boosting_rounds < 0:
            raise ValueError(f"boosting_rounds must be >= 0, got {self.boosting_rounds}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.lambda_reg < 0 or self.gamma_reg < 0:
            raise ValueError("regularization strengths must be >= 0")


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


class _SequenceRegressor:
    """Shared training loop and (de)standardization for the neural learners."""

    kind = ""

    def __init__(self, config: LearnerConfig, record_width: int, lag: int):
        self.config = config
        self.record_width = record_width
        self.lag = lag
        self.layers: list = []
        self.head: DenseHead | None = None
        self._build()
        self.x_mean: np.ndarray | None = None
        self.x_std: np.ndarray | None = None
        self.y_mean = 0.0
        self.y_std = 1.0
        self.trained = False

    def _build(self):
        raise NotImplementedError

    def _head_features(self, out_seq: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _spread_head_grad(self, d_feat: np.ndarray, out_shape) -> np.ndarray:
        raise NotImplementedError

    # --- parameter plumbing -------------------------------------------------

    @property
    def _all_layers(self):
        return [*self.layers, self.head]

    def init_weights(self, rng: np.random.Generator):
        for layer in self._all_layers:
            layer.init_weights(rng)

    def parameter_vector(self) -> np.ndarray:
        return np.concatenate(
            [p.ravel() for layer in self._all_layers for p in layer.params.values()]
        )

    def set_parameter_vector(self, vec: np.ndarray):
        offset = 0
        for layer in self._all_layers:
            for p in layer.params.values():
                p[...] = vec[offset : offset + p.size].reshape(p.shape)
                offset += p.size

    def gradient_vector(self) -> np.ndarray:
        return np.concatenate(
            [g.ravel() for layer in self._all_layers for g in layer.grads.values()]
        )

    # --- forward / backward -------------------------------------------------

    def forward_sequences(self, x_seq: np.ndarray):
        """Predictions in network space for (batch, lag, width) sequences."""
        out = x_seq
        caches = []
        for layer in self.layers:
            out, cache = layer.forward(out)
            caches.append(cache)
        feat = self._head_features(out)
        preds, head_cache = self.head.forward(feat)
        return preds, (caches, head_cache, out.shape)

    def loss_and_grads(self, x_seq: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error over the batch; gradients land in the layers."""
        for layer in self._all_layers:
            layer.zero_grads()
        preds, (caches, head_cache, out_shape) = self.forward_sequences(x_seq)
        diff = preds - y
        loss = float((diff**2).mean())
        d_pred = 2.0 * diff / len(y)
        d_feat = self.head.backward(d_pred, head_cache)
        d_out = self._spread_head_grad(d_feat, out_shape)
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d_out = layer.backward(d_out, cache)
        return loss

    # --- training -----------------------------------------------------------

    def _to_sequences(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        return inputs.reshape(len(inputs), self.lag, self.record_width)

    def fit(self, data: SupervisedSet):
        cfg = self.config
        rng = np.random.default_rng(cfg.rng_seed)
        self.init_weights(rng)
        x = np.asarray(data.inputs, dtype=np.float64)
        y = np.asarray(data.targets, dtype=np.float64)
        self.x_mean = x.mean(axis=0)
        self.x_std = x.std(axis=0)
        self.x_std[self.x_std == 0.0] = 1.0
        self.y_mean = float(y.mean())
        self.y_std = float(y.std()) or 1.0
        x_seq = self._to_sequences((x - self.x_mean) / self.x_std)
        y_n = (y - self.y_mean) / self.y_std
        n = len(y_n)
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                self.loss_and_grads(x_seq[batch], y_n[batch])
                clip_gradients(self._all_layers, _GRAD_CLIP)
                for layer in self._all_layers:
                    for name, p in layer.params.items():
                        p -= cfg.learning_rate * layer.grads[name]
        self.trained = True
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        if not self.trained:
            raise UntrainedModel(f"{self.kind} model has not been fit")
        x = (np.atleast_2d(np.asarray(inputs, dtype=np.float64)) - self.x_mean) / self.x_std
        preds, _ = self.forward_sequences(self._to_sequences(x))
        return preds * self.y_std + self.y_mean

    # --- serialization ------------------------------------------------------

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "theta": self.parameter_vector(),
            "x_mean": self.x_mean,
            "x_std": self.x_std,
            "y_stats": np.array([self.y_mean, self.y_std]),
        }

    def _state_meta(self) -> dict:
        return {"record_width": self.record_width, "lag": self.lag}

    @classmethod
    def _from_state(cls, config: LearnerConfig, meta: dict, arrays) -> "_SequenceRegressor":
        model = cls(config, meta["record_width"], meta["lag"])
        model.set_parameter_vector(arrays["theta"])
        model.x_mean = arrays["x_mean"]
        model.x_std = arrays["x_std"]
        model.y_mean, model.y_std = (float(v) for v in arrays["y_stats"])
        model.trained = True
        return model


class BiLstmRegressor(_SequenceRegressor):
    """Stacked bidirectional LSTM; head reads both directions' final states."""

    kind = "bilstm"

    def _build(self):
        width = self.record_width
        for hidden in self.config.hidden_sizes:
            self.layers.append(BiLSTMLayer(width, hidden))
            width = 2 * hidden
        self.head = DenseHead(width)

    def _head_features(self, out_seq: np.ndarray) -> np.ndarray:
        half = out_seq.shape[2] // 2
        return np.concatenate([out_seq[:, -1, :half], out_seq[:, 0, half:]], axis=1)

    def _spread_head_grad(self, d_feat: np.ndarray, out_shape) -> np.ndarray:
        d_out = np.zeros(out_shape)
        half = out_shape[2] // 2
        d_out[:, -1, :half] = d_feat[:, :half]
        d_out[:, 0, half:] = d_feat[:, half:]
        return d_out


class _FinalStateRegressor(_SequenceRegressor):
    """Head reads the last layer's state at the final step."""

    def _head_features(self, out_seq: np.ndarray) -> np.ndarray:
        return out_seq[:, -1, :]

    def _spread_head_grad(self, d_feat: np.ndarray, out_shape) -> np.ndarray:
        d_out = np.zeros(out_shape)
        d_out[:, -1, :] = d_feat
        return d_out


class CnnGruRegressor(_FinalStateRegressor):
    """1-D convolution front end feeding a stacked GRU."""

    kind = "cnn_gru"

    conv_channels = 16
    conv_kernel = 3

    def _build(self):
        self.layers.append(Conv1dLayer(self.record_width, self.conv_channels, self.conv_kernel))
        width = self.conv_channels
        for hidden in self.config.hidden_sizes:
            self.layers.append(GRULayer(width, hidden))
            width = hidden
        self.head = DenseHead(width)


class LstmRegressor(_FinalStateRegressor):
    """Single-direction stacked LSTM (also the first stacking stage)."""

    kind = "lstm"

    def _build(self):
        width = self.record_width
        for hidden in self.config.hidden_sizes:
            self.layers.append(LSTMLayer(width, hidden))
            width = hidden
        self.head = DenseHead(width)


class LstmBoostedRegressor:
    """LSTM point forecast refined by boosted trees over (features, forecast)."""

    kind = "lstm_xgb"

    def __init__(self, config: LearnerConfig, record_width: int, lag: int):
        self.config = config
        self.stage1 = LstmRegressor(config, record_width, lag)
        self.stage2: BoostedTrees | None = None

    def fit(self, data: SupervisedSet):
        self.stage1.fit(data)
        stage1_pred = self.stage1.predict(data.inputs)
        stacked = np.column_stack([data.inputs, stage1_pred])
        self.stage2 = BoostedTrees.fit(
            stacked,
            data.targets,
            rounds=self.config.boosting_rounds,
            max_depth=self.config.max_depth or 1,
            lambda_reg=self.config.lambda_reg,
            gamma_reg=self.config.gamma_reg,
            shrinkage=_STACK_SHRINKAGE,
        )
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        if self.stage2 is None:
            raise UntrainedModel("lstm_xgb model has not been fit")
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        stage1_pred = self.stage1.predict(inputs)
        return self.stage2.predict(np.column_stack([inputs, stage1_pred]))

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return self.stage1._state_arrays()

    def _state_meta(self) -> dict:
        return {**self.stage1._state_meta(), "stage2": asdict(self.stage2)}

    @classmethod
    def _from_state(cls, config: LearnerConfig, meta: dict, arrays) -> "LstmBoostedRegressor":
        model = cls(config, meta["record_width"], meta["lag"])
        model.stage1 = LstmRegressor._from_state(config, meta, arrays)
        stage2 = meta["stage2"]
        model.stage2 = BoostedTrees(
            **{**stage2, "trees": [Tree(**t) for t in stage2["trees"]]}
        )
        return model


class ForestRegressor:
    """Random forest over the flat lagged feature rows."""

    kind = "random_forest"

    def __init__(self, config: LearnerConfig, record_width: int, lag: int):
        self.config = config
        self.record_width = record_width
        self.lag = lag
        self.forest: RandomForest | None = None

    def fit(self, data: SupervisedSet):
        self.forest = RandomForest.fit(
            data.inputs,
            data.targets,
            tree_count=self.config.tree_count,
            seed=self.config.rng_seed,
            max_depth=self.config.max_depth,
        )
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        if self.forest is None:
            raise UntrainedModel("random_forest model has not been fit")
        return self.forest.predict(np.atleast_2d(np.asarray(inputs, dtype=np.float64)))

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def _state_meta(self) -> dict:
        return {
            "record_width": self.record_width,
            "lag": self.lag,
            "trees": [asdict(tree) for tree in self.forest.trees],
        }

    @classmethod
    def _from_state(cls, config: LearnerConfig, meta: dict, arrays) -> "ForestRegressor":
        model = cls(config, meta["record_width"], meta["lag"])
        model.forest = RandomForest(trees=[Tree(**t) for t in meta["trees"]])
        return model


_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (BiLstmRegressor, CnnGruRegressor, LstmBoostedRegressor, ForestRegressor)
}


def fit_learner(kind: str, data: SupervisedSet, config: LearnerConfig):
    """Train one learner kind on a supervised set; deterministic per seed."""
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"unknown learner kind {kind!r}, expected one of {KINDS}")
    model = _MODEL_CLASSES[kind](config, data.record_width, data.lag)
    return model.fit(data)


def save_model(model, path: str | Path):
    """Write a trained model to a single .npz file."""
    meta = {
        "format": _FORMAT,
        "kind": model.kind,
        "config": asdict(model.config),
        "extra": model._state_meta(),
    }
    arrays = model._state_arrays()
    with Path(path).open("wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_model(path: str | Path):
    """Reconstruct a model saved by ``save_model``; bit-exact round trip."""
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["meta"][()]))
        arrays = {k: data[k] for k in data.files if k != "meta"}
    if meta.get("format") != _FORMAT:
        raise ModelFileError(f"{path}: model format {meta.get('format')!r}, expected {_FORMAT}")
    if meta.get("kind") not in KINDS:
        raise ModelFileError(f"{path}: model kind {meta.get('kind')!r}, expected one of {KINDS}")
    raw_config = dict(meta["config"])
    raw_config["hidden_sizes"] = tuple(raw_config["hidden_sizes"])
    config = LearnerConfig(**raw_config)
    return _MODEL_CLASSES[meta["kind"]]._from_state(config, meta["extra"], arrays)
