"""Shared fixtures and helpers: one moderately sized end-to-end run reused
by every test that needs trained models, the shipped desk preset on three
seeds for the defect gates, finite-difference gradient utilities, and a
hypothesis profile without deadlines (numpy-heavy bodies have noisy
timings)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from granucast.config import RunConfig, build_run_config
from granucast.evaluation import interval_scores
from granucast.learners import make_supervised
from granucast.pipeline import extract_and_split, run_cv, run_forecast
from granucast.synth import SynthConfig, write_csv
from granucast.timeseries import interpolate_gaps, load_series

settings.register_profile(
    "granucast",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("granucast")


SYNTH_SEED = 5
DEFECT_SEEDS = (1, 2, 5)


def _desk_config(seed: int, population: int, iterations: int, **learner_fields) -> RunConfig:
    """Desk settings with each learner field set on every kind that reads it."""
    run = build_run_config(preset="desk", seed=seed)
    return dataclasses.replace(
        run,
        learners={
            kind: dataclasses.replace(
                cfg, **{k: v for k, v in learner_fields.items() if hasattr(cfg, k)}
            )
            for kind, cfg in run.learners.items()
        },
        optimizer=dataclasses.replace(run.optimizer, population=population, iterations=iterations),
    )


def small_pipeline_config(seed: int = SYNTH_SEED) -> RunConfig:
    """Desk-scale settings sized so the whole pipeline runs in seconds.

    The learning rate and batch size are raised from the production
    defaults because the desk networks see only ~150 training samples;
    the defaults are tuned for far longer series.
    """
    return _desk_config(
        seed,
        population=60,
        iterations=60,
        epochs=150,
        learning_rate=0.05,
        batch_size=16,
        boosting_rounds=50,
        tree_count=50,
    )


def cheap_pipeline_config(seed: int = SYNTH_SEED) -> RunConfig:
    """Settings for structure checks where accuracy is irrelevant."""
    return _desk_config(
        seed,
        population=16,
        iterations=10,
        epochs=3,
        batch_size=32,
        boosting_rounds=10,
        tree_count=10,
    )


def sequence_batch_loss(model, x_seq, y) -> float:
    preds, _ = model.forward_sequences(x_seq)
    return float(((preds - y) ** 2).mean())


def numeric_gradient(model, x_seq, y, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the batch loss over all parameters."""
    theta = model.theta
    saved = theta.copy()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        theta[i] = saved[i] + step
        upper = sequence_batch_loss(model, x_seq, y)
        theta[i] = saved[i] - step
        lower = sequence_batch_loss(model, x_seq, y)
        theta[i] = saved[i]
        grad[i] = (upper - lower) / (2.0 * step)
    return grad


def gradient_rel_err(model_cls, config, rng, record_width: int = 2, lag: int = 4, batch: int = 3) -> float:
    """Relative L2 gap between analytic and numeric gradients on one instance."""
    model = model_cls(config, record_width, lag)
    model.theta[...] = rng.normal(scale=0.4, size=model.theta.size)
    x_seq = rng.normal(size=(batch, lag, record_width))
    y = rng.normal(size=batch)
    model.loss_and_grads(x_seq, y)
    analytic = model.grad.copy()
    numeric = numeric_gradient(model, x_seq, y)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / scale


@pytest.fixture(scope="session")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    write_csv(path, SynthConfig(samples=7200, seed=SYNTH_SEED))
    return path


@pytest.fixture(scope="session")
def synth_series(synth_csv):
    return interpolate_gaps(load_series(synth_csv))


@pytest.fixture(scope="session")
def pipeline_config():
    return small_pipeline_config()


@pytest.fixture(scope="session")
def forecast_run(synth_series, pipeline_config):
    return run_forecast(synth_series, pipeline_config)


@pytest.fixture(scope="session")
def cv_folds(synth_series):
    return run_cv(synth_series, cheap_pipeline_config(), k=5)


@dataclasses.dataclass(frozen=True)
class DeskRun:
    """What the defect gates read from one run of the shipped desk preset."""

    converged: bool  # the clustering reached its fixed point
    val_mse_ratios: dict[str, float]  # validation MSE over the train-mean predictor's
    picp: dict[float, float]  # test coverage per interval level


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory) -> dict[int, DeskRun]:
    """The shipped desk preset on 7,200 samples at each of DEFECT_SEEDS,
    through the CLI's data path: a ``synth`` CSV, loaded and gap-filled."""
    runs = {}
    for seed in DEFECT_SEEDS:
        path = tmp_path_factory.mktemp("desk") / "data.csv"
        write_csv(path, SynthConfig(samples=7200, seed=seed))
        values = interpolate_gaps(load_series(path))
        config = build_run_config(preset="desk", seed=seed)
        _, _, cluster, parts, _ = extract_and_split(values, config)
        run = run_forecast(values, config)
        val = run.val_panel
        train_mean = make_supervised(parts[0], config.lag).targets.mean()
        mean_mse = float(np.mean((val.actuals - train_mean) ** 2))
        runs[seed] = DeskRun(
            converged=cluster.converged,
            val_mse_ratios={
                kind: float(np.mean((val.actuals - row) ** 2)) / mean_mse
                for kind, row in zip(run.forecaster.models, val.matrix)
            },
            picp={
                level: interval_scores(run.test_panel.actuals, *bounds, level).picp
                for level, bounds in run.intervals.items()
            },
        )
    return runs
