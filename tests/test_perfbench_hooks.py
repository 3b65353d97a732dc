"""The benchmark patches granucast functions and methods by name and reloads
saved models through the library; exercising both here makes a rename or a
reload break fail in the suite rather than only when the benchmark runs."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import cheap_pipeline_config

from granucast import cli, ensemble, evaluation, fuzzy_rough, granulation, pipeline, timeseries
from granucast.config import build_run_config
from granucast.learners import (
    KINDS,
    ForestConfig,
    NetConfig,
    StackConfig,
    SupervisedSet,
    fit_learner,
    save_model,
)
from granucast.learners import models, nn, trees
from granucast.sunflower import OptimizerConfig, ParetoArchive, SunflowerOptimizer
from granucast.synth import SynthConfig, write_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# (owner, attribute) of each kernel the tracer wraps for a per-layer metric
TRACED_KERNELS = [
    (nn, "sigmoid"),
    (nn, "clip_gradients"),
    *(
        (cls, attr)
        for cls in (nn.LSTMLayer, nn.GRULayer, nn.Conv1dLayer)
        for attr in ("forward", "backward")
    ),
    (timeseries, "load_series"),
    (timeseries, "interpolate_gaps"),
    (trees, "build_cart"),
    (trees, "build_boosted_tree"),
    (trees.Tree, "predict"),
    (SunflowerOptimizer, "step"),
    (ParetoArchive, "insert"),
    (ParetoArchive, "select_guide"),
    (pipeline, "run_forecast"),
    (pipeline, "extract_and_split"),
    (pipeline, "train_models"),
    (ensemble, "fit_weights"),
    (ensemble, "fit_intervals"),
    (ensemble, "forecast"),
    *(
        (cls, "predict")
        for cls in (models._SequenceRegressor, models.LstmBoostedRegressor, models.ForestRegressor)
    ),
    (models, "fit_learner"),
    (models, "make_supervised"),
    (ensemble, "ensemble_objectives"),
    (fuzzy_rough, "extract_features"),
    (granulation, "granulate_series"),
    (cli, "main"),
    (evaluation, "point_scores"),
    (evaluation, "interval_scores"),
]


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in TRACED_KERNELS}
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} is not traced"
    finally:
        recorder.restore()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} is not restored"


def test_tracer_counts_loaded_rows_and_gaps(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    path = tmp_path / "series.csv"
    path.write_text("timestamp,wind_speed\n0,5.0\n600,\n\n1200,\n1800,6.0\n")
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        # through the module attributes, which the tracer replaces
        timeseries.interpolate_gaps(timeseries.load_series(path))
    finally:
        recorder.restore()
    summary = recorder.summary()
    assert summary["counters"]["timeseries.rows"] == 4
    assert summary["counters"]["timeseries.gaps"] == 2
    assert summary["calls"]["timeseries.load"] == 2


def test_tracer_counts_tree_building(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(40, 5)), rng.normal(size=40)
    data = SupervisedSet(inputs=x, targets=y, lag=1, record_width=5, target_indices=np.arange(40))
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        forest = fit_learner("random_forest", data, ForestConfig(tree_count=3))
        trees.BoostedTrees.fit(x, y, rounds=3)
    finally:
        recorder.restore()
    summary = recorder.summary()
    nodes = sum(len(tree.feature) for tree in forest.trees)
    assert summary["counters"]["learners.trees.cart_nodes"] == nodes
    assert summary["calls"]["learners.trees.build_cart"] == 3
    assert summary["calls"]["learners.trees.boosted_tree"] == 3
    # each boosting round routes its training rows through its new tree
    assert summary["calls"]["learners.trees.tree_predict"] == 3


def test_tracer_counts_one_objective_call_per_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    rng = np.random.default_rng(4)
    actuals = 5.0 + rng.normal(size=30)
    panel = ensemble.PredictionPanel(matrix=actuals + rng.normal(size=(4, 30)), actuals=actuals)
    config = OptimizerConfig(population=20, iterations=6, rng_seed=1)
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        # through the module attribute, which the tracer replaces
        fit = ensemble.fit_weights(panel, config)
    finally:
        recorder.restore()
    summary = recorder.summary()
    # the first population, one per sweep, then the baseline candidates
    assert summary["calls"]["sunflower.objective"] == config.iterations + 2
    assert summary["calls"]["sunflower.step"] == config.iterations
    assert summary["counters"]["sunflower.archive_size"] == len(fit.archive)
    assert fit.archive.is_sound()


def test_tracer_times_the_net_kernels_and_counts_every_sigmoid(monkeypatch):
    # the layers must reach sigmoid through the module attribute the tracer
    # replaces, or learners.nn.sigmoid_calls silently reads 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    rng = np.random.default_rng(3)
    lag, width, rows = 4, 3, 10
    data = SupervisedSet(
        inputs=rng.normal(size=(rows, lag * width)),
        targets=rng.normal(size=rows),
        lag=lag,
        record_width=width,
        target_indices=np.arange(rows),
    )
    config = NetConfig(hidden_sizes=(3, 2), epochs=2, batch_size=4)
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        # through the module attribute, which the tracer replaces
        for kind in ("bilstm", "cnn_gru"):
            models.fit_learner(kind, data, config)
    finally:
        recorder.restore()
    summary = recorder.summary()
    sgd_steps = config.epochs * -(-rows // config.batch_size)
    layers = len(config.hidden_sizes)
    per_step = {"lstm": 2 * layers, "gru": layers, "conv": 1}
    for label, calls in per_step.items():
        for part in ("forward", "backward"):
            span = f"learners.nn.{label}_{part}"
            assert summary["calls"][span] == calls * sgd_steps
            assert summary["self_s"][span] > 0
    # one call per LSTM step, direction and layer, two per GRU step
    gru_steps = lag - models.CnnGruRegressor.conv_kernel + 1
    expected = sgd_steps * layers * (2 * lag + 2 * gru_steps)
    assert summary["calls"]["learners.nn.sigmoid"] == expected


def test_tracer_sees_two_predicts_per_learner_in_a_forecast(monkeypatch, synth_series):
    # one on the calibration rows, one on the test rows
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        # through the module attribute, which the tracer replaces
        pipeline.run_forecast(synth_series, cheap_pipeline_config())
    finally:
        recorder.restore()
    calls = recorder.summary()["calls"]
    assert {kind: calls[f"learners.{kind}.predict"] for kind in KINDS} == dict.fromkeys(KINDS, 2)
    for span in ("pipeline", "ensemble.fit_weights", "ensemble.fit_intervals", "ensemble.forecast"):
        assert span in calls


TINY_NET = NetConfig(hidden_sizes=(3,), epochs=2, batch_size=4)
TINY = {
    "bilstm": TINY_NET,
    "cnn_gru": TINY_NET,
    "lstm_xgb": StackConfig(hidden_sizes=(3,), epochs=2, batch_size=4, boosting_rounds=3),
    "random_forest": ForestConfig(tree_count=3),
}


@pytest.mark.parametrize("kind", KINDS)
def test_benchmark_reloads_saved_models(kind, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    rng = np.random.default_rng(0)
    data = SupervisedSet(
        inputs=rng.normal(size=(12, 9)),
        targets=rng.normal(size=12),
        lag=3,
        record_width=3,
        target_indices=np.arange(3, 15),
    )
    model = fit_learner(kind, data, TINY[kind])
    path = tmp_path / f"model_{kind}.npz"
    save_model(model, path)
    problems, predictions = checks.check_model(path, data.inputs)
    assert problems == []
    np.testing.assert_array_equal(predictions, model.predict(data.inputs))


def test_benchmark_builds_evaluation_sets_through_the_library(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    checks = importlib.import_module("checks")
    samples = 1800
    (tmp_path / "input").mkdir()
    write_csv(tmp_path / "input" / "data.csv", SynthConfig(samples=samples, seed=5))
    bench = run.Bench(run.WORKLOADS["train-full"], 5, tmp_path)
    val, test = bench.evaluation_sets()

    resolved = build_run_config("full", 5)
    (tmp_path / "config.txt").write_text(resolved.describe())
    sizes = checks.split_sizes(samples, checks.read_config(tmp_path))
    assert len(test) == len(test.targets) == sizes["test_rows"] > 0
    assert len(val) > 0
    width = resolved.lag * (resolved.cluster.cluster_count + 3)
    assert val.inputs.shape[1] == test.inputs.shape[1] == width


def test_benchmark_settings_resolve(monkeypatch, tmp_path):
    # the self-check's cheap settings, and the config.txt keys the output
    # checks read back, must survive any change to the set of settings
    monkeypatch.syspath_prepend(str(PERFBENCH))
    selfcheck = importlib.import_module("selfcheck")
    checks = importlib.import_module("checks")
    conf = tmp_path / "cheap.conf"
    conf.write_text(selfcheck.CHEAP_CONFIG)
    resolved = build_run_config("desk", selfcheck.SEED, conf)
    (tmp_path / "config.txt").write_text(resolved.describe())
    config = checks.read_config(tmp_path)
    assert {"window_size", "lag", "split.train", "split.val"} <= set(config)
    assert checks.split_sizes(selfcheck.SAMPLES, config)["test_rows"] > 0
