"""The benchmark patches granucast functions and methods by name and reloads
saved models through the library; exercising both here makes a rename or a
reload break fail in the suite rather than only when the benchmark runs."""

import importlib
from pathlib import Path

import numpy as np
import pytest

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
from granucast.learners import nn, trees
from granucast.sunflower import SunflowerOptimizer
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
    (trees, "build_cart"),
    (trees, "build_boosted_tree"),
    (trees.Tree, "predict"),
    (SunflowerOptimizer, "step"),
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
