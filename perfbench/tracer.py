"""Traced run of one granucast CLI command, with spans recorded from outside.

Run as ``python3 perfbench/tracer.py SUMMARY.json -- <granucast arguments>``
with ``src`` on ``PYTHONPATH``. It wraps the public functions and methods of
each granucast module in place, runs ``granucast.cli.main``, restores the
originals, and writes the per-layer summary to ``SUMMARY.json``. The exit
code is the CLI's.

Each wrapped call records a span (name, start, end, parent) in memory; the
summary gives each span name's self time (its duration minus the part its
child spans cover), its call count, and the counters read off return values.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Span recorder; spans stay in memory until ``summary`` is called."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, func, name, on_return=None):
        """A wrapper of ``func`` that records one span per call.

        ``name`` is a span name, or a callable of the call arguments that
        returns one (or None to record no span).
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                return func(*args, **kwargs)
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return traced

    def patch_function(self, module, attr, name, on_return=None):
        """Replace a module-level function everywhere granucast bound it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, on_return)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "granucast"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, name, on_return=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, on_return))
        self._restore.append((cls, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def count(self, key, amount=1.0):
        self.counters[key] += amount

    def set(self, key, value):
        self.counters[key] = value

    def summary(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_time[name] += (end - start) - inner
            calls[name] += 1
        return {
            "self_s": dict(self_time),
            "calls": dict(calls),
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from granucast import (
        cli,
        ensemble,
        evaluation,
        fuzzy_rough,
        granulation,
        pipeline,
        sunflower,
        timeseries,
    )
    from granucast.learners import models, nn, trees

    count = tracer.count

    tracer.patch_function(cli, "main", "cli")
    for attr in ("run_forecast", "extract_and_split", "train_models"):
        tracer.patch_function(pipeline, attr, "pipeline")

    def loaded(raw, *_, **__):
        count("timeseries.rows", len(raw))
        count("timeseries.gaps", int(raw.gap_mask.sum()))

    tracer.patch_function(timeseries, "load_series", "timeseries.load", loaded)
    tracer.patch_function(timeseries, "interpolate_gaps", "timeseries.load")
    tracer.patch_function(
        granulation,
        "granulate_series",
        "granulation.granulate",
        lambda granules, *_, **__: count("granulation.windows", len(granules)),
    )

    def clustered(result, *_, **__):
        count("fuzzy_rough.iterations", result[1].iterations)
        count("fuzzy_rough.converged", int(result[1].converged))

    tracer.patch_function(fuzzy_rough, "extract_features", "fuzzy_rough.extract", clustered)

    tracer.patch_function(models, "make_supervised", "learners.supervised")
    tracer.patch_function(
        models,
        "fit_learner",
        lambda kind, *_, **__: f"learners.{kind}.fit",
        lambda _, kind, data, *__, **___: tracer.set("learners.train_rows", len(data)),
    )

    def predict_span(model, *_, **__):
        # LstmRegressor is lstm_xgb's first stage, not a learner of its own
        return f"learners.{model.kind}.predict" if model.kind in models.KINDS else None

    for cls in (models._SequenceRegressor, models.LstmBoostedRegressor, models.ForestRegressor):
        tracer.patch_method(cls, "predict", predict_span)

    for cls, label in ((nn.LSTMLayer, "lstm"), (nn.GRULayer, "gru"), (nn.Conv1dLayer, "conv")):
        tracer.patch_method(cls, "forward", f"learners.nn.{label}_forward")
        tracer.patch_method(cls, "backward", f"learners.nn.{label}_backward")
    tracer.patch_function(nn, "sigmoid", "learners.nn.sigmoid")
    tracer.patch_function(nn, "clip_gradients", "learners.nn.clip")

    tracer.patch_function(
        trees,
        "build_cart",
        "learners.trees.build_cart",
        lambda tree, *_, **__: count("learners.trees.cart_nodes", len(tree.feature)),
    )
    tracer.patch_function(trees, "build_boosted_tree", "learners.trees.boosted_tree")
    tracer.patch_method(trees.Tree, "predict", "learners.trees.tree_predict")

    tracer.patch_method(sunflower.SunflowerOptimizer, "step", "sunflower.step")
    tracer.patch_method(
        sunflower.ParetoArchive,
        "insert",
        "sunflower.archive_insert",
        lambda accepted, *_, **__: count("sunflower.archive_accepts", int(accepted)),
    )
    tracer.patch_method(sunflower.ParetoArchive, "select_guide", "sunflower.select_guide")
    tracer.patch_function(ensemble, "ensemble_objectives", "sunflower.objective")

    tracer.patch_function(
        ensemble,
        "fit_weights",
        "ensemble.fit_weights",
        lambda fit, *_, **__: count("sunflower.archive_size", len(fit.archive)),
    )
    tracer.patch_function(ensemble, "fit_intervals", "ensemble.fit_intervals")
    tracer.patch_function(ensemble, "forecast", "ensemble.forecast")
    for attr in ("point_scores", "interval_scores"):
        tracer.patch_function(evaluation, attr, "evaluation.score")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- <granucast arguments>", file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[2:]
    import granucast.cli

    tracer = Tracer()
    install(tracer)
    try:
        code = granucast.cli.main(cli_args)
    finally:
        tracer.restore()
    with open(summary_path, "w") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
