"""Acceptance battery: one test per release gate, each printing a single
[PASS]/[FAIL] line (run with -s to see them all) and asserting the same
condition.  Tolerances here are pinned; loosening them is not an option."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import gradient_rel_err
from granucast.benchmarks import (
    front_quality,
    zdt1_front,
    zdt2_front,
    zdt3_front,
    zdt_evaluate,
)
from granucast.cli import main as cli_main
from granucast.ensemble import ensemble_objectives
from granucast.evaluation import PointScores, dm_test, iri, point_scores
from granucast.fuzzy_rough import ClusterConfig, extract_features, membership_matrix
from granucast.learners.models import (
    BiLstmRegressor,
    CnnGruRegressor,
    LstmRegressor,
    NetConfig,
)
from granucast.learners.trees import BoostedTrees
from granucast.sunflower import OptimizerConfig, SunflowerOptimizer, TentChain

README = Path(__file__).resolve().parents[1] / "README.md"

ZDT_SEEDS = (11, 22, 33, 44, 55)
ZDT_LIMITS = {1: 0.05, 2: 0.05, 3: 0.10}

QUICK_CONF = """\
preset = desk
learners.epochs = 3
learners.batch_size = 32
learners.boosting_rounds = 10
learners.tree_count = 10
optimizer.population = 16
optimizer.iterations = 10
"""


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def zdt_runs():
    fronts = {1: zdt1_front(500), 2: zdt2_front(500), 3: zdt3_front(500)}
    runs = []
    for which, front in fronts.items():
        for seed in ZDT_SEEDS:
            config = OptimizerConfig(population=100, iterations=100, rng_seed=seed)
            start = time.perf_counter()
            archive = SunflowerOptimizer(
                lambda v: zdt_evaluate(which, v), 4, 0.0, 1.0, config
            ).run()
            elapsed = time.perf_counter() - start
            igd, _ = front_quality(archive.objectives, front)
            runs.append(
                {"which": which, "archive": archive, "igd": igd, "seconds": elapsed}
            )
    return runs


def test_data_availability_note():
    text = README.read_text().lower() if README.exists() else ""
    ok = "redistribut" in text and "synthetic" in text
    report(
        "data availability",
        ok,
        "README states the measured data cannot ship and points at the synthetic path",
    )


def test_benchmark_convergence(zdt_runs):
    parts = []
    ok = True
    for which, limit in ZDT_LIMITS.items():
        igds = [r["igd"] for r in zdt_runs if r["which"] == which]
        hits = sum(igd < limit for igd in igds)
        ok = ok and hits >= 4
        parts.append(f"zdt{which} {hits}/5 under {limit} (median {np.median(igds):.4f})")
    slowest = max(r["seconds"] for r in zdt_runs)
    ok = ok and slowest < 60.0
    report("benchmark convergence", ok, "; ".join(parts) + f"; slowest run {slowest:.1f}s")


def test_archive_soundness(zdt_runs):
    sound = all(r["archive"].is_sound() for r in zdt_runs)
    sized = all(len(r["archive"]) <= 100 for r in zdt_runs)
    report(
        "archive soundness",
        sound and sized,
        f"{len(zdt_runs)} runs swept pairwise, zero dominated pairs, size <= 100",
    )


def test_chaotic_draw_uniformity():
    draws = TentChain(1.0 / math.pi).draw(10_000)
    freq = np.histogram(draws, bins=10, range=(0.0, 1.0))[0] / 10_000.0
    ok = bool(np.all((freq >= 0.05) & (freq <= 0.2)))
    report(
        "chaotic draw uniformity",
        ok,
        f"10 bins over 10,000 draws, frequencies in [{freq.min():.3f}, {freq.max():.3f}]",
    )


def test_cluster_center_recovery():
    rng = np.random.default_rng(7)
    true = np.array([[0.0, 5.0, 10.0], [20.0, 25.0, 30.0], [40.0, 45.0, 50.0]])
    separation = min(
        np.linalg.norm(true[i] - true[j]) for i in range(3) for j in range(i + 1, 3)
    )
    sigma = 0.05 * separation
    points = np.vstack(
        [np.sort(rng.normal(center, sigma, size=(60, 3)), axis=1) for center in true]
    )
    rng.shuffle(points)
    result = extract_features(points, ClusterConfig(cluster_count=3), record_trace=True)[1]
    worst_center = max(
        np.linalg.norm(result.centers - t, axis=1).min() for t in true
    )
    worst_sum = max(
        float(np.abs(membership_matrix(points, c).sum(axis=0) - 1.0).max())
        for c in result.center_trace
    )
    ok = result.converged and worst_center < 0.05 * separation and worst_sum <= 1e-9
    report(
        "cluster center recovery",
        ok,
        f"center error {worst_center:.3f} < {0.05 * separation:.3f}, "
        f"membership sums off by {worst_sum:.1e}",
    )


def test_gradient_checks():
    config = NetConfig(hidden_sizes=(3,), epochs=1, batch_size=4, learning_rate=0.01)
    worst = {}
    for cls in (BiLstmRegressor, CnnGruRegressor, LstmRegressor):
        rng = np.random.default_rng(101)
        worst[cls.__name__] = max(gradient_rel_err(cls, config, rng) for _ in range(20))
    ok = all(err < 1e-4 for err in worst.values())
    detail = ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
    report("gradient checks", ok, f"20 instances each, worst relative error: {detail}")


def test_boosting_objective():
    rng = np.random.default_rng(3)
    x_lin = rng.normal(size=(80, 3))
    t = np.linspace(0.0, 4.0 * np.pi, 90)
    datasets = [
        (x_lin, x_lin @ np.array([1.5, -2.0, 0.5]) + rng.normal(scale=0.3, size=80)),
        (t[:, None], np.sin(t)),
        (np.arange(40.0)[:, None], np.where(np.arange(40.0) < 17, 1.0, 5.0)),
    ]
    monotone = True
    for x, y in datasets:
        history = np.array(BoostedTrees.fit(x, y, rounds=60).objective_history)
        monotone = monotone and bool(np.all(np.diff(history) <= 1e-9))

    x_step = np.arange(1.0, 9.0)[:, None]
    y_step = np.where(x_step[:, 0] <= 4, 0.0, 10.0)
    tree = BoostedTrees.fit(x_step, y_step, rounds=1, max_depth=1).trees[0]
    grad = np.full(8, y_step.mean()) - y_step
    lam = 1.0
    total = grad.sum()
    parent = total**2 / (8 + lam)
    best_gain, best_thr = -np.inf, None
    xs = np.sort(x_step[:, 0])
    for i in range(7):
        thr = (xs[i] + xs[i + 1]) / 2.0
        mask = x_step[:, 0] <= thr
        left, n_left = grad[mask].sum(), int(mask.sum())
        gain = 0.5 * (
            left**2 / (n_left + lam)
            + (total - left) ** 2 / (8 - n_left + lam)
            - parent
        )
        if gain > best_gain:
            best_gain, best_thr = gain, thr
    split_ok = tree.feature[0] == 0 and tree.threshold[0] == best_thr
    report(
        "boosting objective",
        monotone and split_ok,
        f"non-increasing over 60 rounds on 3 datasets; "
        f"depth-1 split {tree.threshold[0]} matches enumeration {best_thr}",
    )


def test_weight_vector_non_domination(forecast_run):
    chosen_mape, chosen_mse = forecast_run.forecaster.weight_fit.chosen_objectives
    tol = 1e-6
    dominated = False
    for k in range(4):
        unit = np.zeros(4)
        unit[k] = 1.0
        [[u_mape, u_mse]] = ensemble_objectives(unit[None], forecast_run.val_panel)
        no_worse = u_mape <= chosen_mape + tol and u_mse <= chosen_mse + tol
        better = u_mape < chosen_mape - tol or u_mse < chosen_mse - tol
        dominated = dominated or (no_worse and better)
    report(
        "weight non-domination",
        not dominated,
        f"chosen (mape {chosen_mape:.3f}, mse {chosen_mse:.4f}) "
        "beats or ties every single-model weighting within 1e-6",
    )


def test_interval_coverage_and_nesting(forecast_run):
    actual = forecast_run.test_panel.actuals
    lo95, hi95 = forecast_run.intervals[0.95]
    lo85, hi85 = forecast_run.intervals[0.85]
    picp = float(np.mean((actual >= lo95) & (actual <= hi95)))
    nested = bool(np.all((lo95 <= lo85) & (hi85 <= hi95)))
    ok = 0.88 <= picp <= 1.0 and nested
    report(
        "interval behavior",
        ok,
        f"95% coverage {picp:.3f} in [0.88, 1.0], 85% band nested at all "
        f"{len(actual)} samples: {nested}",
    )


def test_metric_identities():
    rng = np.random.default_rng(12)
    worst_r2, worst_rmse = 0.0, 0.0
    for _ in range(50):
        actual = rng.uniform(1.0, 10.0, size=30)
        pred = actual + rng.normal(scale=0.5, size=30)
        scores = point_scores(actual, pred)
        worst_r2 = max(worst_r2, abs(scores.r2 + scores.nmse - 1.0))
        worst_rmse = max(worst_rmse, abs(scores.rmse**2 - scores.mse))
    errors_a = rng.normal(size=40)
    errors_b = errors_a + rng.normal(scale=0.3, size=40)
    antisym = dm_test(errors_a, errors_b).statistic == -dm_test(errors_b, errors_a).statistic
    exact_quarter = iri(4.0, 5.0) == 25.0
    rounded_pair = abs(iri(3.745, 4.088) - 9.179) < 0.05
    ok = worst_r2 <= 1e-12 and worst_rmse <= 1e-12 and antisym and exact_quarter and rounded_pair
    report(
        "metric identities",
        ok,
        f"r2+nmse within {worst_r2:.1e}, rmse^2-mse within {worst_rmse:.1e}, "
        f"dm antisymmetric, iri checks exact and within 0.05",
    )


def test_cli_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_cli")
    conf = root / "quick.conf"
    conf.write_text(QUICK_CONF)

    def run_pair(name, argv_for):
        manifests = []
        for tag in ("a", "b"):
            out = root / f"{name}_{tag}"
            assert cli_main(argv_for(str(out))) == 0
            manifest = (out / "manifest.txt").read_text()
            # the manifest hashes every file the run wrote, and only those
            listed = {line.split("  ", 1)[1] for line in manifest.splitlines()[1:]}
            assert listed == {p.name for p in out.iterdir()} - {"manifest.txt"}, name
            manifests.append(manifest)
        return manifests[0] == manifests[1]

    data = str(root / "synth_a" / "data.csv")
    fc = str(root / "forecast_a" / "forecast.csv")
    common = ["--config", str(conf)]
    commands = {
        "synth": lambda out: ["synth", "--out", out, "--samples", "7200", "--seed", "5"],
        "granulate": lambda out: ["granulate", "--data", data, *common, "--out", out],
        "train": lambda out: ["train", "--data", data, *common, "--out", out],
        "forecast": lambda out: ["forecast", "--data", data, *common, "--out", out],
        "evaluate": lambda out: ["evaluate", "--forecast", fc, "--out", out],
        "cv": lambda out: ["cv", "--data", data, *common, "--out", out, "--folds", "3"],
        "benchmark-opt": lambda out: ["benchmark-opt", "--problem", "zdt1", *common, "--out", out],
    }
    stable = {name: run_pair(name, argv_for) for name, argv_for in commands.items()}
    ok = all(stable.values())
    report(
        "cli determinism",
        ok,
        "rerun manifests byte-identical for: " + ", ".join(sorted(stable)),
    )


def test_cross_validation_folds(cv_folds):
    gathered = np.sort(
        np.concatenate([fold.test_record_indices for fold in cv_folds])
    )
    partitioned = np.array_equal(gathered, np.arange(200))
    columns = set(PointScores.COLUMNS) == {
        "MAPE", "MSE", "MAE", "RMSE", "NMSE", "U1", "IA", "R2",
    } and all(isinstance(fold.scores, PointScores) for fold in cv_folds)
    ok = len(cv_folds) == 5 and partitioned and columns
    report(
        "cross-validation folds",
        ok,
        "5 disjoint test folds cover all 200 windows; per-fold score columns complete",
    )


class TestDefectGates:
    """Known defects of the shipped desk preset, one gate each over the
    seeds of ``desk_runs``. Each is a strict xfail until the change that
    fixes its ROADMAP item removes the marker."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_nets_beat_the_train_mean_tenfold(self, desk_runs):
        ratios = {
            (seed, kind): run.val_mse_ratios[kind]
            for seed, run in desk_runs.items()
            for kind in ("bilstm", "cnn_gru", "lstm_xgb")
        }
        worst = max(ratios, key=ratios.get)
        report(
            "nets beat the train-mean predictor 10x on validation MSE",
            ratios[worst] <= 0.1,
            f"worst ratio {ratios[worst]:.3f} (seed {worst[0]}, {worst[1]})",
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_clustering_converges(self, desk_runs):
        stuck = [seed for seed, run in desk_runs.items() if not run.converged]
        report("clustering converges", not stuck, f"not converged on seeds {stuck}")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
    def test_coverage_near_nominal(self, desk_runs):
        picp = {level: [run.picp[level] for run in desk_runs.values()] for level in (0.95, 0.85)}
        gaps = {level: abs(float(np.median(values)) - level) for level, values in picp.items()}
        report(
            "test PICP near nominal",
            max(gaps.values()) <= 0.05 and min(picp[0.95]) >= 0.75,
            f"PICP {picp}, median gaps {gaps}",
        )
