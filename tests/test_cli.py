"""Command-line tests: artifact schemas, byte-level determinism across
reruns, manifest integrity, exit codes, and the console entry point."""

import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import granucast
from granucast import pipeline
from granucast.cli import main
from granucast.config import build_run_config
from granucast.evaluation import PointScores, mape, point_scores
from granucast.learners import load_model
from granucast.sunflower import ParetoArchive
from granucast.synth import SynthConfig

QUICK_CONF = """\
preset = desk
learners.epochs = 3
learners.batch_size = 32
learners.boosting_rounds = 10
learners.tree_count = 10
optimizer.population = 16
optimizer.iterations = 10
"""


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def manifest_digests(path):
    lines = path.read_text().splitlines()
    head = lines[0].split(" = ")
    files = dict(line.split("  ", 1) for line in lines[1:])
    return head[1], {name: digest for digest, name in files.items()}


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth_dir = root / "synth"
    assert main(["synth", "--out", str(synth_dir), "--samples", "7200", "--seed", "5"]) == 0
    conf = root / "quick.conf"
    conf.write_text(QUICK_CONF)
    return SimpleNamespace(root=root, data=str(synth_dir / "data.csv"), conf=str(conf))


@pytest.fixture(scope="module")
def forecast_dir(cli_env, tmp_path_factory):
    out = tmp_path_factory.mktemp("fc") / "run"
    code = main(
        ["forecast", "--data", cli_env.data, "--config", cli_env.conf, "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture
def fits(monkeypatch):
    """The kind of every learner fit, in call order."""
    kinds = []
    fit = pipeline.fit_learner

    def fit_and_record(kind, *args):
        kinds.append(kind)
        return fit(kind, *args)

    monkeypatch.setattr(pipeline, "fit_learner", fit_and_record)
    return kinds


@pytest.fixture(scope="module")
def solo_dir(cli_env, tmp_path_factory):
    out = tmp_path_factory.mktemp("solo") / "run"
    code = main(
        [
            "forecast",
            "--data",
            cli_env.data,
            "--config",
            cli_env.conf,
            "--out",
            str(out),
            "--model",
            "rf",
        ]
    )
    assert code == 0
    return out


class TestSynth:
    def test_artifacts_and_prints(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--samples", "400", "--seed", "1"]) == 0
        captured = capsys.readouterr().out
        assert "rows: 400" in captured
        rows = read_rows(out / "data.csv")
        assert rows[0] == ["timestamp", "wind_speed"]
        assert len(rows) == 401
        assert (out / "config.txt").exists() and (out / "manifest.txt").exists()

    def test_deterministic_across_directories(self, cli_env, tmp_path):
        out = tmp_path / "again"
        assert main(["synth", "--out", str(out), "--samples", "7200", "--seed", "5"]) == 0
        first = (cli_env.root / "synth" / "data.csv").read_bytes()
        assert (out / "data.csv").read_bytes() == first

    def test_manifest_digests_verify(self, cli_env):
        out = cli_env.root / "synth"
        config_digest, files = manifest_digests(out / "manifest.txt")
        assert config_digest == hashlib.sha256((out / "config.txt").read_bytes()).hexdigest()
        assert set(files) == {"config.txt", "data.csv"}
        for name, digest in files.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


class TestGranulate:
    def test_schemas_and_prints(self, cli_env, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(
            ["granulate", "--data", cli_env.data, "--config", cli_env.conf, "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "windows: 200" in captured
        granules = read_rows(out / "granules.csv")
        assert granules[0] == ["window_index", "low", "peak", "up"]
        assert len(granules) == 201
        low, peak, up = (float(v) for v in granules[1][1:])
        assert low <= peak <= up
        features = read_rows(out / "features.csv")
        assert features[0] == [
            "window_index",
            "membership_1",
            "membership_2",
            "membership_3",
            "low",
            "peak",
            "up",
            "nearest_cluster",
        ]
        assert len(features) == 201
        memberships = [float(v) for v in features[1][1:4]]
        assert sum(memberships) == pytest.approx(1.0, abs=1e-9)
        for row in features[1:]:
            assert int(row[-1]) == int(np.argmax([float(v) for v in row[1:4]]))

    def test_trace_rows_per_iteration(self, cli_env, tmp_path, capsys):
        out = tmp_path / "t"
        code = main(
            [
                "granulate",
                "--data",
                cli_env.data,
                "--config",
                cli_env.conf,
                "--out",
                str(out),
                "--trace",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        iterations = int(captured.split("clustering iterations: ")[1].split()[0])
        trace = read_rows(out / "trace.csv")
        assert trace[0] == ["iteration", "cluster", "low", "peak", "up"]
        assert len(trace) == 1 + 3 * iterations


class TestTrain:
    def test_single_model_flag(self, cli_env, tmp_path, capsys):
        out = tmp_path / "one"
        code = main(
            [
                "train",
                "--data",
                cli_env.data,
                "--config",
                cli_env.conf,
                "--out",
                str(out),
                "--model",
                "rf",
            ]
        )
        assert code == 0
        assert "trained random_forest" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == [
            "config.txt",
            "manifest.txt",
            "model_random_forest.npz",
        ]

    def test_all_models_load_and_predict(self, cli_env, tmp_path):
        out = tmp_path / "all"
        code = main(
            ["train", "--data", cli_env.data, "--config", cli_env.conf, "--out", str(out)]
        )
        assert code == 0
        names = sorted(p.name for p in out.glob("model_*.npz"))
        assert names == [
            "model_bilstm.npz",
            "model_cnn_gru.npz",
            "model_lstm_xgb.npz",
            "model_random_forest.npz",
        ]
        model = load_model(out / "model_random_forest.npz")
        preds = model.predict(np.zeros((2, 24)))
        assert preds.shape == (2,)


class TestLagShorterThanTheKernel:
    """cnn_gru's convolution needs a lag of at least its kernel (3 records)."""

    @pytest.fixture
    def short_lag(self, cli_env, tmp_path):
        conf = tmp_path / "lag2.conf"
        conf.write_text(QUICK_CONF + "lag = 2\n")
        return ["--data", cli_env.data, "--config", str(conf)]

    @pytest.mark.parametrize("command", ["forecast", "train"])
    def test_fails_before_any_learner_is_fit(self, short_lag, fits, command, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, *short_lag, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: lag 2 is shorter than cnn_gru's kernel of 3 records\n"
        )
        assert fits == []
        assert list(out.iterdir()) == []

    def test_random_forest_alone_still_trains(self, short_lag, fits, tmp_path):
        out = tmp_path / "rf"
        assert main(["train", *short_lag, "--model", "rf", "--out", str(out)]) == 0
        assert fits == ["random_forest"]
        assert load_model(out / "model_random_forest.npz").lag == 2

    def test_random_forest_alone_still_forecasts(self, short_lag, fits, tmp_path):
        out = tmp_path / "rf"
        assert main(["forecast", *short_lag, "--model", "rf", "--out", str(out)]) == 0
        assert fits == ["random_forest"]
        assert len(read_rows(out / "forecast.csv")) > 1


class TestForecast:
    def test_artifacts_and_prints(self, cli_env, forecast_dir, tmp_path, capsys):
        out = tmp_path / "fresh"
        code = main(
            ["forecast", "--data", cli_env.data, "--config", cli_env.conf, "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "forecast rows: 36" in captured
        assert "validation objectives: mape=" in captured
        assert "test mape = " in captured

        rows = read_rows(out / "forecast.csv")
        assert rows[0] == ["index", "actual", "point", "lo95", "hi95", "lo85", "hi85"]
        assert len(rows) == 37
        assert [int(r[0]) for r in rows[1:]] == list(range(164, 200))

        weights = (out / "weights.txt").read_text()
        for kind in ("bilstm", "cnn_gru", "lstm_xgb", "random_forest"):
            assert f"chosen {kind} = " in weights
        assert "archive size = " in weights

        archive = read_rows(out / "archive.csv")
        assert archive[0] == [
            "mape",
            "mse",
            "weight_bilstm",
            "weight_cnn_gru",
            "weight_lstm_xgb",
            "weight_random_forest",
        ]
        assert len(archive) >= 2

        # byte-identical to the module fixture's run in another directory
        for name in ("forecast.csv", "weights.txt", "archive.csv", "config.txt", "manifest.txt"):
            assert (out / name).read_bytes() == (forecast_dir / name).read_bytes()

    def test_config_txt_is_the_resolved_dump(self, cli_env, forecast_dir):
        expected = build_run_config(config_path=cli_env.conf).describe()
        assert (forecast_dir / "config.txt").read_text() == expected

    def test_config_txt_reproduces_its_run(self, cli_env, forecast_dir, tmp_path):
        out = tmp_path / "again"
        config = str(forecast_dir / "config.txt")
        code = main(["forecast", "--data", cli_env.data, "--config", config, "--out", str(out)])
        assert code == 0
        assert (out / "manifest.txt").read_bytes() == (forecast_dir / "manifest.txt").read_bytes()

    def test_solo_skips_weight_artifacts(self, cli_env, solo_dir):
        names = sorted(p.name for p in solo_dir.iterdir())
        assert names == ["config.txt", "forecast.csv", "manifest.txt"]
        rows = read_rows(solo_dir / "forecast.csv")
        assert rows[0] == ["index", "actual", "point", "lo95", "hi95", "lo85", "hi85"]

    def test_solo_prints_the_model(self, cli_env, tmp_path, capsys):
        out = tmp_path / "solo2"
        code = main(
            [
                "forecast",
                "--data",
                cli_env.data,
                "--config",
                cli_env.conf,
                "--out",
                str(out),
                "--model",
                "cnn-gru",
            ]
        )
        assert code == 0
        assert "single learner: cnn_gru" in capsys.readouterr().out

    def test_solo_fits_only_its_learner(self, cli_env, fits, tmp_path):
        argv = ["forecast", "--data", cli_env.data, "--config", cli_env.conf]
        assert main([*argv, "--out", str(tmp_path / "rf"), "--model", "rf"]) == 0
        assert fits == ["random_forest"]


class TestEvaluate:
    def test_metrics_recomputable_from_the_csv(self, forecast_dir, tmp_path):
        out = tmp_path / "m"
        code = main(
            ["evaluate", "--forecast", str(forecast_dir / "forecast.csv"), "--out", str(out)]
        )
        assert code == 0
        metrics = dict(read_rows(out / "metrics.csv")[1:])
        expected_names = list(PointScores.COLUMNS) + [
            "PICP_95",
            "PINAW_95",
            "AIS_95",
            "PICP_85",
            "PINAW_85",
            "AIS_85",
        ]
        assert list(metrics) == expected_names

        rows = read_rows(forecast_dir / "forecast.csv")[1:]
        actual = np.array([float(r[1]) for r in rows])
        point = np.array([float(r[2]) for r in rows])
        scores = point_scores(actual, point)
        assert float(metrics["MAPE"]) == scores.mape
        assert float(metrics["R2"]) == scores.r2

    def test_baseline_adds_the_comparison_rows(self, forecast_dir, solo_dir, tmp_path):
        out = tmp_path / "dm"
        code = main(
            [
                "evaluate",
                "--forecast",
                str(forecast_dir / "forecast.csv"),
                "--baseline",
                str(solo_dir / "forecast.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        metrics = dict(read_rows(out / "metrics.csv")[1:])
        assert "DM_STAT" in metrics and "DM_REJECT" in metrics
        assert float(metrics["DM_REJECT"]) in (0.0, 1.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                lambda rows: [[str(int(r[0]) + 1), *r[1:]] for r in rows],
                "baseline forecast data row 1 (index ",
            ),
            (
                lambda rows: [[r[0], s[1], *r[2:]] for r, s in zip(rows, rows[1:] + rows[:1])],
                "baseline forecast data row 1 (index ",
            ),
            (lambda rows: [[f"zz{k}", *r[1:]] for k, r in enumerate(rows)], "row 2: index 'zz0'"),
        ],
        ids=["shifted_index", "other_actuals", "text_index"],
    )
    def test_baseline_must_forecast_the_same_rows(
        self, forecast_dir, solo_dir, tmp_path, capsys, change, message
    ):
        header, *rows = read_rows(solo_dir / "forecast.csv")
        baseline = tmp_path / "baseline.csv"
        with baseline.open("w", newline="") as handle:
            csv.writer(handle).writerows([header, *change(rows)])
        argv = ["evaluate", "--forecast", str(forecast_dir / "forecast.csv")]
        assert main([*argv, "--baseline", str(baseline), "--out", str(tmp_path / "m")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m" / "metrics.csv").exists()


class TestCv:
    def test_fold_rows_and_mean(self, cli_env, tmp_path, capsys):
        out = tmp_path / "cv"
        code = main(
            [
                "cv",
                "--data",
                cli_env.data,
                "--config",
                cli_env.conf,
                "--out",
                str(out),
                "--folds",
                "5",
            ]
        )
        assert code == 0
        assert "mean MAPE = " in capsys.readouterr().out
        rows = read_rows(out / "cv_scores.csv")
        assert rows[0] == ["fold", *PointScores.COLUMNS]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4", "mean"]
        fold_mapes = [float(r[1]) for r in rows[1:6]]
        assert float(rows[6][1]) == pytest.approx(np.mean(fold_mapes), rel=1e-12)


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m granucast`` in a fresh interpreter, whose log lines
    reach a real stderr."""
    return subprocess.run(
        [sys.executable, "-m", "granucast", *argv],
        capture_output=True,
        text=True,
        env=env_with_package_on_path(),
    )


@pytest.fixture(scope="module")
def calm_data(cli_env):
    """The test series with a calm spell: window 170, in the test split,
    reads 0 m/s for all its 36 readings."""
    header, *rows = read_rows(cli_env.data)
    for row in rows[170 * 36 : 171 * 36]:
        row[1] = "0.0"
    path = cli_env.root / "calm.csv"
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    return str(path)


@pytest.fixture(scope="module")
def calm_forecast(cli_env, calm_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("calm") / "fc"
    argv = ["--data", calm_data, "--config", cli_env.conf, "--out", str(out)]
    return out, run_module("forecast", *argv)


class TestCalmWindow:
    """Every MAPE skips the calm window's zero actual, names the count on
    stderr, and the run finishes with its manifest."""

    def test_forecast_finishes(self, calm_forecast):
        out, result = calm_forecast
        assert result.returncode == 0, result.stderr
        assert (out / "manifest.txt").exists()
        assert result.stderr.count("MAPE skips 1 of 36 actuals below 1e-08") == 1
        rows = read_rows(out / "forecast.csv")[1:]
        assert ["170", "0.0"] in [row[:2] for row in rows]
        # the validation split holds no calm reading
        assert "excluded from mape = 0" in (out / "weights.txt").read_text()
        [printed] = [line for line in result.stdout.splitlines() if line.startswith("test mape")]
        actual = [float(row[1]) for row in rows]
        point = [float(row[2]) for row in rows]
        assert printed == f"test mape = {mape(actual, point)!r}"

    def test_evaluate_finishes(self, calm_forecast, tmp_path):
        fc, _ = calm_forecast
        out = tmp_path / "m"
        result = run_module("evaluate", "--forecast", str(fc / "forecast.csv"), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "manifest.txt").exists()
        assert "MAPE skips 1 of 36 actuals below 1e-08" in result.stderr
        metrics = dict(read_rows(out / "metrics.csv")[1:])
        assert f"test mape = {metrics['MAPE']}" in calm_forecast[1].stdout

    def test_cv_finishes(self, cli_env, calm_data, tmp_path):
        out = tmp_path / "cv"
        argv = ["--data", calm_data, "--config", cli_env.conf, "--folds", "3"]
        result = run_module("cv", *argv, "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "manifest.txt").exists()
        assert re.search(r"MAPE skips 1 of \d+ actuals below 1e-08", result.stderr)


class TestBenchmarkOpt:
    def test_front_csv_and_prints(self, cli_env, tmp_path, capsys):
        out = tmp_path / "opt"
        code = main(
            [
                "benchmark-opt",
                "--problem",
                "zdt1",
                "--config",
                cli_env.conf,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "archive size: " in captured
        assert "igd = " in captured
        rows = read_rows(out / "front.csv")
        assert rows[0] == ["objective_1", "objective_2", "x_1", "x_2", "x_3", "x_4"]
        assert len(rows) >= 2
        assert "problem = zdt1" in (out / "config.txt").read_text()

    def test_config_txt_reproduces_its_run(self, cli_env, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["benchmark-opt", "--problem", "zdt1", "--out"]
        assert main([*argv, str(first), "--config", cli_env.conf]) == 0
        assert main([*argv, str(second), "--config", str(first / "config.txt")]) == 0
        manifest = (first / "manifest.txt").read_bytes()
        assert (second / "manifest.txt").read_bytes() == manifest


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["granulate", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_forecast_file(self, tmp_path):
        assert main(["evaluate", "--forecast", str(tmp_path / "nope.csv")]) == 2

    def test_missing_config_file(self, cli_env, tmp_path, capsys):
        conf, out = tmp_path / "nope.conf", tmp_path / "g"
        argv = ["granulate", "--data", cli_env.data, "--config", str(conf), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: no such file: {conf}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            [command, "--data", "MISSING"] for command in ("granulate", "train", "forecast", "cv")
        ]
        + [
            [command, "--data", "DATA", "--config", "MISSING"]
            for command in ("granulate", "train", "forecast", "cv")
        ]
        + [
            ["benchmark-opt", "--problem", "zdt1", "--config", "MISSING"],
            ["evaluate", "--forecast", "MISSING"],
            ["evaluate", "--forecast", "DATA", "--baseline", "MISSING"],
        ],
        ids=lambda argv: f"{argv[0]}_{argv[argv.index('MISSING') - 1].lstrip('-')}",
    )
    def test_missing_input_file_returns_two(self, cli_env, tmp_path, capsys, argv):
        missing, out = tmp_path / "missing.csv", tmp_path / "nested" / "out"
        subs = {"DATA": cli_env.data, "MISSING": str(missing)}
        assert main([*(subs.get(arg, arg) for arg in argv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "argv",
        [["synth", "--samples", "50"], ["forecast", "--data", "DATA", "--preset", "desk"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_a_file"])
    def test_unusable_out_returns_two(self, cli_env, tmp_path, capsys, monkeypatch, argv, below):
        fitted = []
        monkeypatch.setattr(pipeline, "fit_learner", lambda kind, *_: fitted.append(kind))
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "sub" if below else blocker
        argv = [cli_env.data if arg == "DATA" else arg for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == "keep\n" and fitted == []

    def test_out_that_holds_a_run_returns_two(
        self, cli_env, forecast_dir, tmp_path, capsys, monkeypatch
    ):
        # a copy of the ensemble forecast, so a faulty run cannot spoil the fixture
        out = tmp_path / "run"
        shutil.copytree(forecast_dir, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        fitted = []
        monkeypatch.setattr(pipeline, "fit_learner", lambda kind, *_: fitted.append(kind))
        argv = ["forecast", "--data", cli_env.data, "--config", cli_env.conf, "--model", "rf"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output directory {out} already holds a run (manifest.txt)\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert fitted == []

    def test_out_without_a_manifest_is_used(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep\n")
        assert main(["synth", "--samples", "50", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.txt").is_file()
        assert (tmp_path / "notes.txt").read_text() == "keep\n"

    @pytest.mark.parametrize(
        "argv, text, where",
        [
            (["granulate", "--data", "BAD"], b"timestamp,wind_speed\n0,\xff\xfe\n", ": row 2"),
            (["granulate", "--data", "DATA", "--config", "BAD"], b"lag = 4\n\xff\xfe = 1\n", ":2"),
            (["evaluate", "--forecast", "BAD"], b"index,actual,point\n\n0\xff,1,1\n", ": row 3"),
        ],
        ids=["data", "config", "forecast"],
    )
    def test_input_that_is_not_utf8_returns_one(
        self, cli_env, tmp_path, capsys, argv, text, where
    ):
        # each names the file row or line of the bad byte
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(text)
        subs = {"DATA": cli_env.data, "BAD": str(bad)}
        assert main([*(subs.get(arg, arg) for arg in argv), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}{where}: not UTF-8 text")

    def test_epoch_outside_int64_returns_one(self, tmp_path, capsys):
        bad = tmp_path / "huge.csv"
        bad.write_text("timestamp,wind_speed\n0,5.0\n99999999999999999999,6.0\n")
        assert main(["granulate", "--data", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: row 3: timestamp out of range\n"

    def test_unsound_archive_returns_one(self, cli_env, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ParetoArchive, "is_sound", lambda self: False)
        argv = ["benchmark-opt", "--problem", "zdt1", "--config", cli_env.conf]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: archive soundness check failed\n"
        assert not (tmp_path / "o" / "manifest.txt").exists()

    def test_unknown_problem_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark-opt", "--problem", "zdt9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_runtime_error_returns_one(self, tmp_path, capsys):
        synth = tmp_path / "tiny"
        assert main(["synth", "--out", str(synth), "--samples", "360", "--seed", "0"]) == 0
        capsys.readouterr()
        code = main(
            [
                "forecast",
                "--data",
                str(synth / "data.csv"),
                "--preset",
                "desk",
                "--out",
                str(tmp_path / "fc"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_key_returns_one(self, cli_env, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("speed = 9\n")
        code = main(
            [
                "granulate",
                "--data",
                cli_env.data,
                "--config",
                str(conf),
                "--out",
                str(tmp_path / "g"),
            ]
        )
        assert code == 1
        assert "unknown setting" in capsys.readouterr().err

    def test_bad_config_value_returns_one(self, cli_env, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("preset = desk\nlevels = 1.5\n")
        out = tmp_path / "f"
        code = main(["forecast", "--data", cli_env.data, "--config", str(conf), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "levels" in err
        assert not (out / "forecast.csv").exists()

    @pytest.mark.parametrize(
        "line", ["learners.bilstm.learning_rate = nan", "learners.bilstm.epochs = 2.5"]
    )
    def test_bad_learner_value_stops_before_training(
        self, cli_env, tmp_path, capsys, monkeypatch, line
    ):
        fitted = []
        monkeypatch.setattr(pipeline, "fit_learner", lambda kind, *_: fitted.append(kind))
        conf = tmp_path / "bad.conf"
        conf.write_text(f"preset = desk\n{line}\n")
        out = tmp_path / "f"
        argv = ["forecast", "--data", cli_env.data, "--config", str(conf), "--model", "bilstm"]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid value for {line.split(' =')[0]}")
        assert fitted == [] and not (out / "forecast.csv").exists()

    def test_bad_archive_size_stops_before_training(self, cli_env, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("preset = desk\noptimizer.population = 0\n")
        out = tmp_path / "f"
        code = main(["forecast", "--data", cli_env.data, "--config", str(conf), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "optimizer.population" in err
        assert not (out / "forecast.csv").exists()

    @pytest.mark.parametrize(
        "key",
        [
            "cluster.inner_margin",
            "cluster.outer_margin",
            "cluster.outer_weight",
            "optimizer.pollination_rate",
            "optimizer.mortality_rate",
            "optimizer.tent_apex",
            "optimizer.archive_capacity",
            "optimizer.grid_divisions",
        ],
    )
    def test_fixed_search_shape_is_not_a_setting(
        self, cli_env, tmp_path, capsys, monkeypatch, key
    ):
        # an older config.txt lists these keys; deleting the line makes it usable
        fitted = []
        monkeypatch.setattr(pipeline, "fit_learner", lambda kind, *_: fitted.append(kind))
        conf = tmp_path / "old.conf"
        conf.write_text(f"preset = desk\n{key} = 0.5\n")
        out = tmp_path / "f"
        code = main(["forecast", "--data", cli_env.data, "--config", str(conf), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: unknown setting {key}\n"
        assert fitted == [] and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--seed", "-3"],
            ["granulate", "--data", "DATA", "--seed", "-2"],
            ["train", "--data", "DATA", "--preset", "desk", "--seed", "-2"],
            ["forecast", "--data", "DATA", "--preset", "desk", "--seed", "-2"],
            ["cv", "--data", "DATA", "--preset", "desk", "--seed", "-2"],
            ["benchmark-opt", "--problem", "zdt1", "--seed", "-3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_a_usage_error(self, cli_env, fits, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [cli_env.data if arg == "DATA" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed must be at least 0" in err and "Traceback" not in err
        assert fits == [] and not out.exists()

    def test_negative_seed_in_a_config_file_returns_one(self, cli_env, fits, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("preset = desk\nseed = -2\n")
        out = tmp_path / "f"
        code = main(["forecast", "--data", cli_env.data, "--config", str(conf), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: seed must be an integer >= 0")
        assert fits == [] and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["granulate", "--data", "DATA"],
            ["train", "--data", "DATA"],
            ["forecast", "--data", "DATA"],
            ["cv", "--data", "DATA"],
            ["benchmark-opt", "--problem", "zdt1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejected_config_creates_no_output_directory(
        self, cli_env, fits, tmp_path, capsys, argv
    ):
        conf = tmp_path / "bad.conf"
        conf.write_text("preset = desk\nno_such_key = 1\n")
        out = tmp_path / "nested" / "out"
        argv = [cli_env.data if arg == "DATA" else arg for arg in argv]
        code = main([*argv, "--config", str(conf), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown setting no_such_key\n"
        assert fits == [] and not out.parent.exists()

    def test_synth_config_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SynthConfig(seed=-1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--forecast", "forecast.csv", "--config", "/nonexistent.conf"],
            ["synth", "--preset", "desk", "--config", "/nonexistent.conf"],
        ],
        ids=["evaluate_config", "synth_preset_config"],
    )
    def test_unread_flag_is_a_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    def test_folds_too_small_for_lag_return_one(self, cli_env, tmp_path, capsys):
        # 200 feature rows in 50 folds leave 4 rows per test fold; lag 4 needs 5
        argv = ["cv", "--data", cli_env.data, "--preset", "desk", "--folds", "50"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_single_fold_is_a_usage_error(self, cli_env, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", cli_env.data, "--out", str(tmp_path), "--folds", "1"])
        assert exc.value.code == 2
        assert "--folds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--samples", "1"],
            ["synth", "--gap-fraction", "0.7"],
            ["benchmark-opt", "--problem", "zdt1", "--dim", "1"],
        ],
        ids=["synth_one_sample", "synth_gap_fraction", "opt_one_dimension"],
    )
    def test_out_of_range_option_is_a_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "index,actual,point,lo95\n0,5.0,5.1,4.0\n",
            "index,actual,point\n0,5.0,fast\n",
            "index,actual,point,lo95,hi95\n0,5.0,5.1,4.0,6.0\n1,5.0,5.1\n",
            "index,actual,point\n0,5.0,nan\n1,6.0,6.1\n",
            "index,actual,point,lo95,hi95\n0,5.0,5.1,4.0,inf\n1,6.0,6.1,5.0,7.0\n",
            "index,actual,point,lo0,hi0\n0,5.0,5.1,5.1,5.1\n1,6.0,6.1,6.1,6.1\n",
            "index,actual,point,lo100,hi100\n0,5.0,5.1,4.0,6.0\n1,6.0,6.1,5.0,7.0\n",
            (
                "index,actual,point,lo95,hi95,lo95,hi95\n"
                "0,5.0,5.1,4.0,6.0,4.5,5.5\n1,6.0,6.1,5.0,7.0,5.5,6.5\n"
            ),
        ],
        ids=[
            "empty",
            "unpaired_interval_column",
            "unparseable_number",
            "ragged_rows",
            "nan_cell",
            "inf_cell",
            "level_0",
            "level_100",
            "repeated_level",
        ],
    )
    def test_malformed_forecast_csv_returns_one(self, tmp_path, capsys, text):
        path = tmp_path / "forecast.csv"
        path.write_text(text)
        assert main(["evaluate", "--forecast", str(path), "--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"index,actual,point\n0,5.0,5.1\n\n1,6.0\n", "row 4 has 2 fields, expected 3"),
            (b"index,actual,point\n0,5.0,fast\n", "row 2: unparseable number: could not"),
            (b"index,actual,point\n0,5.0,nan\n1,6.0\n", "row 2: NaN or infinite value"),
            (b"index,actual,point\n0,5.0,5.1\n1\xff,6.0,6.1\n", "row 3: not UTF-8 text"),
            (b"index,actual,p\xffoint\n0,5.0,5.1\n", "row 1: not UTF-8 text"),
            (b"index,actual,point\n0,5.0\n1,6.0,\xff\n", "row 2 has 2 fields, expected 3"),
            (b"index,actual,point\n0,5.0,fast\n1,6.0,\xff\n", "row 2: unparseable number"),
            (b"index,actual,point\n0,5.0,5.1\n-1,6.0,6.1\n", "row 3: index '-1' is not"),
            (b"index,actual,point\n1.0,5.0,5.1\n", "row 2: index '1.0' is not an integer"),
        ],
        ids=[
            "short_row_after_a_blank_line",
            "unparseable_number",
            "nan_before_a_short_row",
            "bad_byte_in_the_index",
            "bad_byte_in_the_header",
            "short_row_before_a_bad_byte",
            "bad_number_before_a_bad_byte",
            "negative_index",
            "fractional_index",
        ],
    )
    def test_forecast_csv_fault_names_the_first_faulty_file_row(
        self, tmp_path, capsys, data, message
    ):
        path = tmp_path / "forecast.csv"
        path.write_bytes(data)
        assert main(["evaluate", "--forecast", str(path), "--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def env_with_package_on_path() -> dict[str, str]:
    """The environment with the package this suite imported first on
    PYTHONPATH, so a fresh interpreter imports the same code."""
    src_root = str(Path(granucast.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_console_script_entry_point(tmp_path):
    """The `granucast` script declared in pyproject.toml runs `synth`.

    The script itself exists only after an install, so the test reads the
    declared `module:attr` and calls it in a fresh interpreter the way the
    launcher that pip writes does, with the package this suite imported
    first on the path.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["granucast"]
    module, attr = target.split(":")
    launcher = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'granucast'\n"
        f"sys.exit({attr}())\n"
    )
    out = tmp_path / "s"
    result = subprocess.run(
        [sys.executable, "-c", launcher, "synth", "--out", str(out), "--samples", "50"],
        capture_output=True,
        text=True,
        env=env_with_package_on_path(),
    )
    assert result.returncode == 0, result.stderr
    assert (out / "data.csv").exists(), result.stderr


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "granucast", "--help"],
        capture_output=True,
        text=True,
        env=env_with_package_on_path(),
    )
    assert result.returncode == 0
    assert "forecast" in result.stdout
