"""Command-line tests: artifact schemas, byte-level determinism across
reruns, manifest integrity, exit codes, and the console entry point."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import granucast
from granucast.cli import main
from granucast.config import build_run_config
from granucast.evaluation import PointScores, point_scores
from granucast.learners import load_model

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
        assert "solo model: cnn_gru" in capsys.readouterr().out


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


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["granulate", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_forecast_file(self, tmp_path):
        assert main(["evaluate", "--forecast", str(tmp_path / "nope.csv")]) == 2

    def test_missing_config_file(self, cli_env, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "granulate",
                    "--data",
                    cli_env.data,
                    "--config",
                    str(tmp_path / "nope.conf"),
                    "--out",
                    str(tmp_path / "g"),
                ]
            )
        assert exc.value.code == 2

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

    def test_bad_archive_size_stops_before_training(self, cli_env, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("preset = desk\noptimizer.archive_capacity = 0\n")
        out = tmp_path / "f"
        code = main(["forecast", "--data", cli_env.data, "--config", str(conf), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "optimizer.archive_capacity" in err
        assert not (out / "forecast.csv").exists()

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
        ],
        ids=["empty", "unpaired_interval_column", "unparseable_number", "ragged_rows"],
    )
    def test_malformed_forecast_csv_returns_one(self, tmp_path, capsys, text):
        path = tmp_path / "forecast.csv"
        path.write_text(text)
        assert main(["evaluate", "--forecast", str(path), "--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
    tomllib = pytest.importorskip("tomllib")
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
