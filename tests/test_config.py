"""Run-configuration tests: file parsing, value coercion, precedence
between flags and file entries, scoped overrides, and the stability of
the resolved dump."""

import dataclasses
import hashlib
import re

import pytest

from granucast.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    _parse_value,
    build_run_config,
    parse_config_file,
)


def write_config(tmp_path, text: str):
    path = tmp_path / "run.conf"
    path.write_text(text)
    return path


class TestParseConfigFile:
    def test_values_comments_and_blanks(self, tmp_path):
        path = write_config(
            tmp_path,
            "\n".join(
                [
                    "# full-line comment",
                    "",
                    "seed = 7",
                    "optimizer.population = 40  # trailing comment",
                    "  lag=5  ",
                ]
            ),
        )
        assert parse_config_file(path) == {
            "seed": "7",
            "optimizer.population": "40",
            "lag": "5",
        }

    def test_missing_equals_reports_the_line(self, tmp_path):
        path = write_config(tmp_path, "seed = 7\njust words\n")
        with pytest.raises(ConfigError, match=r"run\.conf:2"):
            parse_config_file(path)

    def test_bytes_that_are_not_utf8_are_a_config_error(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"seed = 7\n\xff\xfe = 1\n")
        with pytest.raises(ConfigError, match=f"{path}:2: not UTF-8 text"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text, fault",
        [
            (b"seed = 7\n# caf\xe9\n", ":2: not UTF-8 text"),
            (b"seed = 7\njust words\n# caf\xe9\n", ":2: expected 'key = value'"),
        ],
        ids=["in_a_comment", "after_an_earlier_fault"],
    )
    def test_a_bad_byte_is_a_fault_of_its_line(self, tmp_path, text, fault):
        path = tmp_path / "run.conf"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=f"{path}{fault}"):
            parse_config_file(path)

    def test_later_entries_win(self, tmp_path):
        path = write_config(tmp_path, "lag = 3\nlag = 6\n")
        assert parse_config_file(path) == {"lag": "6"}


class TestParseValue:
    def test_scalars(self):
        assert _parse_value("none") is None
        assert _parse_value("null") is None
        assert _parse_value("True") is True
        assert _parse_value("FALSE") is False
        assert _parse_value("42") == 42
        assert isinstance(_parse_value("42"), int)
        assert _parse_value("0.95") == 0.95
        assert _parse_value("1e-6") == 1e-6
        assert _parse_value("desk") == "desk"

    def test_comma_makes_a_tuple(self):
        assert _parse_value("0.95, 0.85") == (0.95, 0.85)
        assert _parse_value("16, 8") == (16, 8)


class TestBuildRunConfig:
    def test_defaults(self):
        run = build_run_config()
        assert run.window_size == 36
        assert run.lag == 4
        assert run.levels == (0.95, 0.85)
        assert run.optimizer.rng_seed == 10
        assert run.learners["bilstm"].rng_seed == 1
        assert run.learners["bilstm"].hidden_sizes == (128, 64, 32)
        assert not hasattr(run, "preset") and not hasattr(run, "seed")

    def test_presets_constant(self):
        assert PRESETS == ("full", "desk")

    def test_preset_flag_beats_file(self, tmp_path):
        path = write_config(tmp_path, "preset = desk\n")
        desk = build_run_config(config_path=path).learners["bilstm"]
        assert desk.hidden_sizes == (16, 8)
        full = build_run_config(preset="full", config_path=path).learners["bilstm"]
        assert full.hidden_sizes == (128, 64, 32)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(preset="huge")
        path = write_config(tmp_path, "preset = huge\n")
        with pytest.raises(ConfigError):
            build_run_config(config_path=path)

    def test_seed_drives_derived_seeds(self, tmp_path):
        path = write_config(tmp_path, "seed = 7\n")
        run = build_run_config(config_path=path)
        assert run.optimizer.rng_seed == 17
        assert [run.learners[k].rng_seed for k in sorted(run.learners)] == [8, 9, 10, 11]
        flagged = build_run_config(seed=3, config_path=path)
        assert flagged.optimizer.rng_seed == 13
        assert [flagged.learners[k].rng_seed for k in sorted(run.learners)] == [4, 5, 6, 7]

    def test_non_integer_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "seed = soon\n")
        with pytest.raises(ConfigError):
            build_run_config(config_path=path)

    def test_negative_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "seed = -2\n")
        with pytest.raises(ConfigError, match="seed"):
            build_run_config(config_path=path)
        with pytest.raises(ConfigError, match="seed"):
            build_run_config(seed=-2)

    def test_scalar_overrides(self, tmp_path):
        path = write_config(
            tmp_path,
            "window_size = 24\nlag = 6\nlevels = 0.9\nlearners.bilstm.hidden_sizes = 32\n",
        )
        run = build_run_config(config_path=path)
        assert run.window_size == 24
        assert run.lag == 6
        assert run.levels == (0.9,)
        assert run.learners["bilstm"].hidden_sizes == (32,)

    def test_split_overrides(self, tmp_path):
        path = write_config(
            tmp_path, "split.train = 0.7\nsplit.val = 0.15\nsplit.test = 0.15\n"
        )
        run = build_run_config(config_path=path)
        assert run.split.train_frac == 0.7
        assert run.split.val_frac == 0.15

    def test_invalid_split_sum(self, tmp_path):
        for line in ("split.train = 0.9", "split.train = most"):
            path = write_config(tmp_path, line + "\n")
            with pytest.raises(ConfigError, match="split"):
                build_run_config(config_path=path)

    def test_nested_overrides(self, tmp_path):
        path = write_config(
            tmp_path, "optimizer.population = 40\ncluster.cluster_count = 5\n"
        )
        run = build_run_config(config_path=path)
        assert run.optimizer.population == 40
        assert run.cluster.cluster_count == 5
        assert run.optimizer.iterations == 100

    def test_learner_overrides_one_kind(self, tmp_path):
        path = write_config(tmp_path, "learners.bilstm.epochs = 77\n")
        run = build_run_config(config_path=path)
        assert run.learners["bilstm"].epochs == 77
        assert run.learners["cnn_gru"].epochs == 200

    def test_learner_overrides_every_kind(self, tmp_path):
        # a bare learner field sets every kind that reads it, and only those
        path = write_config(tmp_path, "learners.epochs = 9\n")
        run = build_run_config(config_path=path)
        assert [run.learners[k].epochs for k in ("bilstm", "cnn_gru", "lstm_xgb")] == [9, 9, 9]
        assert not hasattr(run.learners["random_forest"], "epochs")
        path = write_config(tmp_path, "learners.tree_count = 9\n")
        run = build_run_config(config_path=path)
        defaults = build_run_config().learners
        assert run.learners["random_forest"].tree_count == 9
        assert all(run.learners[k] == defaults[k] for k in ("bilstm", "cnn_gru", "lstm_xgb"))

    def test_kind_key_beats_bare_key(self, tmp_path):
        # whatever the alphabetical order of the kind and the field
        path = write_config(
            tmp_path,
            "learners.batch_size = 7\nlearners.cnn_gru.batch_size = 50\n"
            "learners.epochs = 9\nlearners.bilstm.epochs = 77\n",
        )
        run = build_run_config(config_path=path)
        assert run.learners["cnn_gru"].batch_size == 50
        assert run.learners["bilstm"].epochs == 77
        assert run.learners["bilstm"].batch_size == 7
        assert run.learners["cnn_gru"].epochs == 9

    def test_unknown_keys_rejected(self, tmp_path):
        for line in (
            "speed = 9",
            "split.half = 0.5",
            "cluster.radius = 2",
            "optimizer.momentum = 0.9",
            "learners.mlp.epochs = 5",
            "learners.bilstm.width = 5",
            # settings that exist, but not for this kind, or for no kind
            "learners.random_forest.epochs = 5",
            "learners.bilstm.tree_count = 3",
            "learners.lstm_xgb.tree_count = 3",
            "learners.dropout = 0.1",
        ):
            path = write_config(tmp_path, line + "\n")
            with pytest.raises(ConfigError, match=re.escape(line.split(" =")[0])):
                build_run_config(config_path=path)

    def test_invalid_nested_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "optimizer.population = 0\n")
        with pytest.raises(ConfigError, match="optimizer.population"):
            build_run_config(config_path=path)

    @pytest.mark.parametrize(
        "line, key",
        [
            ("window_size = 1", "window_size"),
            ("window_size = 2.5", "window_size"),
            ("lag = 0", "lag"),
            ("levels = 1.5", "levels"),
            ("levels = 0.95, 0.0", "levels"),
            ("levels = 0.95, high", "levels"),
            ("levels = 0.975, 0.85", "levels"),
            ("levels = 0.951, 0.949", "levels"),
            ("levels = 0.95, 0.95", "levels"),
            ("learners.lstm_xgb.max_depth = None", "learners.lstm_xgb.max_depth"),
            ("learners.bilstm.learning_rate = nan", "learners.bilstm.learning_rate"),
            ("learners.bilstm.learning_rate = inf", "learners.bilstm.learning_rate"),
            ("cluster.tol = nan", "cluster.tol"),
            ("cluster.tol = inf", "cluster.tol"),
            ("cluster.tol = -1", "cluster.tol"),
            ("learners.lstm_xgb.lambda_reg = inf", "learners.lstm_xgb.lambda_reg"),
            ("learners.lstm_xgb.gamma_reg = inf", "learners.lstm_xgb.gamma_reg"),
            ("optimizer.rng_seed = -1", "optimizer.rng_seed"),
            ("learners.bilstm.rng_seed = -1", "learners.bilstm.rng_seed"),
            ("split.train = nan", "split.train"),
            ("cluster.max_iters = 2.5", "cluster.max_iters"),
            ("cluster.cluster_count = 2.5", "cluster.cluster_count"),
            ("learners.bilstm.epochs = 2.5", "learners.bilstm.epochs"),
            ("learners.bilstm.epochs = true", "learners.bilstm.epochs"),
            ("learners.random_forest.tree_count = 3.5", "learners.random_forest.tree_count"),
            ("learners.random_forest.max_depth = 2.5", "learners.random_forest.max_depth"),
            ("learners.bilstm.hidden_sizes = 2.5, 3", "learners.bilstm.hidden_sizes"),
            ("optimizer.population = 2.5", "optimizer.population"),
        ],
    )
    def test_out_of_range_value_names_the_key(self, tmp_path, line, key):
        path = write_config(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=f"invalid value for {key}"):
            build_run_config(config_path=path)

    def test_pipeline_wiring(self, tmp_path):
        path = write_config(tmp_path, "window_size = 48\noptimizer.population = 33\n")
        run = build_run_config(config_path=path)
        assert run.pipeline() is run
        assert run.window_size == 48
        assert run.optimizer.population == 33


class TestRunConfigChecks:
    """A config built in code gets the same checks as one read from a file."""

    @pytest.mark.parametrize(
        "field, value", [("window_size", 1), ("lag", 0), ("levels", (1.5,))]
    )
    def test_replace_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(build_run_config(), **{field: value})

    def test_each_kind_needs_its_config_type(self):
        run = build_run_config()
        swapped = {**run.learners, "bilstm": run.learners["lstm_xgb"]}
        with pytest.raises(ValueError, match="bilstm"):
            dataclasses.replace(run, learners=swapped)


class TestDescribe:
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                {"preset": "desk", "seed": 5},
                "bb5d6daec9c79b63afae6ac74c66aa33cd30634561bd3da39cf5712a34169530",
            ),
            ({}, "64e43af1cc6ef7685445a2cc1919c4d466ded7195bf7a8fc847418210ca649c5"),
        ],
        ids=["desk_seed_5", "defaults"],
    )
    def test_golden_digest(self, kwargs, digest):
        # config.txt and every manifest's config_sha256 hash this text
        text = build_run_config(**kwargs).describe()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_resolved_values_present(self, tmp_path):
        path = write_config(tmp_path, "seed = 7\noptimizer.population = 40\n")
        text = build_run_config(config_path=path).describe()
        assert "seed" not in text.replace("rng_seed", "")
        assert "optimizer.population = 40\n" in text
        assert "optimizer.rng_seed = 17\n" in text
        assert "learners.bilstm.rng_seed = 8\n" in text
        assert "learners.random_forest.rng_seed = 11\n" in text
        assert "learners.bilstm.epochs = 200\n" in text
        assert "learners.bilstm.hidden_sizes = 128, 64, 32\n" in text
        assert text.endswith("\n")

    def test_stable_under_entry_order(self, tmp_path):
        a = write_config(tmp_path, "lag = 6\nseed = 2\n")
        b = tmp_path / "other.conf"
        b.write_text("seed = 2\nlag = 6\n")
        assert build_run_config(config_path=a).describe() == build_run_config(
            config_path=b
        ).describe()

    def test_repeated_calls_identical(self):
        run = build_run_config(preset="desk", seed=5)
        assert run.describe() == run.describe()
        assert isinstance(run, RunConfig)
