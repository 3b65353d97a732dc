"""Run-configuration tests: file parsing, value coercion, precedence
between flags and file entries, scoped overrides, and the stability of
the resolved dump."""

import dataclasses
import hashlib

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
        assert run.preset == "full"
        assert run.seed == 0
        assert run.window_size == 36
        assert run.lag == 4
        assert run.levels == (0.95, 0.85)
        assert run.optimizer.rng_seed == 10
        assert run.learners["bilstm"].rng_seed == 1
        assert run.learners["bilstm"].hidden_sizes == (128, 64, 32)

    def test_presets_constant(self):
        assert PRESETS == ("full", "desk")

    def test_preset_flag_beats_file(self, tmp_path):
        path = write_config(tmp_path, "preset = desk\n")
        assert build_run_config(config_path=path).preset == "desk"
        assert build_run_config(preset="full", config_path=path).preset == "full"

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config(preset="huge")
        path = write_config(tmp_path, "preset = huge\n")
        with pytest.raises(ConfigError):
            build_run_config(config_path=path)

    def test_seed_drives_derived_seeds(self, tmp_path):
        path = write_config(tmp_path, "seed = 7\n")
        run = build_run_config(config_path=path)
        assert run.seed == 7
        assert run.optimizer.rng_seed == 17
        assert [run.learners[k].rng_seed for k in sorted(run.learners)] == [8, 9, 10, 11]
        flagged = build_run_config(seed=3, config_path=path)
        assert flagged.seed == 3
        assert flagged.optimizer.rng_seed == 13

    def test_non_integer_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "seed = soon\n")
        with pytest.raises(ConfigError):
            build_run_config(config_path=path)

    def test_scalar_overrides(self, tmp_path):
        path = write_config(tmp_path, "window_size = 24\nlag = 6\nlevels = 0.9\n")
        run = build_run_config(config_path=path)
        assert run.window_size == 24
        assert run.lag == 6
        assert run.levels == (0.9,)

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
        path = write_config(tmp_path, "learners.epochs = 9\n")
        run = build_run_config(config_path=path)
        assert all(cfg.epochs == 9 for cfg in run.learners.values())

    def test_unknown_keys_rejected(self, tmp_path):
        for line in (
            "speed = 9",
            "split.half = 0.5",
            "cluster.radius = 2",
            "optimizer.momentum = 0.9",
            "learners.mlp.epochs = 5",
            "learners.bilstm.width = 5",
        ):
            path = write_config(tmp_path, line + "\n")
            with pytest.raises(ConfigError):
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


class TestDescribe:
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                {"preset": "desk", "seed": 5},
                "f576052f32624b13e690a27676b63b862ef2c77e67e52e5ccf1d0e5c4807b442",
            ),
            ({}, "8cb931f5269091a17db914f03904940b264a6978f0872d40ea2240f92c601c3a"),
        ],
    )
    def test_golden_digest(self, kwargs, digest):
        # config.txt and every manifest's config_sha256 hash this text
        text = build_run_config(**kwargs).describe()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_resolved_values_present(self, tmp_path):
        path = write_config(tmp_path, "seed = 7\noptimizer.population = 40\n")
        text = build_run_config(config_path=path).describe()
        assert "seed = 7\n" in text
        assert "optimizer.population = 40\n" in text
        assert "optimizer.rng_seed = 17\n" in text
        assert "learners.bilstm.epochs = 200\n" in text
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
