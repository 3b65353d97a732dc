"""Run configuration: presets, flat config files, deterministic dumps.

Config files are plain ``key = value`` lines with ``#`` comments. Dotted
keys scope nested settings (``optimizer.population``, ``cluster.tol``,
``learners.bilstm.epochs``); a learner field without a kind applies to all
four learners. Flag-level settings (preset, seed) are resolved first
because derived per-component seeds depend on them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .ensemble import DEFAULT_LEVELS
from .errors import GranucastError
from .fuzzy_rough import ClusterConfig
from .learners import KINDS, LearnerConfig
from .sunflower import OptimizerConfig
from .timeseries import SplitSpec

PRESETS = ("full", "desk")


class ConfigError(GranucastError):
    pass


def _preset_learners(seed: int, preset: str) -> dict[str, LearnerConfig]:
    """Per-learner defaults; the desk preset shrinks hidden sizes and epochs only."""
    configs = {
        "bilstm": LearnerConfig(
            learning_rate=0.001, batch_size=100, hidden_sizes=(128, 64, 32),
            epochs=200, rng_seed=seed + 1,
        ),
        "cnn_gru": LearnerConfig(
            learning_rate=0.001, batch_size=150, hidden_sizes=(128, 64, 32),
            epochs=200, rng_seed=seed + 2,
        ),
        "lstm_xgb": LearnerConfig(
            learning_rate=0.001, batch_size=100, hidden_sizes=(128, 64, 32),
            epochs=750, max_depth=1, boosting_rounds=100, rng_seed=seed + 3,
        ),
        "random_forest": LearnerConfig(tree_count=100, rng_seed=seed + 4),
    }
    if preset == "desk":
        configs = {
            kind: dataclasses.replace(cfg, hidden_sizes=(16, 8), epochs=min(cfg.epochs, 60))
            for kind, cfg in configs.items()
        }
    return configs


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; ``build_run_config`` resolves one from a
    preset, a seed and an optional config file."""

    preset: str
    seed: int
    optimizer: OptimizerConfig
    learners: dict[str, LearnerConfig]
    window_size: int = 36
    lag: int = 4
    split: SplitSpec = dataclasses.field(default_factory=SplitSpec)
    levels: tuple[float, ...] = DEFAULT_LEVELS
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)

    def __post_init__(self):
        if type(self.window_size) is not int or self.window_size < 2:
            raise ValueError(f"expected an integer >= 2, got {self.window_size!r}")
        if type(self.lag) is not int or self.lag < 1:
            raise ValueError(f"expected an integer >= 1, got {self.lag!r}")
        if not all(isinstance(v, float) and 0.0 < v < 1.0 for v in self.levels):
            raise ValueError(f"expected levels in (0, 1), got {self.levels!r}")
        # forecast.csv names interval columns by whole percent
        percents = [round(v * 100) for v in self.levels]
        whole = all(p / 100 == v for p, v in zip(percents, self.levels))
        if not whole or len(set(percents)) != len(percents):
            raise ValueError(f"expected distinct whole percentages, got {self.levels!r}")
        missing = [kind for kind in KINDS if kind not in self.learners]
        if missing:
            raise ValueError(f"learner configs missing for {missing}")

    def pipeline(self) -> RunConfig:
        # kept only because perfbench/run.py calls it; remove at the next
        # change to the benchmark
        return self

    def describe(self) -> str:
        """Stable, fully resolved key = value dump (hashable provenance)."""
        lines = [
            f"preset = {self.preset}",
            f"seed = {self.seed}",
            f"window_size = {self.window_size}",
            f"lag = {self.lag}",
            f"levels = {', '.join(repr(v) for v in self.levels)}",
            f"split.train = {self.split.train_frac!r}",
            f"split.val = {self.split.val_frac!r}",
            f"split.test = {self.split.test_frac!r}",
        ]
        for name, obj in (("cluster", self.cluster), ("optimizer", self.optimizer)):
            for field in sorted(f.name for f in dataclasses.fields(obj)):
                lines.append(f"{name}.{field} = {getattr(obj, field)!r}")
        for kind in sorted(self.learners):
            cfg = self.learners[kind]
            for field in sorted(f.name for f in dataclasses.fields(cfg)):
                lines.append(f"learners.{kind}.{field} = {getattr(cfg, field)!r}")
        return "\n".join(lines) + "\n"


def parse_config_file(path: str | Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _parse_value(text: str):
    lowered = text.lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if "," in text:
        return tuple(_parse_value(part.strip()) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _replace_field(obj, field_name: str, value, key: str):
    """``obj`` with one field replaced; errors name the config ``key``."""
    if field_name not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigError(f"unknown setting {key}")
    try:
        return dataclasses.replace(obj, **{field_name: value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key}: {exc}") from exc


def build_run_config(
    preset: str | None = None,
    seed: int | None = None,
    config_path: str | Path | None = None,
) -> RunConfig:
    entries = parse_config_file(config_path) if config_path else {}

    # always consume the file's preset/seed entries so a flag override
    # doesn't leave them behind as unknown settings
    file_preset = entries.pop("preset", None)
    raw_seed = entries.pop("seed", None)
    preset = preset or file_preset or "full"
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    if seed is None:
        parsed = _parse_value(raw_seed) if raw_seed is not None else 0
        if not isinstance(parsed, int):
            raise ConfigError(f"seed must be an integer, got {raw_seed!r}")
        seed = parsed

    run = RunConfig(
        preset=preset,
        seed=seed,
        optimizer=OptimizerConfig(rng_seed=seed + 10),
        learners=_preset_learners(seed, preset),
    )
    split_fracs = dataclasses.asdict(run.split)
    for key in sorted(entries):
        value = _parse_value(entries[key])
        section, _, rest = key.partition(".")
        if key in ("window_size", "lag"):
            run = _replace_field(run, key, value, key)
        elif key == "levels":
            run = _replace_field(run, key, value if isinstance(value, tuple) else (value,), key)
        elif section == "split" and f"{rest}_frac" in split_fracs:
            split_fracs[f"{rest}_frac"] = value
        elif section in ("cluster", "optimizer"):
            part = _replace_field(getattr(run, section), rest, value, key)
            run = dataclasses.replace(run, **{section: part})
        elif section == "learners" and "." in rest:
            kind, field_name = rest.split(".", 1)
            if kind not in KINDS:
                raise ConfigError(f"unknown learner {kind!r} in {key}")
            learner = _replace_field(run.learners[kind], field_name, value, key)
            run = dataclasses.replace(run, learners={**run.learners, kind: learner})
        elif section == "learners":
            learners = {
                kind: _replace_field(cfg, rest, value, f"learners.{kind}.{rest}")
                for kind, cfg in run.learners.items()
            }
            run = dataclasses.replace(run, learners=learners)
        else:
            raise ConfigError(f"unknown setting {key}")

    try:
        return dataclasses.replace(run, split=SplitSpec(**split_fracs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid split fractions: {exc}") from exc
