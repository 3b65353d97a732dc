"""Run configuration: presets, flat config files, deterministic dumps.

Config files are plain ``key = value`` lines with ``#`` comments. Dotted
keys scope nested settings (``optimizer.population``, ``cluster.tol``,
``learners.bilstm.epochs``); a learner field without a kind applies to
every learner that reads it. The preset and seed set the defaults and the
per-component seeds; the dump ``describe`` writes is itself a config file.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .ensemble import DEFAULT_LEVELS
from .errors import GranucastError, require_int
from .fuzzy_rough import ClusterConfig
from .learners import CONFIG_TYPES, KINDS, ForestConfig, NetConfig, StackConfig
from .sunflower import OptimizerConfig
from .timeseries import SplitSpec, is_utf8

PRESETS = ("full", "desk")


class ConfigError(GranucastError):
    pass


def _preset_learners(seed: int, preset: str) -> dict[str, NetConfig | ForestConfig]:
    """Per-learner settings that differ from the config defaults; the desk
    preset shrinks the nets' hidden sizes and epochs and raises their
    learning rate to 0.01, which its few Adam steps need."""
    configs = {
        "bilstm": NetConfig(rng_seed=seed + 1),
        "cnn_gru": NetConfig(batch_size=150, rng_seed=seed + 2),
        "lstm_xgb": StackConfig(epochs=750, rng_seed=seed + 3),
        "random_forest": ForestConfig(rng_seed=seed + 4),
    }
    if preset == "desk":
        configs = {
            kind: dataclasses.replace(
                cfg, hidden_sizes=(16, 8), epochs=min(cfg.epochs, 60), learning_rate=0.01
            )
            if isinstance(cfg, NetConfig) else cfg
            for kind, cfg in configs.items()
        }
    return configs


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; ``build_run_config`` resolves one from a
    preset, a seed and an optional config file."""

    optimizer: OptimizerConfig
    learners: dict[str, NetConfig | ForestConfig]
    window_size: int = 36
    lag: int = 4
    split: SplitSpec = dataclasses.field(default_factory=SplitSpec)
    levels: tuple[float, ...] = DEFAULT_LEVELS
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)

    def __post_init__(self):
        require_int("window_size", self.window_size, 2)
        require_int("lag", self.lag, 1)
        if not all(isinstance(v, float) and 0.0 < v < 1.0 for v in self.levels):
            raise ValueError(f"expected levels in (0, 1), got {self.levels!r}")
        # forecast.csv names interval columns by whole percent
        percents = [round(v * 100) for v in self.levels]
        whole = all(p / 100 == v for p, v in zip(percents, self.levels))
        if not whole or len(set(percents)) != len(percents):
            raise ValueError(f"expected distinct whole percentages, got {self.levels!r}")
        wrong = [k for k, cls in CONFIG_TYPES.items() if type(self.learners.get(k)) is not cls]
        if wrong:
            raise ValueError(f"learner configs missing or of the wrong type for {wrong}")

    def pipeline(self) -> RunConfig:
        # kept only because perfbench/run.py calls it; remove at the next
        # change to the benchmark
        return self

    def describe(self) -> str:
        """Stable, fully resolved key = value dump (hashable provenance)."""
        lines = [
            f"window_size = {self.window_size}",
            f"lag = {self.lag}",
            f"levels = {_format_value(self.levels)}",
            f"split.train = {self.split.train_frac!r}",
            f"split.val = {self.split.val_frac!r}",
            f"split.test = {self.split.test_frac!r}",
        ]
        sections = [("cluster", self.cluster), ("optimizer", self.optimizer)]
        sections += [(f"learners.{kind}", self.learners[kind]) for kind in sorted(self.learners)]
        for name, obj in sections:
            for field in sorted(f.name for f in dataclasses.fields(obj)):
                lines.append(f"{name}.{field} = {_format_value(getattr(obj, field))}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    """Tuples are written comma-separated, as config files read them."""
    return ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def parse_config_file(path: str | Path) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    entries: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        if not is_utf8(raw):
            raise ConfigError(f"{path}:{line_number}: not UTF-8 text")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _parse_value(text: str):
    if text.lower() in ("none", "null"):
        return None
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


def _items(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _replace_field(obj, field_name: str, value, key: str):
    """``obj`` with one field replaced; errors name the config ``key``."""
    if field_name not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigError(f"unknown setting {key}")
    if isinstance(getattr(obj, field_name), tuple) and not isinstance(value, tuple):
        value = (value,)
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
        seed = _parse_value(raw_seed) if raw_seed is not None else 0
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")

    run = RunConfig(
        optimizer=OptimizerConfig(rng_seed=seed + 10),
        learners=_preset_learners(seed, preset),
    )
    split_fracs = dataclasses.asdict(run.split)
    # fewer dots first, so learners.<kind>.<field> beats learners.<field>
    for key in sorted(entries, key=lambda k: (k.count("."), k)):
        value = _parse_value(entries[key])
        if any(isinstance(v, float) and math.isnan(v) for v in _items(value)):
            raise ConfigError(f"invalid value for {key}: NaN")
        section, _, rest = key.partition(".")
        if key in ("window_size", "lag", "levels"):
            run = _replace_field(run, key, value, key)
        elif section == "split" and f"{rest}_frac" in split_fracs:
            split_fracs[f"{rest}_frac"] = value
        elif section in ("cluster", "optimizer"):
            part = _replace_field(getattr(run, section), rest, value, key)
            run = dataclasses.replace(run, **{section: part})
        elif section == "learners":
            kind, _, field = rest.rpartition(".")
            if kind and kind not in KINDS:
                raise ConfigError(f"unknown learner {kind!r} in {key}")
            kinds = [kind] if kind else [k for k, c in run.learners.items() if hasattr(c, field)]
            if not kinds:
                raise ConfigError(f"unknown setting {key}")
            learners = {
                k: _replace_field(run.learners[k], field, value, f"learners.{k}.{field}")
                for k in kinds
            }
            run = dataclasses.replace(run, learners={**run.learners, **learners})
        else:
            raise ConfigError(f"unknown setting {key}")

    try:
        return dataclasses.replace(run, split=SplitSpec(**split_fracs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid split fractions: {exc}") from exc
