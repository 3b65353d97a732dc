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
from .pipeline import PipelineConfig, default_learner_configs
from .sunflower import OptimizerConfig
from .timeseries import SplitSpec

PRESETS = ("full", "desk")


class ConfigError(GranucastError):
    pass


@dataclass(frozen=True)
class RunConfig:
    preset: str
    seed: int
    window_size: int
    lag: int
    split: SplitSpec
    levels: tuple[float, ...]
    cluster: ClusterConfig
    optimizer: OptimizerConfig
    learners: dict[str, LearnerConfig]

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(
            window_size=self.window_size,
            lag=self.lag,
            split=self.split,
            cluster=self.cluster,
            learners=self.learners,
            optimizer=self.optimizer,
            levels=self.levels,
        )

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


def _replace_field(obj, field_name: str, value, context: str):
    if field_name not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigError(f"unknown setting {context}.{field_name}")
    try:
        return dataclasses.replace(obj, **{field_name: value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {context}.{field_name}: {exc}") from exc


def _checked(key: str, value, ok: bool, expected: str):
    """``value`` when ``ok``; otherwise a ConfigError naming the key."""
    if not ok:
        raise ConfigError(f"invalid value for {key}: expected {expected}, got {value!r}")
    return value


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

    window_size = 36
    lag = 4
    levels = DEFAULT_LEVELS
    split_fracs = {"train": 0.6, "val": 0.2, "test": 0.2}
    cluster = ClusterConfig()
    optimizer = OptimizerConfig(rng_seed=seed + 10)
    learners = default_learner_configs(seed, scale=preset)

    for key in sorted(entries):
        value = _parse_value(entries[key])
        if key == "window_size":
            window_size = _checked(key, value, type(value) is int and value >= 2, "an integer >= 2")
        elif key == "lag":
            lag = _checked(key, value, type(value) is int and value >= 1, "an integer >= 1")
        elif key == "levels":
            levels = value if isinstance(value, tuple) else (value,)
            in_range = all(isinstance(v, float) and 0.0 < v < 1.0 for v in levels)
            _checked(key, entries[key], in_range, "levels in (0, 1)")
            # forecast.csv names interval columns by whole percent
            percents = [round(v * 100) for v in levels]
            whole = all(p / 100 == v for p, v in zip(percents, levels))
            distinct = len(set(percents)) == len(percents)
            _checked(key, entries[key], whole and distinct, "distinct whole percentages")
        elif key.startswith("split."):
            part = key.split(".", 1)[1]
            if part not in split_fracs:
                raise ConfigError(f"unknown setting {key}")
            split_fracs[part] = value
        elif key.startswith("cluster."):
            cluster = _replace_field(cluster, key.split(".", 1)[1], value, "cluster")
        elif key.startswith("optimizer."):
            optimizer = _replace_field(optimizer, key.split(".", 1)[1], value, "optimizer")
        elif key.startswith("learners."):
            rest = key.split(".", 1)[1]
            if "." in rest:
                kind, field_name = rest.split(".", 1)
                if kind not in KINDS:
                    raise ConfigError(f"unknown learner {kind!r} in {key}")
                learners[kind] = _replace_field(learners[kind], field_name, value, key)
            else:
                learners = {
                    kind: _replace_field(cfg, rest, value, f"learners.{kind}")
                    for kind, cfg in learners.items()
                }
        else:
            raise ConfigError(f"unknown setting {key}")

    try:
        split = SplitSpec(
            train_frac=split_fracs["train"],
            val_frac=split_fracs["val"],
            test_frac=split_fracs["test"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid split fractions: {exc}") from exc
    return RunConfig(
        preset=preset,
        seed=seed,
        window_size=window_size,
        lag=lag,
        split=split,
        levels=levels,
        cluster=cluster,
        optimizer=optimizer,
        learners=learners,
    )
