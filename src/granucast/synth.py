"""Seeded synthetic wind-speed series for demos and end-to-end tests.

The real measurement campaign behind this project is not redistributable,
so the repository ships a generator instead: a daily sinusoid plus a
shorter secondary cycle, an AR(1) noise component, a positivity floor and
a configurable fraction of injected gaps. At a 10-minute cadence the daily
cycle spans 144 samples = 4 windows of 36, so granule-level structure
stays learnable from a 4-granule history.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import require_int


@dataclass(frozen=True)
class SynthConfig:
    samples: int = 7200
    seed: int = 0
    gap_fraction: float = 0.01
    start_epoch: int = 1672531200  # 2023-01-01T00:00:00Z
    cadence_seconds: int = 600
    base_level: float = 8.0
    daily_amplitude: float = 3.0
    secondary_amplitude: float = 1.0
    secondary_period: int = 72
    noise_scale: float = 0.3
    ar_coefficient: float = 0.8
    floor: float = 0.1

    def __post_init__(self):
        require_int("samples", self.samples, 2)
        require_int("seed", self.seed, 0)
        if not 0.0 <= self.gap_fraction < 0.5:
            raise ValueError(f"gap_fraction must lie in [0, 0.5), got {self.gap_fraction}")


def generate_values(config: SynthConfig = SynthConfig()) -> np.ndarray:
    """Gap-free synthetic wind speeds, strictly positive."""
    rng = np.random.default_rng(config.seed)
    t = np.arange(config.samples, dtype=np.float64)
    daily = config.daily_amplitude * np.sin(2.0 * np.pi * t / 144.0)
    secondary = config.secondary_amplitude * np.sin(
        2.0 * np.pi * t / config.secondary_period + 1.0
    )
    noise = np.empty(config.samples)
    state = 0.0
    for i, shock in enumerate(rng.normal(0.0, config.noise_scale, size=config.samples)):
        state = config.ar_coefficient * state + shock
        noise[i] = state
    return np.maximum(config.floor, config.base_level + daily + secondary + noise)


def gap_indices(config: SynthConfig) -> np.ndarray:
    """Interior sample indices to blank out, drawn without replacement."""
    count = round(config.gap_fraction * (config.samples - 2))
    if count == 0:
        return np.array([], dtype=np.int64)
    rng = np.random.default_rng(config.seed + 1)
    return np.sort(rng.choice(np.arange(1, config.samples - 1), size=count, replace=False))


def write_csv(path: str | Path, config: SynthConfig = SynthConfig()) -> int:
    """Write a ``timestamp,wind_speed`` CSV with injected gaps; returns the
    number of gap rows."""
    values = generate_values(config)
    gaps = set(int(i) for i in gap_indices(config))
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "wind_speed"])
        for i, value in enumerate(values):
            epoch = config.start_epoch + i * config.cadence_seconds
            stamp = datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()
            writer.writerow([stamp, "" if i in gaps else repr(float(value))])
    return len(gaps)
