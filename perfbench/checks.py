"""Output checks and accuracy figures for the benchmark's CLI runs.

The checks read the files a ``granucast`` command wrote and return a list
of problems (empty when the outputs are correct). They recompute what they
check from the files themselves; only the model reload goes through the
library, because reloading is the behaviour under check.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

WEIGHT_LIMIT = 2.0
MEMBERSHIP_TOLERANCE = 1e-9


def read_config(out_dir: Path) -> dict[str, str]:
    """The flat ``key = value`` config.txt a command wrote."""
    entries = {}
    for line in (out_dir / "config.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def split_sizes(samples: int, config: dict[str, str]) -> dict[str, int]:
    """Window and supervised-row counts implied by the resolved config.

    Mirrors the documented cumulative-floor rule of the chronological split:
    train ends at floor(train * n), validation at floor((train + val) * n),
    and each split loses its first ``lag`` records to history.
    """
    windows = samples // int(config["window_size"])
    lag = int(config["lag"])
    train, val = float(config["split.train"]), float(config["split.val"])
    train_end = math.floor(train * windows)
    val_end = math.floor((train + val) * windows)
    return {
        "windows": windows,
        "train_rows": train_end - lag,
        "test_rows": windows - val_end - lag,
    }


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        return header, list(reader)


def _float_matrix(rows: list[list[str]], name: str, problems: list[str]) -> np.ndarray | None:
    try:
        data = np.array([[float(cell) for cell in row] for row in rows], dtype=np.float64)
    except ValueError as exc:
        problems.append(f"{name}: unparseable value ({exc})")
        return None
    if data.ndim != 2 or len(data) == 0:
        problems.append(f"{name}: no rows")
        return None
    if not np.isfinite(data).all():
        problems.append(f"{name}: non-finite values")
        return None
    return data


def check_forecast(out_dir: Path, expected_rows: int) -> tuple[list[str], dict[str, float]]:
    """Check forecast.csv and weights.txt; returns (problems, accuracy).

    accuracy holds test_mape (%), test_ais_95, test_picp_95_gap and the
    chosen combination's validation MSE.
    """
    problems: list[str] = []
    header, rows = _read_table(out_dir / "forecast.csv")
    expected_header = ["index", "actual", "point", "lo95", "hi95", "lo85", "hi85"]
    if header != expected_header:
        return [f"forecast.csv: header {header} is not {expected_header}"], {}
    if len(rows) != expected_rows:
        problems.append(f"forecast.csv: {len(rows)} rows, expected one per test target ({expected_rows})")
    if any(len(row) != len(header) for row in rows):
        return problems + ["forecast.csv: ragged rows"], {}
    data = _float_matrix(rows, "forecast.csv", problems)
    if data is None:
        return problems, {}
    actual, point, lo95, hi95, lo85, hi85 = data[:, 1:].T
    if np.any(lo95 > hi95) or np.any(lo85 > hi85):
        problems.append("forecast.csv: a lower bound lies above its upper bound")
    if np.any(lo95 > lo85) or np.any(hi85 > hi95):
        problems.append("forecast.csv: the 85% band leaves the 95% band")
    if np.any(actual <= 0.0):
        problems.append("forecast.csv: non-positive actual, MAPE undefined")
        return problems, {}

    weights, val_mse = [], None
    for line in (out_dir / "weights.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.startswith("chosen "):
            weights.append(float(value))
        elif key.strip() == "validation mse":
            val_mse = float(value)
    if len(weights) != 4 or not all(abs(w) <= WEIGHT_LIMIT for w in weights):
        problems.append(f"weights.txt: chosen weights {weights} not four values in [-2, 2]")
    if val_mse is None or not math.isfinite(val_mse):
        problems.append("weights.txt: no finite validation mse")

    value_range = float(actual.max() - actual.min())
    alpha = 0.05
    penalty = (2.0 / alpha) * (np.maximum(lo95 - actual, 0.0) + np.maximum(actual - hi95, 0.0))
    picp = float(((lo95 <= actual) & (actual <= hi95)).mean())
    accuracy = {
        "test_mape": float(100.0 * np.mean(np.abs(actual - point) / actual)),
        "test_ais_95": float(((hi95 - lo95) + penalty).sum() / (len(actual) * value_range)),
        "test_picp_95_gap": abs(picp - 0.95),
        "val_mse": val_mse if val_mse is not None and math.isfinite(val_mse) else 0.0,
    }
    return problems, accuracy


def check_model(path: Path, inputs: np.ndarray) -> tuple[list[str], np.ndarray | None]:
    """Reload a saved model and predict; returns (problems, predictions)."""
    from granucast.learners import load_model

    try:
        predictions = np.asarray(load_model(path).predict(inputs), dtype=np.float64)
    except Exception as exc:  # any reload failure is a failed operation
        return [f"{path.name}: reload failed ({type(exc).__name__}: {exc})"], None
    if predictions.shape != (len(inputs),) or not np.isfinite(predictions).all():
        return [f"{path.name}: reloaded model predicts non-finite or misshapen output"], None
    return [], predictions


def check_granulate(out_dir: Path, samples: int) -> list[str]:
    """granules.csv and features.csv hold floor(n / window) rows, and each
    feature row's memberships sum to 1."""
    problems: list[str] = []
    windows = split_sizes(samples, read_config(out_dir))["windows"]
    _, granule_rows = _read_table(out_dir / "granules.csv")
    if len(granule_rows) != windows:
        problems.append(f"granules.csv: {len(granule_rows)} rows, expected {windows}")
    header, rows = _read_table(out_dir / "features.csv")
    if len(rows) != windows:
        problems.append(f"features.csv: {len(rows)} rows, expected {windows}")
    columns = [j for j, name in enumerate(header) if name.startswith("membership_")]
    if not columns:
        return problems + ["features.csv: no membership columns"]
    data = _float_matrix([[row[j] for j in columns] for row in rows], "features.csv", problems)
    if data is not None and np.abs(data.sum(axis=1) - 1.0).max() > MEMBERSHIP_TOLERANCE:
        problems.append("features.csv: memberships of a window do not sum to 1")
    return problems
