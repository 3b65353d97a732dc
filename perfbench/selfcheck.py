"""Short self-check of the benchmark runner (under a minute on two cores).

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced on a tiny synthetic
series with cheap learner and optimizer settings, and checks that each
result carries every metric BENCHMARK.json names, with its unit and a
finite value. Then it corrupts a real forecast.csv, weights.txt and
features.csv in several ways and checks that the output checks fire on each.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import check_forecast, check_granulate, read_config, split_sizes

SEED = 5
SAMPLES = 5400  # 150 windows: enough validation residuals for the intervals
CHEAP_CONFIG = """\
learners.epochs = 3
learners.batch_size = 32
learners.boosting_rounds = 10
learners.tree_count = 10
optimizer.population = 16
optimizer.iterations = 10
"""


def tiny(workload: run.Workload, config: Path) -> run.Workload:
    return dataclasses.replace(workload, samples=SAMPLES, config_path=config)


def check_result(name: str, result: dict, metrics: list[dict]) -> list[str]:
    failures = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{name}: run not correct: {result}")
    got = result["metrics"]
    if list(got) != [m["name"] for m in metrics]:
        failures.append(f"{name}: metric names {sorted(got)} differ from BENCHMARK.json")
    for metric in metrics:
        entry = got.get(metric["name"], {})
        if set(entry) != {"value", "unit"} or entry["unit"] != metric["unit"]:
            failures.append(f"{name}: {metric['name']} lacks its value or unit {metric['unit']}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            failures.append(f"{name}: {metric['name']} = {entry['value']!r} is not a finite number")
    return failures


def rewrite_cell(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def corruption_failures(work: Path, config: Path) -> list[str]:
    """Each corruption of real outputs must make the checks report a problem."""
    data = work / "data.csv"
    forecast_out = work / "forecast"
    granulate_out = work / "granulate"
    base = [sys.executable, "-m", "granucast"]
    commands = [
        [*base, "synth", "--samples", str(SAMPLES), "--seed", str(SEED), "--out", str(work)],
        [*base, "forecast", "--preset", "desk", "--seed", str(SEED), "--config", str(config),
         "--data", str(data), "--out", str(forecast_out)],
        [*base, "granulate", "--seed", str(SEED), "--data", str(data), "--out", str(granulate_out)],
    ]
    for argv in commands:
        subprocess.run(argv, env=run.child_env(), check=True, capture_output=True, timeout=120)

    rows = split_sizes(SAMPLES, read_config(forecast_out))["test_rows"]
    problems, _ = check_forecast(forecast_out, rows)
    if problems:
        return [f"clean forecast outputs fail the checks: {problems}"]
    if not check_forecast(forecast_out, rows + 1)[0]:
        return ["a row count other than one per test target passed the checks"]

    failures = []
    corruptions = {
        "non-finite point forecast": ("forecast.csv", 1, 2, "nan"),
        "lower 85% bound above upper": ("forecast.csv", 2, 5, "1e9"),
        "85% band outside the 95% band": ("forecast.csv", 3, 6, "1e9"),
    }
    for label, (name, row, column, value) in corruptions.items():
        copy = work / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(forecast_out, copy)
        rewrite_cell(copy / name, row, column, value)
        if not check_forecast(copy, rows)[0]:
            failures.append(f"forecast check missed: {label}")

    copy = work / "corrupt"
    shutil.rmtree(copy)
    shutil.copytree(forecast_out, copy)
    weights = copy / "weights.txt"
    lines = [
        "chosen bilstm = 3.5" if line.startswith("chosen bilstm") else line
        for line in weights.read_text().splitlines()
    ]
    weights.write_text("\n".join(lines) + "\n")
    if not check_forecast(copy, rows)[0]:
        failures.append("forecast check missed: weight outside [-2, 2]")

    if check_granulate(granulate_out, SAMPLES):
        failures.append("clean granulate outputs fail the checks")
    rewrite_cell(granulate_out / "features.csv", 1, 1, "0.5")
    if not check_granulate(granulate_out, SAMPLES):
        failures.append("granulate check missed: memberships not summing to 1")
    return failures


def main() -> int:
    spec = run.load_spec()
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "cheap.conf"
    config.write_text(CHEAP_CONFIG)
    failures = []
    try:
        for name, workload in run.WORKLOADS.items():
            for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                run_dir = work / f"{name}-{int(traced)}"
                run_dir.mkdir()
                report = run.run(tiny(workload, config), SEED, 0.0, traced, run_dir)
                failures += check_result(f"{name} trace={int(traced)}", report["result"], metrics)
                print(f"{name} trace={int(traced)}: {len(report['result']['metrics'])} metrics")
        failures += corruption_failures(work, config)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
