"""Command-line front end.

Subcommands wire the library end to end over plain files: ``synth`` makes
a seeded benchmark series, ``granulate`` writes granule and feature CSVs,
``train`` fits and saves the run's learners, ``forecast`` runs the full
pipeline with them (all four, or X alone under ``--model X`` in either),
``evaluate`` scores a forecast CSV, ``cv`` runs the contiguous k-fold
harness, and ``benchmark-opt`` exercises the optimizer on analytic
two-objective problems.

``main`` does the work the commands share: it checks the input files,
resolves the run configuration, creates ``--out``, and afterwards writes
the resolved configuration (``config.txt``) and a ``manifest.txt`` of the
config hash and a checksum per artifact. Outputs are deterministic in
(inputs, config, seed). Exit codes: 0 success, 1 runtime failure, 2 usage
error (a bad option, a missing input file, or an unusable or reused ``--out``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import re
import sys
from pathlib import Path

import numpy as np

from .benchmarks import front_quality, zdt1_front, zdt2_front, zdt3_front, zdt_evaluate
from .config import PRESETS, RunConfig, build_run_config
from .errors import GranucastError
from .evaluation import PointScores, dm_test, interval_scores, mape, point_scores
from .fuzzy_rough import extract_features
from .granulation import granulate_series
from .learners import KINDS, make_supervised, save_model
from .pipeline import extract_and_split, run_cv, run_forecast, train_models
from .sunflower import SunflowerOptimizer
from .synth import SynthConfig, write_csv as write_synth_csv
from .timeseries import interpolate_gaps, is_utf8, load_series

_MODEL_ALIASES = {
    **{kind: kind for kind in KINDS},
    "cnn-gru": "cnn_gru",
    "lstm-xgb": "lstm_xgb",
    "rf": "random_forest",
}

_PROBLEMS = ("zdt1", "zdt2", "zdt3")


def _fmt(value) -> str:
    """Shortest decimal text that parses back to the exact float."""
    return repr(float(value))


def _write_rows(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, config_text: str, artifact_names: list[str]) -> None:
    lines = [f"config_sha256 = {hashlib.sha256(config_text.encode()).hexdigest()}"]
    for name in sorted(artifact_names):
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _finish_run(out_dir: Path, config_text: str, artifact_names: list[str]) -> None:
    (out_dir / "config.txt").write_text(config_text)
    _write_manifest(out_dir, config_text, artifact_names + ["config.txt"])


def _load_clean_series(path: str) -> np.ndarray:
    return interpolate_gaps(load_series(path))


def _write_archive(path: Path, archive, header: list[str]) -> None:
    """One row per archive member: its objectives, then its position."""
    rows = np.hstack([archive.objectives, archive.positions])
    _write_rows(path, header, ([_fmt(v) for v in row] for row in rows))


def _level_label(level: float) -> str:
    return f"{round(level * 100):d}"


def _kinds(args) -> tuple[str, ...]:
    return (_MODEL_ALIASES[args.model],) if args.model else KINDS


# --- subcommands ------------------------------------------------------------


def cmd_synth(args, run: None, out: Path) -> tuple[str, list[str]]:
    config = SynthConfig(
        samples=args.samples,
        seed=args.seed if args.seed is not None else 0,
        gap_fraction=args.gap_fraction,
    )
    gap_count = write_synth_csv(out / "data.csv", config)
    print(f"rows: {config.samples}")
    print(f"gaps: {gap_count}")
    config_text = "command = synth\n" + "".join(
        f"{f.name} = {getattr(config, f.name)!r}\n"
        for f in sorted(dataclasses.fields(config), key=lambda f: f.name)
    )
    return config_text, ["data.csv"]


def cmd_granulate(args, run: RunConfig, out: Path) -> tuple[str, list[str]]:
    granules = granulate_series(_load_clean_series(args.data), run.window_size)
    features, cluster_result = extract_features(granules, run.cluster, record_trace=args.trace)
    nearest = np.argmax(cluster_result.memberships, axis=0)

    _write_rows(
        out / "granules.csv",
        ["window_index", "low", "peak", "up"],
        ([i, *(_fmt(x) for x in row)] for i, row in enumerate(granules)),
    )
    member_cols = [f"membership_{j + 1}" for j in range(run.cluster.cluster_count)]
    _write_rows(
        out / "features.csv",
        ["window_index", *member_cols, "low", "peak", "up", "nearest_cluster"],
        (
            [i, *(_fmt(x) for x in row), int(nearest[i])]
            for i, row in enumerate(features)
        ),
    )
    names = ["granules.csv", "features.csv"]
    if args.trace:
        _write_rows(
            out / "trace.csv",
            ["iteration", "cluster", "low", "peak", "up"],
            (
                [step, j, *(_fmt(x) for x in centers[j])]
                for step, centers in enumerate(cluster_result.center_trace)
                for j in range(len(centers))
            ),
        )
        names.append("trace.csv")
    print(f"windows: {len(granules)}")
    print(f"clustering iterations: {cluster_result.iterations}")
    return run.describe(), names


def cmd_train(args, run: RunConfig, out: Path) -> tuple[str, list[str]]:
    _, _, _, parts, _ = extract_and_split(_load_clean_series(args.data), run)
    models = train_models(make_supervised(parts[0], run.lag), run, _kinds(args))
    names = []
    for kind, model in models.items():
        name = f"model_{kind}.npz"
        save_model(model, out / name)
        names.append(name)
        print(f"trained {kind}: {name}")
    return run.describe(), names


def cmd_forecast(args, run: RunConfig, out: Path) -> tuple[str, list[str]]:
    result = run_forecast(_load_clean_series(args.data), run, _kinds(args))

    levels = list(result.intervals)
    header = ["index", "actual", "point"]
    for level in levels:
        label = _level_label(level)
        header += [f"lo{label}", f"hi{label}"]
    rows = []
    for i in range(len(result.point)):
        row = [
            int(result.test_record_indices[i]),
            _fmt(result.test_panel.actuals[i]),
            _fmt(result.point[i]),
        ]
        for level in levels:
            lo, up = result.intervals[level]
            row += [_fmt(lo[i]), _fmt(up[i])]
        rows.append(row)
    _write_rows(out / "forecast.csv", header, rows)
    names = ["forecast.csv"]
    print(f"forecast rows: {len(rows)}")

    kinds = list(result.forecaster.models)
    fit = result.forecaster.weight_fit
    if fit is not None:
        lines = [f"chosen {kind} = {_fmt(w)}" for kind, w in zip(kinds, fit.chosen)]
        lines.append(f"validation mape = {_fmt(fit.chosen_objectives[0])}")
        lines.append(f"validation mse = {_fmt(fit.chosen_objectives[1])}")
        lines.append(f"excluded from mape = {fit.excluded_from_mape}")
        lines.append(f"archive size = {len(fit.archive)}")
        (out / "weights.txt").write_text("\n".join(lines) + "\n")
        _write_archive(
            out / "archive.csv", fit.archive, ["mape", "mse", *(f"weight_{k}" for k in kinds)]
        )
        names += ["weights.txt", "archive.csv"]
        print(
            "validation objectives: mape="
            f"{_fmt(fit.chosen_objectives[0])} mse={_fmt(fit.chosen_objectives[1])}"
        )
    else:
        print(f"single learner: {kinds[0]}")
    print(f"test mape = {_fmt(mape(result.test_panel.actuals, result.point))}")
    return run.describe(), names


def _parse_forecast_csv(path: str):
    """Indices, actuals, points and bounds; a fault names the first faulty file row."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        rows = [(line, row) for line, row in enumerate(csv.reader(handle), start=1) if row]
    if not rows:
        raise GranucastError(f"{path}: file is empty")
    (first, header), rows = rows[0], rows[1:]
    if not is_utf8("".join(header)):
        raise GranucastError(f"{path}: row {first}: not UTF-8 text")
    if header[:3] != ["index", "actual", "point"]:
        raise GranucastError(f"{path}: expected forecast columns index,actual,point,...")
    levels, index, data = [], [], []
    for j in range(3, len(header), 2):
        match = re.fullmatch(r"lo(\d+)", header[j])
        if not match or header[j + 1 : j + 2] != [f"hi{match.group(1)}"]:
            raise GranucastError(f"{path}: malformed interval columns at {header[j]!r}")
        if not 1 <= int(match.group(1)) <= 99:
            raise GranucastError(f"{path}: interval column {header[j]!r} lies outside 1-99%")
        level = int(match.group(1)) / 100.0
        if level in levels:
            raise GranucastError(f"{path}: repeated interval column {header[j]!r}")
        levels.append(level)
    for line, row in rows:
        if not is_utf8("".join(row)):
            raise GranucastError(f"{path}: row {line}: not UTF-8 text")
        if len(row) != len(header):
            raise GranucastError(
                f"{path}: row {line} has {len(row)} fields, expected {len(header)}"
            )
        if not re.fullmatch(r"[0-9]+", row[0]):
            raise GranucastError(f"{path}: row {line}: index {row[0]!r} is not an integer >= 0")
        try:
            index.append(int(row[0]))
            data.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise GranucastError(f"{path}: row {line}: unparseable number: {exc}") from None
        if not np.isfinite(data[-1]).all():
            raise GranucastError(f"{path}: row {line}: NaN or infinite value")
    if not data:
        raise GranucastError(f"{path}: no forecast rows")
    data = np.array(data)
    actual, point = data[:, 0], data[:, 1]
    bounds = {
        level: (data[:, 2 + 2 * k], data[:, 3 + 2 * k]) for k, level in enumerate(levels)
    }
    return np.array(index), actual, point, bounds


def cmd_evaluate(args, run: None, out: Path) -> tuple[str, list[str]]:
    index, actual, point, bounds = _parse_forecast_csv(args.forecast)
    scores = point_scores(actual, point)
    pairs = list(zip(PointScores.COLUMNS, scores.as_row()))
    for level in bounds:
        lo, up = bounds[level]
        iv = interval_scores(actual, lo, up, level)
        label = _level_label(level)
        pairs += [
            (f"PICP_{label}", iv.picp),
            (f"PINAW_{label}", iv.pinaw),
            (f"AIS_{label}", iv.ais),
        ]
    if args.baseline is not None:
        base_index, base_actual, base_point, _ = _parse_forecast_csv(args.baseline)
        if len(base_actual) != len(actual):
            raise GranucastError("baseline forecast has a different number of rows")
        differs = (base_index != index) | (base_actual != actual)
        if differs.any():
            k = int(np.argmax(differs))
            raise GranucastError(
                f"baseline forecast data row {k + 1} (index {base_index[k]}, actual "
                f"{_fmt(base_actual[k])}) differs from the forecast's (index {index[k]}, "
                f"actual {_fmt(actual[k])})"
            )
        dm = dm_test(actual - point, base_actual - base_point)
        pairs += [("DM_STAT", dm.statistic), ("DM_REJECT", float(dm.reject))]
    _write_rows(out / "metrics.csv", ["metric", "value"], ((k, _fmt(v)) for k, v in pairs))
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")
    return "command = evaluate\n", ["metrics.csv"]


def cmd_cv(args, run: RunConfig, out: Path) -> tuple[str, list[str]]:
    folds = run_cv(_load_clean_series(args.data), run, k=args.folds)
    rows = [[fold.fold, *(_fmt(v) for v in fold.scores.as_row())] for fold in folds]
    means = np.mean([fold.scores.as_row() for fold in folds], axis=0)
    rows.append(["mean", *(_fmt(v) for v in means)])
    _write_rows(out / "cv_scores.csv", ["fold", *PointScores.COLUMNS], rows)
    for name, value in zip(PointScores.COLUMNS, means):
        print(f"mean {name} = {_fmt(value)}")
    return run.describe(), ["cv_scores.csv"]


def cmd_benchmark_opt(args, run: RunConfig, out: Path) -> tuple[str, list[str]]:
    which = int(args.problem[-1])
    archive = SunflowerOptimizer(
        lambda v: zdt_evaluate(which, v), args.dim, 0.0, 1.0, run.optimizer
    ).run()

    if not archive.is_sound():
        raise GranucastError("archive soundness check failed")
    reference = {1: zdt1_front, 2: zdt2_front, 3: zdt3_front}[which](500)
    igd, spacing = front_quality(archive.objectives, reference)
    _write_archive(
        out / "front.csv",
        archive,
        ["objective_1", "objective_2", *(f"x_{d + 1}" for d in range(args.dim))],
    )
    print(f"archive size: {len(archive)}")
    print(f"igd = {_fmt(igd)}")
    print(f"spacing = {_fmt(spacing)}")
    # comments, so that config.txt stays a valid --config
    return run.describe() + f"# problem = {args.problem}\n# dim = {args.dim}\n", ["front.csv"]


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", default="run", help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, metavar="N", help="base random seed")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--config", metavar="PATH", help="flat key=value settings file")
    common.add_argument("--preset", choices=PRESETS, help="parameter scale")

    parser = argparse.ArgumentParser(
        prog="granucast",
        description="Granular wind-speed forecasting with an optimized ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic series")
    p.add_argument("--samples", type=int, default=7200)
    p.add_argument("--gap-fraction", type=float, default=0.01)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("granulate", parents=[common], help="write granule and feature CSVs")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--trace", action="store_true", help="dump per-iteration centers")
    p.set_defaults(func=cmd_granulate)

    p = sub.add_parser("train", parents=[common], help="fit and save the learners")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--model", choices=sorted(_MODEL_ALIASES), help="train this learner only")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", parents=[common], help="full pipeline forecast")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument(
        "--model", choices=sorted(_MODEL_ALIASES), help="forecast with this learner alone"
    )
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", parents=[out], help="score a forecast CSV")
    p.add_argument("--forecast", required=True, metavar="PATH")
    p.add_argument("--baseline", metavar="PATH", help="second forecast CSV for a DM test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", parents=[common], help="contiguous k-fold evaluation")
    p.add_argument("--data", required=True, metavar="PATH")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("benchmark-opt", parents=[common], help="optimizer benchmark")
    p.add_argument("--problem", required=True, choices=_PROBLEMS)
    p.add_argument("--dim", type=int, default=4)
    p.set_defaults(func=cmd_benchmark_opt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error(f"--seed must be at least 0, got {args.seed}")
    if args.command == "cv" and args.folds < 2:
        parser.error(f"--folds must be at least 2, got {args.folds}")
    if args.command == "synth" and args.samples < 2:
        parser.error(f"--samples must be at least 2, got {args.samples}")
    if args.command == "synth" and not 0.0 <= args.gap_fraction < 0.5:
        parser.error(f"--gap-fraction must lie in [0, 0.5), got {args.gap_fraction}")
    if args.command == "benchmark-opt" and args.dim < 2:
        parser.error(f"--dim must be at least 2, got {args.dim}")
    for path in filter(None, map(vars(args).get, ("data", "config", "forecast", "baseline"))):
        if not Path(path).is_file():
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2
    out = Path(args.out)
    if (out / "manifest.txt").exists():
        print(f"error: output directory {out} already holds a run (manifest.txt)", file=sys.stderr)
        return 2
    try:
        run = None
        if "preset" in vars(args):
            run = build_run_config(preset=args.preset, seed=args.seed, config_path=args.config)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory {out}: {exc.strerror}", file=sys.stderr)
            return 2
        config_text, artifact_names = args.func(args, run, out)
        _finish_run(out, config_text, artifact_names)
    except GranucastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
