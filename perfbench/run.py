"""granucast benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each workload is a closed loop with
one client: one ``granucast`` CLI operation at a time, each command in a
fresh ``python3 -m granucast`` process with ``src`` on ``PYTHONPATH``, and
nothing else running. Set-up makes the input CSV with ``granucast synth``
from ``--seed`` (so the program only ever sees generated files) and times a
fresh interpreter importing ``granucast.cli`` and resolving the run config.
Then operations repeat while the next one is expected to end within
``--seconds``.

The end-to-end timings are reported at a fixed reference host speed. A
shared host's speed drifts: the same operation can take 1.5x as long for
minutes at a stretch, far more than any run length averages out. So before
and after every timed process the runner times a fixed probe of its own
(``perfbench/probe.py``: a fresh interpreter doing a set amount of the
program's kinds of work, so it slows down with the host much as the program
does) and scales each time by ``PROBE_REF_S`` / (mean of its adjacent
probes). A program change leaves the probe alone, so it
moves the scaled times as it moves the raw ones. The raw times and the
probe times are in the report lines.

With ``--trace 0`` the runner reports the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` it runs one untraced operation and then
traced ones (``perfbench/tracer.py`` wraps each module's public functions
from outside) and reports the per-layer metrics. Every operation's outputs
are checked; a failed check counts the operation as failed. The last line
of standard output is the JSON result; the lines before it are a report
with the input facts, sample counts and the machine's state.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402

SETUP_REPEATS = 5
# The speed probe runs Workload.probes times before and after each operation
# (once around each set-up repeat). Scaled times are in seconds of a host on
# which the probe takes PROBE_REF_S (about its median on a 2-vCPU x86-64
# cloud VM).
PROBE_REF_S = 0.3
# every process is killed once a run has lasted this long
RUN_DEADLINE_S = 170.0
# no further operation starts once this much of a run has passed
RUN_BUDGET_S = 150.0
THREADS = "1"
DEFAULT_SEED = 5


@dataclass(frozen=True)
class Workload:
    """Input size and the CLI commands that make up one operation."""

    samples: int
    commands: tuple[tuple[str, ...], ...]
    config_path: Path | None = None
    # speed probes before and after each operation: more for long operations,
    # whose host speed is otherwise estimated from too few probes
    probes: int = 2

    @property
    def kind(self) -> str:
        return self.commands[0][0]


# Why each workload exists is recorded in BENCHMARK.json; in short: the
# everyday desk forecast spreads its time over trees, small nets and the
# weight search; a year-long series makes tree building dominate while the
# weight search stays fixed; paper-size networks isolate the LSTM/GRU
# kernels; a decade of samples is the only input on which loading,
# granulation and clustering do measurable work.
WORKLOADS = {
    "forecast-desk": Workload(samples=7200, commands=(("forecast", "--preset", "desk"),)),
    "forecast-year": Workload(
        samples=52560, commands=(("forecast", "--preset", "desk"),), probes=4
    ),
    "train-full": Workload(
        samples=7200,
        commands=(
            ("train", "--preset", "full", "--model", "bilstm"),
            ("train", "--preset", "full", "--model", "cnn_gru"),
        ),
        probes=4,
    ),
    "ingest-decade": Workload(samples=525600, commands=(("granulate",),)),
}


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    steal_ticks: int


@dataclass
class Op:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    steal_ticks: int = 0
    problems: list[str] = field(default_factory=list)
    manifests: list[bytes] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None


def read_steal_ticks() -> int:
    """Cumulative CPU steal ticks of the machine, from /proc/stat (read only)."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = THREADS
    return env


def spawn(argv: list[str], log_path: Path, timeout: float) -> Proc:
    """Run one process to completion; wall from launch to reaped exit."""
    steal_before = read_steal_ticks()
    start = time.perf_counter()
    with log_path.open("wb") as log:
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    steal_after = read_steal_ticks()
    return Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        steal_ticks=steal_after - steal_before,
    )


def cli_args(workload: Workload, command: tuple[str, ...], seed: int, data: Path, out: Path):
    args = [*command, "--seed", str(seed), "--data", str(data), "--out", str(out)]
    if workload.config_path is not None:
        args += ["--config", str(workload.config_path)]
    return args


SETUP_CODE = (
    "import sys, granucast.cli as cli\n"
    "from granucast.config import build_run_config\n"
    "a = cli.build_parser().parse_args(sys.argv[1:])\n"
    "build_run_config(preset=a.preset, seed=a.seed, config_path=a.config)\n"
)


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.workload = workload
        self.seed = seed
        self.work = work
        self.data = work / "input" / "data.csv"
        self.facts: dict[str, int] = {}
        self.reference_manifests: list[bytes] | None = None
        self.eval_sets = None

    def spawn(self, argv: list[str], log_path: Path) -> Proc:
        return spawn(argv, log_path, timeout=max(1.0, self.deadline - time.perf_counter()))

    # --- set-up -----------------------------------------------------------

    def make_input(self) -> None:
        self.data.parent.mkdir(parents=True)
        log = self.work / "synth.log"
        proc = self.spawn(
            [
                sys.executable, "-m", "granucast", "synth",
                "--samples", str(self.workload.samples),
                "--seed", str(self.seed),
                "--out", str(self.data.parent),
            ],
            log,
        )
        if proc.code != 0 or not self.data.is_file():
            raise RuntimeError(f"granucast synth failed:\n{log.read_text()}")
        for line in log.read_text().splitlines():
            key, _, value = line.partition(":")
            if key in ("rows", "gaps"):
                self.facts["samples" if key == "rows" else "gaps"] = int(value)

    def probe_gap(self, count: int) -> list[Proc]:
        """Time the speed probe ``count`` times."""
        probes = []
        for _ in range(count):
            log = self.work / "probe.log"
            proc = self.spawn([sys.executable, str(BENCH_DIR / "probe.py")], log)
            if proc.code != 0:
                raise RuntimeError(f"speed probe failed:\n{log.read_text()}")
            probes.append(proc)
        return probes

    def measure_setup(self) -> tuple[list[Proc], list[list[Proc]]]:
        """Fresh interpreters importing the CLI and resolving the workload's
        run config, with the probe gaps before and after each."""
        runs, gaps = [], [self.probe_gap(1)]
        command = self.workload.commands[0]
        out = self.work / "setup"
        for _ in range(SETUP_REPEATS):
            log = self.work / "setup.log"
            proc = self.spawn(
                [sys.executable, "-c", SETUP_CODE,
                 *cli_args(self.workload, command, self.seed, self.data, out)],
                log,
            )
            if proc.code != 0:
                raise RuntimeError(f"set-up probe failed:\n{log.read_text()}")
            runs.append(proc)
            gaps.append(self.probe_gap(1))
        return runs, gaps

    # --- one operation ----------------------------------------------------

    def run_op(self, index: int, traced: bool) -> Op:
        op = Op()
        tag = f"op{index}{'t' if traced else ''}"
        summaries = []
        for k, command in enumerate(self.workload.commands):
            out = self.work / f"{tag}-{k}"
            args = cli_args(self.workload, command, self.seed, self.data, out)
            if traced:
                summary_path = self.work / f"{tag}-{k}.trace.json"
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(summary_path), "--", *args]
            else:
                argv = [sys.executable, "-m", "granucast", *args]
            proc = self.spawn(argv, self.work / f"{tag}-{k}.log")
            op.wall_s += proc.wall_s
            op.cpu_s += proc.cpu_s
            op.rss_mb = max(op.rss_mb, proc.rss_mb)
            op.steal_ticks += proc.steal_ticks
            if proc.code != 0:
                op.problems.append(f"{command[0]} exited with status {proc.code}")
                continue
            try:
                op.problems += self.check_outputs(command, out, op)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                op.problems.append(f"{command[0]} outputs unreadable: {type(exc).__name__}: {exc}")
            manifest = out / "manifest.txt"
            op.manifests.append(manifest.read_bytes() if manifest.is_file() else b"")
            if traced:
                summaries.append(json.loads(summary_path.read_text()))
            shutil.rmtree(out)
        if not op.problems:
            if self.reference_manifests is None:
                self.reference_manifests = op.manifests
            elif op.manifests != self.reference_manifests:
                op.problems.append("manifest.txt differs from the first operation of this run")
        if traced and summaries:
            op.trace = merge_summaries(summaries)
        return op

    def check_outputs(self, command, out: Path, op: Op) -> list[str]:
        config = checks.read_config(out)
        sizes = checks.split_sizes(self.workload.samples, config)
        self.facts["windows"] = sizes["windows"]
        kind = command[0]
        if kind != "granulate":
            self.facts["train_rows"] = sizes["train_rows"]
        if kind == "forecast":
            problems, op.accuracy = checks.check_forecast(out, sizes["test_rows"])
            return problems
        if kind == "granulate":
            return checks.check_granulate(out, self.workload.samples)
        if kind == "train":
            model = command[command.index("--model") + 1]
            val, test = self.evaluation_sets()
            problems, predictions = checks.check_model(
                out / f"model_{model}.npz", numpy.vstack([val.inputs, test.inputs])
            )
            if predictions is not None:
                val_pred, test_pred = predictions[: len(val)], predictions[len(val) :]
                op.accuracy[f"{model}.val_mse"] = float(((val_pred - val.targets) ** 2).mean())
                op.accuracy[f"{model}.test_mape"] = float(
                    100.0 * (abs(test_pred - test.targets) / test.targets).mean()
                )
            return problems
        return [f"no output check for command {kind!r}"]

    def evaluation_sets(self):
        """Validation and test supervised sets of the input, built by the
        library the way ``granucast train`` builds its training set."""
        if self.eval_sets is None:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            from granucast.config import build_run_config
            from granucast.learners import make_supervised
            from granucast.pipeline import extract_and_split
            from granucast.timeseries import interpolate_gaps, load_series

            command = self.workload.commands[0]
            preset = command[command.index("--preset") + 1]
            run = build_run_config(preset, self.seed, self.workload.config_path)
            series = interpolate_gaps(load_series(self.data))
            _, _, _, parts, _ = extract_and_split(series, run.pipeline())
            self.eval_sets = (make_supervised(parts[1], run.lag), make_supervised(parts[2], run.lag))
        return self.eval_sets


def merge_summaries(summaries: list[dict]) -> dict:
    """Add up the traces of one operation's commands."""
    merged: dict = {"self_s": {}, "calls": {}, "counters": {}}
    for summary in summaries:
        for part in ("self_s", "calls"):
            for key, value in summary[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        for key, value in summary["counters"].items():
            previous = merged["counters"].get(key)
            if previous is None:
                merged["counters"][key] = value
            elif key == "fuzzy_rough.converged":
                merged["counters"][key] = min(previous, value)
            elif key == "learners.train_rows":
                merged["counters"][key] = max(previous, value)
            else:
                merged["counters"][key] = previous + value
    return merged


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def at_reference_speed(values: list[float], gaps: list[list[Proc]], attr: str) -> list[float]:
    """Scale each value by PROBE_REF_S / (mean ``attr`` of the probes in the
    gaps just before and just after it); ``gaps[i]`` precedes value i. The
    mean, not the median: probe times cluster around a fast and a slow
    value, and the share of slow ones is what tracks the host."""
    return [
        value * PROBE_REF_S / statistics.fmean(getattr(p, attr) for p in gaps[i] + gaps[i + 1])
        for i, value in enumerate(values)
    ]


def timing(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples above it (None when there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    result = {"median": median(values), "samples": n, "percentile": None, "value": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        index = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - 1 - index >= 10:
            result.update(percentile=pct, value=ordered[index])
            break
    result["each"] = values
    return result


def accuracy_of(ops: list[Op], workload: Workload) -> dict[str, float]:
    """Accuracy figures of the workload's outputs (0 where a workload
    produces no such output); all operations of a run agree, so the first
    one with figures is used. For ``train`` they are means over the models."""
    figures = next((op.accuracy for op in ops if op.accuracy), {})
    if workload.kind == "train" and figures:
        models = [cmd[cmd.index("--model") + 1] for cmd in workload.commands]
        figures = {
            name: statistics.fmean(figures[f"{m}.{name}"] for m in models)
            for name in ("test_mape", "val_mse")
        }
    names = ("test_mape", "test_ais_95", "test_picp_95_gap", "val_mse")
    return {name: float(figures.get(name, 0.0)) for name in names}


def layer_metrics(trace_ops: list[Op], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics: the median over traced operations of each figure
    (an operation whose commands all failed contributes zeros)."""
    empty = {"self_s": {}, "calls": {}, "counters": {}}

    def figure(extract) -> float:
        return median([float(extract(op.trace or empty)) for op in trace_ops])

    def self_s(span):
        return figure(lambda t: t["self_s"].get(span, 0.0))

    def calls(span):
        return figure(lambda t: t["calls"].get(span, 0))

    def counter(key):
        return figure(lambda t: t["counters"].get(key, 0))

    metrics = {}
    for label in ("lstm", "gru", "conv"):
        for phase in ("forward", "backward"):
            metrics[f"learners.nn.{label}_{phase}_s"] = self_s(f"learners.nn.{label}_{phase}")
    metrics["learners.nn.sigmoid_s"] = self_s("learners.nn.sigmoid")
    metrics["learners.nn.sigmoid_calls"] = calls("learners.nn.sigmoid")
    metrics["learners.nn.clip_s"] = self_s("learners.nn.clip")
    metrics["learners.nn.sgd_steps"] = calls("learners.nn.clip")
    metrics["learners.trees.build_cart_s"] = self_s("learners.trees.build_cart")
    metrics["learners.trees.build_cart_calls"] = calls("learners.trees.build_cart")
    metrics["learners.trees.cart_nodes"] = counter("learners.trees.cart_nodes")
    metrics["learners.trees.boosted_tree_s"] = self_s("learners.trees.boosted_tree")
    metrics["learners.trees.tree_predict_s"] = self_s("learners.trees.tree_predict")
    metrics["learners.trees.tree_predict_calls"] = calls("learners.trees.tree_predict")
    for kind in ("bilstm", "cnn_gru", "lstm_xgb", "random_forest"):
        metrics[f"learners.{kind}.fit_s"] = self_s(f"learners.{kind}.fit")
        metrics[f"learners.{kind}.predict_s"] = self_s(f"learners.{kind}.predict")
    metrics["learners.supervised_s"] = self_s("learners.supervised")
    metrics["learners.train_rows"] = counter("learners.train_rows")
    metrics["sunflower.step_s"] = self_s("sunflower.step")
    metrics["sunflower.evaluations"] = calls("sunflower.objective")
    metrics["sunflower.objective_s"] = self_s("sunflower.objective")
    metrics["sunflower.archive_insert_s"] = self_s("sunflower.archive_insert")
    metrics["sunflower.archive_inserts"] = calls("sunflower.archive_insert")
    metrics["sunflower.archive_accept_ratio"] = figure(
        lambda t: t["counters"].get("sunflower.archive_accepts", 0)
        / max(1, t["calls"].get("sunflower.archive_insert", 0))
    )
    metrics["sunflower.select_guide_s"] = self_s("sunflower.select_guide")
    metrics["sunflower.archive_size"] = counter("sunflower.archive_size")
    metrics["ensemble.fit_weights_s"] = self_s("ensemble.fit_weights")
    metrics["ensemble.fit_intervals_s"] = self_s("ensemble.fit_intervals")
    metrics["ensemble.forecast_s"] = self_s("ensemble.forecast")
    metrics["evaluation.score_s"] = self_s("evaluation.score")
    metrics["timeseries.load_s"] = self_s("timeseries.load")
    metrics["timeseries.rows"] = counter("timeseries.rows")
    metrics["timeseries.gaps"] = counter("timeseries.gaps")
    metrics["granulation.granulate_s"] = self_s("granulation.granulate")
    metrics["granulation.windows"] = counter("granulation.windows")
    metrics["fuzzy_rough.extract_s"] = self_s("fuzzy_rough.extract")
    metrics["fuzzy_rough.iterations"] = counter("fuzzy_rough.iterations")
    metrics["fuzzy_rough.converged"] = counter("fuzzy_rough.converged")
    metrics["pipeline.self_s"] = self_s("pipeline")
    metrics["cli.self_s"] = self_s("cli")
    metrics["trace.overhead_s"] = median([op.wall_s for op in trace_ops]) - untraced_wall
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One benchmark run; returns the report with the ``result`` to print."""
    started = time.perf_counter()
    steal_start = read_steal_ticks()
    bench = Bench(workload, seed, work)
    bench.make_input()
    setup, setup_gaps = ([], []) if traced else bench.measure_setup()

    ops: list[Op] = []
    trace_ops: list[Op] = []
    gaps: list[list[Proc]] = []
    if traced:
        ops.append(bench.run_op(0, traced=False))
    loop_start = time.perf_counter()
    while True:
        if not traced:
            gaps.append(bench.probe_gap(workload.probes))
        op = bench.run_op(len(ops) + len(trace_ops), traced=traced)
        (trace_ops if traced else ops).append(op)
        expected = median([o.wall_s for o in ops + trace_ops])
        longest = max(o.wall_s for o in ops + trace_ops)
        elapsed = time.perf_counter()
        if (
            elapsed - loop_start + expected > seconds
            or elapsed - started + longest > RUN_BUDGET_S
        ):
            break
    if not traced:
        gaps.append(bench.probe_gap(workload.probes))

    every = ops + trace_ops
    failed = sum(1 for op in every if op.problems)
    accuracy = accuracy_of(every, workload)
    spec = load_spec()
    if traced:
        values = layer_metrics(trace_ops, median([op.wall_s for op in ops]))
        values.update(accuracy, fail_ratio=failed / len(every))
        wanted = spec["per_layer"]
    else:
        scaled = {
            "run_s": at_reference_speed([op.wall_s for op in ops], gaps, "wall_s"),
            "cpu_s": at_reference_speed([op.cpu_s for op in ops], gaps, "cpu_s"),
            "setup_s": at_reference_speed([p.wall_s for p in setup], setup_gaps, "wall_s"),
        }
        values = {name: median(each) for name, each in scaled.items()}
        values["peak_rss_mb"] = median([op.rss_mb for op in ops])
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    report = {
        "workload": {"seed": seed, "commands": [list(c) for c in workload.commands], **bench.facts},
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(THREADS),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "steal_ticks": read_steal_ticks() - steal_start,
            "steal_ticks_per_op": [op.steal_ticks for op in every],
        },
        "timings": {
            "run_s": timing([op.wall_s for op in ops]),
            "cpu_s": timing([op.cpu_s for op in ops]),
            "traced_run_s": timing([op.wall_s for op in trace_ops]) if trace_ops else None,
            "setup_s": timing([p.wall_s for p in setup]) if setup else None,
            "probe_s": (
                timing([p.wall_s for gap in gaps + setup_gaps for p in gap]) if gaps else None
            ),
        },
        "timings_at_reference_speed": (
            None if traced else {name: timing(each) for name, each in scaled.items()}
        ),
        "accuracy": accuracy,
        "problems": sorted({p for op in every for p in op.problems}),
        "result": result,
    }
    return report


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "granucast" / "cli.py").is_file():
        print(f"error: no granucast sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report.pop("result")
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
