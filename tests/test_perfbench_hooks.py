"""The benchmark tracer patches granucast functions and methods by name;
installing it here makes a rename of one of them fail in the suite rather
than only when the benchmark runs."""

import importlib
from pathlib import Path

from granucast.sunflower import SunflowerOptimizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    original = SunflowerOptimizer.__dict__["step"]
    recorder = tracer.Tracer()
    try:
        tracer.install(recorder)
        assert SunflowerOptimizer.__dict__["step"] is not original
    finally:
        recorder.restore()
    assert SunflowerOptimizer.__dict__["step"] is original
