"""The benchmark tracer wraps program functions by name; entering and leaving
its recording checks that every function it wraps still exists and is put
back afterwards."""

import importlib.util
import sys
from pathlib import Path

from synthdetect import tensor

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_wraps_and_restores_program_functions(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    before = dict(vars(tensor))
    tracer = module.Tracer()
    with tracer.recorded():
        assert tensor.mean_pool is not before["mean_pool"]
    assert tracer._patches == []
    assert all(vars(tensor)[name] is fn for name, fn in before.items())
