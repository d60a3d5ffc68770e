"""The benchmark's span tracer must find every function it is told to trace.

`benchmarks/tracing.py` looks each `(module, function)` pair of `TRACED` up
with `getattr` when a traced run starts, so a renamed or removed function
would end the benchmark run; this test fails first instead.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = load_tracing().TRACED
    assert traced
    missing = [f"{mod}.{fn}" for mod, fn in traced
               if not callable(getattr(importlib.import_module(f"ttscheck.{mod}"), fn, None))]
    assert missing == []
