"""The benchmark's span tracer must find every function it is told to trace.

`benchmarks/tracing.py` looks each `(module, function)` pair of `TRACED` up
with `getattr` when a traced run starts, so a renamed or removed function
would end the benchmark run; this test fails first instead.  So do the
tests of the names `benchmarks/verify.py` and `benchmarks/run.py` (its
`SETUP_CODE` too) import from ttscheck, read from those files, and of the
result attributes the tracer's probes read.
"""

import ast
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


# ---------------------------------------------------------------------------
# What the benchmark scripts use of ttscheck

BENCHMARKS = TRACING.parent


def ttscheck_imports(tree: ast.AST) -> list:
    """(module, name) of every import from ttscheck in a syntax tree; name
    is None for a plain `import ttscheck.x`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ttscheck":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "ttscheck"]
    return out


def setup_code(tree: ast.Module) -> str:
    """The string `benchmarks/run.py` runs in fresh processes for `setup_s`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py assigns no SETUP_CODE")


def importable(module: str, name) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")  # `from package import submodule`
        return True
    except ImportError:
        return False


def test_every_benchmark_import_exists():
    run = ast.parse((BENCHMARKS / "run.py").read_text(encoding="utf-8"))
    sources = {
        "verify.py": ttscheck_imports(
            ast.parse((BENCHMARKS / "verify.py").read_text(encoding="utf-8"))),
        "run.py": ttscheck_imports(run),
        "run.py SETUP_CODE": ttscheck_imports(ast.parse(setup_code(run))),
    }
    assert all(sources.values()), sources
    missing = [f"{where}: {mod}{'' if name is None else '.' + name}"
               for where, imports in sources.items() for mod, name in imports
               if not importable(mod, name)]
    assert missing == []


def test_probed_result_attributes_exist():
    """The tracer's probes read these attributes of traced calls' results."""
    from ttscheck.classgraph import build_graph
    from ttscheck.ltl import check, ltl_to_buchi, witness_to_trace
    from ttscheck.model import parse_tts
    from ttscheck.observers import compose, synthesize
    from ttscheck.patterns import parse_pattern

    model = parse_tts("places P=1 Q\n"
                      "trans t in [1,2] consume {P} produce {Q}\n"
                      "trans u in [5,5] consume {Q}\n")
    inst = compose(model, synthesize(parse_pattern("present u after t within [0,1]")))
    graph = build_graph(inst.model)
    result = check(graph, inst.formula)
    assert not result.passed
    trace = witness_to_trace(inst.model, result.counterexample)
    for obj, attr in ((graph, "node_count"), (graph, "edge_count"),
                      (ltl_to_buchi(inst.formula), "state_count"),
                      (result, "states_explored"), (trace, "events")):
        assert isinstance(getattr(obj, attr, None), (int, tuple)), (type(obj).__name__, attr)
