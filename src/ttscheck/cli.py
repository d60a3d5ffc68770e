"""Command-line front end.

Subcommands: `check` (synthesize observers, compose, model-check), `graph`
(state-class graph export), `simulate` (random timed run), `oracle`
(trace-level verdicts for a pattern on a trace file) and `xcheck` (simulate
many runs and confront instrumented replay with the trace oracles).

Exit codes: 0 all pass / agreement, 1 some verdict failed or mismatched,
2 input or validation error (an expression or formula nested too deeply for
the interpreter's recursion limit included), 3 exploration budget
exhausted, or exploration left the model's declared bounds (a place over
capacity, a variable out of range) or met a zero-delay cycle.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import classgraph as cg
from .classgraph import ClassBudgetExceeded
from .expr import ExprError, format_rational, parse_rational
from .ltl import check, cycle_time_lower_bound, find_decisive_extension
from .model import CapacityExceeded, ExplorationError, ModelError, load_tts
from .observers import ObserverError, compose, replay_instrumented, synthesize
from .oracle import Verdict, cross_check, fott_holds
from .patterns import (
    PatternError,
    format_pattern,
    parse_pattern,
    parse_pattern_file,
    pattern_constants,
    validate_pattern,
)
from .traces import (TraceError, parse_trace, serialize_trace, simulate, simulate_ticked,
                     truncate)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_model(path: str):
    try:
        model = load_tts(path)
    except (OSError, UnicodeDecodeError, ModelError) as exc:
        raise _InputError(f"cannot load model {path}: {exc}")
    return model


def _load_patterns(model, path: str) -> list:
    try:
        patterns = parse_pattern_file(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, PatternError) as exc:
        raise _InputError(f"cannot load patterns {path}: {exc}")
    for p in patterns:
        diags = validate_pattern(p, model)
        if diags:
            raise _InputError(
                f"invalid pattern {format_pattern(p)!r}: "
                + "; ".join(str(d) for d in diags))
    return patterns


class _InputError(Exception):
    pass


def _instrument(model, pattern):
    """The model composed with the pattern's observer."""
    try:
        return compose(model, synthesize(pattern, model))
    except ObserverError as exc:
        raise _InputError(f"cannot compose observer for {format_pattern(pattern)!r}: {exc}")


def _write_out(out: str, name: str, text: str) -> Path:
    """Write `text` to file `name` of the `--out` directory, creating it."""
    outdir = Path(out)
    path = outdir / name
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}")
    return path


def _parse_horizon(text: str) -> Fraction:
    try:
        horizon = parse_rational(text)
    except ExprError as exc:
        raise _InputError(f"bad --horizon: {exc}")
    if horizon < 0:
        raise _InputError(f"bad --horizon {text!r}: must not be negative")
    return horizon


def _at_least_one(option: str, value: int) -> None:
    if value < 1:
        raise _InputError(f"bad {option} {value}: must be at least 1")


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# check

def _check_one(model, pattern, args, index: int = 0):
    t0 = time.perf_counter()
    inst = _instrument(model, pattern)
    graph = cg.build_graph(inst.model, args.max_classes)
    result = check(graph, inst.formula)
    entry = {
        "pattern": format_pattern(pattern),
        "formula": str(inst.formula),
        "result": result.verdict,
        "states_explored": result.states_explored,
        "graph_nodes": graph.node_count,
        "graph_edges": graph.edge_count,
    }
    if result.counterexample is not None and result.counterexample.cycle:
        lb = cycle_time_lower_bound(inst.model, result.counterexample)
        if lb is not None:
            entry["cycle_time_lower_bound"] = format_rational(lb)
    if not result.passed and args.out:
        tr = find_decisive_extension(
            graph, inst.model, result.counterexample,
            lambda t: fott_holds(pattern, t).value is Verdict.FAILS)
        trace_file = _write_out(args.out, f"counterexample_{index:03d}.trace",
                                serialize_trace(tr))
        entry["counterexample_trace_file"] = str(trace_file)
    if args.timings:
        # wall-clock timing is opt-in: default reports stay byte-identical;
        # it covers the whole check, witness extraction included
        entry["time_ms"] = round((time.perf_counter() - t0) * 1000, 1)
    return entry


def cmd_check(args) -> int:
    _at_least_one("--max-classes", args.max_classes)
    model = _load_model(args.model)
    patterns = _load_patterns(model, args.patterns)
    if not patterns:
        _emit(args, {"model": args.model, "verdicts": []}, ["no patterns; vacuously ok"])
        return EXIT_OK
    entries = [_check_one(model, p, args, i) for i, p in enumerate(patterns)]
    lines = []
    for e in entries:
        lines.append(f"[{e['result']:>4}] {e['pattern']}"
                     f"  ({e['graph_nodes']} classes)")
        if e.get("cycle_time_lower_bound") == "0":
            lines.append("       zeno: the cycle can take zero time")
        if "counterexample_trace_file" in e:
            lines.append(f"       counterexample: {e['counterexample_trace_file']}")
    _emit(args, {"model": args.model, "verdicts": entries}, lines)
    return EXIT_OK if all(e["result"] == "pass" for e in entries) else EXIT_FAIL


# ---------------------------------------------------------------------------
# graph

def cmd_graph(args) -> int:
    _at_least_one("--max-classes", args.max_classes)
    model = _load_model(args.model)
    graph = cg.build_graph(model, args.max_classes)
    ksg = cg.export_ksg(graph)
    payload = {"model": args.model, "nodes": graph.node_count,
               "edges": graph.edge_count, "deadlocks": sorted(graph.deadlocks())}
    lines = [f"{graph.node_count} classes, {graph.edge_count} edges, "
             f"{len(graph.deadlocks())} deadlock(s)"]
    if args.out:
        stem = Path(args.model).stem
        ksg_file = _write_out(args.out, f"{stem}.ksg", ksg)
        _write_out(args.out, f"{stem}.dot", cg.export_dot(graph))
        payload["ksg"] = str(ksg_file)
        lines.append(f"wrote {ksg_file} and .dot")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    horizon = _parse_horizon(args.horizon)
    _at_least_one("--denominator", args.denominator)
    model = _load_model(args.model)
    trace = simulate(model, horizon, args.seed, args.denominator)
    text = serialize_trace(trace)
    if args.out:
        path = _write_out(args.out, f"{Path(args.model).stem}_{args.seed}.trace", text)
        print(f"wrote {path} ({len(trace.events)} events"
              f"{', deadlocked' if trace.deadlocked else ''})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    try:
        pattern = parse_pattern(args.pattern)
    except PatternError as exc:
        raise _InputError(str(exc))
    try:
        trace = parse_trace(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, TraceError) as exc:
        raise _InputError(f"cannot load trace {args.trace}: {exc}")
    report = cross_check(pattern, trace)
    payload = {
        "pattern": report.pattern,
        "fott": report.fott.value.value,
        "fott_witness": report.fott.witness,
        "mtl": report.mtl.value.value,
        "agree": not report.disagree,
    }
    lines = [f"fott: {report.fott.value.value}"
             + (f"  ({report.fott.witness})" if report.fott.witness else ""),
             f"mtl:  {report.mtl.value.value}",
             f"agreement: {'yes' if not report.disagree else 'NO'}"]
    _emit(args, payload, lines)
    if report.disagree:
        return EXIT_FAIL
    return EXIT_OK if report.fott.value is not Verdict.FAILS else EXIT_FAIL


# ---------------------------------------------------------------------------
# xcheck

class _PatternXcheck:
    """One pattern's observer, horizon and tallies in a cross-check."""

    def __init__(self, pattern, inst, horizon: Fraction):
        self.pattern, self.inst, self.horizon = pattern, inst, horizon
        self.agreements = self.inconclusive = 0
        self.mismatches = []  # (run, trace, fott, replay)


def _xcheck(model, patterns, runs: int, base_seed: int, horizon, out) -> list:
    """Simulate runs, replay each through every pattern's instrumented model,
    and compare with the decomposition oracle on every run where the oracle
    is decisive.

    Each seed is simulated once, at the largest pattern horizon, and each
    pattern reads that run cut at its own horizon: the run a simulation to
    that horizon gives (`traces.truncate`), cut once per distinct horizon.
    The run and its cuts keep their times in ticks for replay.  One run and
    its cuts are held at a time; only mismatching runs are kept."""
    checks = []
    for p in patterns:
        h = horizon
        if h is None:
            h = 3 * max([Fraction(1)] + pattern_constants(p))
        checks.append(_PatternXcheck(p, _instrument(model, p), Fraction(h)))
    if not checks:
        return []
    horizons = sorted({c.horizon for c in checks})
    at = [horizons.index(c.horizon) for c in checks]  # each check's cut
    for i in range(runs):
        run = simulate_ticked(model, horizons[-1], base_seed + i)
        cuts = [truncate(run, h) for h in horizons]
        for c, k in zip(checks, at):
            cut = cuts[k]
            trace = cut.trace
            fv = fott_holds(c.pattern, trace)
            if fv.value is Verdict.INCONCLUSIVE:
                c.inconclusive += 1
                continue
            rv = replay_instrumented(c.inst, cut)
            if rv.value is fv.value:
                c.agreements += 1
            else:
                c.mismatches.append((i, trace, fv, rv))
    entries = []
    for k, c in enumerate(checks):
        entry = {
            "pattern": format_pattern(c.pattern),
            "runs": runs,
            "horizon": format_rational(c.horizon),
            "decisive": c.agreements + len(c.mismatches),
            "inconclusive": c.inconclusive,
            "agreements": c.agreements,
            "mismatches": len(c.mismatches),
        }
        if c.mismatches and out:
            files = []
            for (i, trace, fv, rv) in c.mismatches:
                path = _write_out(out, f"mismatch_{k:03d}_{i}.trace", serialize_trace(trace))
                files.append({"file": str(path), "fott": fv.value.value,
                              "replay": rv.value.value})
            entry["mismatch_files"] = files
        entries.append(entry)
    return entries


def cmd_xcheck(args) -> int:
    horizon = None if args.horizon is None else _parse_horizon(args.horizon)
    _at_least_one("--runs", args.runs)
    model = _load_model(args.model)
    patterns = _load_patterns(model, args.patterns)
    entries = _xcheck(model, patterns, args.runs, args.seed, horizon, args.out)
    lines = []
    for e in entries:
        lines.append(f"[{'ok' if not e['mismatches'] else 'MISMATCH':>8}] "
                     f"{e['pattern']}: {e['agreements']}/{e['decisive']} agree, "
                     f"{e['inconclusive']} inconclusive")
    _emit(args, {"model": args.model, "xcheck": entries}, lines)
    return EXIT_OK if all(e["mismatches"] == 0 for e in entries) else EXIT_FAIL


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parser holds reference
    cycles, which a fresh one per `main` would leave to the collector."""
    ap = argparse.ArgumentParser(prog="ttscheck",
                                 description="real-time pattern verification "
                                             "on time Petri nets with data")
    ap.add_argument("--json", action="store_true", help="machine-readable reports")
    ap.add_argument("--out", help="directory for traces/exports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="model-check patterns via observers")
    p.add_argument("model")
    p.add_argument("patterns")
    p.add_argument("--max-classes", type=int, default=1_000_000)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in reports")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("graph", help="build and export the state-class graph")
    p.add_argument("model")
    p.add_argument("--max-classes", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("simulate", help="produce a random timed trace")
    p.add_argument("model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", default="50")
    p.add_argument("--denominator", type=int, default=8)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("oracle", help="trace-level verdicts for one pattern")
    p.add_argument("pattern")
    p.add_argument("trace")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("xcheck", help="cross-validate observers against oracles")
    p.add_argument("model")
    p.add_argument("patterns")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", default=None)
    p.set_defaults(fn=cmd_xcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ClassBudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CapacityExceeded as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ExplorationError as exc:
        print(f"exploration error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: input nested too deeply for the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
