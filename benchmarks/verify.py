"""Correctness gate: compare what ttscheck reported with the expected tables.

Each check returns the number of wrong outcomes: a verdict that differs from
the table or is missing, a written counterexample trace that does not
confirm, an `xcheck` mismatch, or a `graph` class count or export that is off.
"""

from __future__ import annotations

import json
from pathlib import Path

from ttscheck.model import load_tts
from ttscheck.observers import compose, synthesize
from ttscheck.oracle import Verdict, fott_holds, mtl_holds
from ttscheck.patterns import format_pattern, parse_pattern, to_mtl
from ttscheck.traces import TraceError, parse_trace, replay


def trace_confirms(model, text: str, trace_file: str) -> bool:
    """The trace replays on the instrumented model and both trace-level
    semantics judge that it violates the pattern."""
    pattern = parse_pattern(text)
    try:
        trace = parse_trace(Path(trace_file).read_text(encoding="utf-8"))
    except (OSError, TraceError):
        return False
    return (replay(compose(model, synthesize(pattern)).model, trace)
            and fott_holds(pattern, trace).value is Verdict.FAILS
            and mtl_holds(to_mtl(pattern), trace).value is Verdict.FAILS)


def wrong_outcomes(inv, stdout: str) -> int:
    """Count wrong outcomes of one invocation from its `--json` report."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return max(1, len(inv.expected))
    if inv.command == "graph":
        ksg = Path(report.get("ksg", ""))
        header = f"# ksg nodes={inv.classes} "
        ok = (report.get("nodes") == inv.classes and ksg.is_file()
              and ksg.read_text(encoding="utf-8").startswith(header))
        return 0 if ok else 1
    if inv.command == "xcheck":
        entries = report.get("xcheck", [])
        mismatches = sum(e["mismatches"] for e in entries)
        return mismatches + max(0, len(inv.expected) - len(entries))
    entries = report.get("verdicts", [])
    wrong = max(0, len(inv.expected) - len(entries))
    model = None
    for text, expected, entry in zip(inv.patterns, inv.expected, entries):
        if (entry["pattern"] != format_pattern(parse_pattern(text))
                or entry["result"] != expected):
            wrong += 1
            continue
        if expected == "fail" and "--out" in inv.argv:
            model = model or load_tts(inv.model)
            trace_file = entry.get("counterexample_trace_file")
            if trace_file is None or not trace_confirms(model, text, trace_file):
                wrong += 1
    return wrong
