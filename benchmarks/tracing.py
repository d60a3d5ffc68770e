"""Span tracing of ttscheck from outside, for the benchmark's traced runs.

`Tracer.installed()` replaces each traced function, at every binding a
ttscheck module holds for it (`cli.check` as well as `ltl.check`), by a
wrapper that records a span: name, parent span, start and end.  Spans stay in
flat lists while the workload runs; `layer_metrics` turns them into self times
(a span's duration minus its children's) and counters afterwards.  The
program's own files are not changed.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs to trace; the span name is "module.function".
TRACED = (
    ("cli", "main"),
    ("model", "load_tts"),
    ("model", "fire"),
    ("patterns", "parse_pattern_file"),
    ("patterns", "validate_pattern"),
    ("observers", "synthesize"),
    ("observers", "compose"),
    ("observers", "replay_instrumented"),
    ("classgraph", "build_graph"),
    ("classgraph", "firable"),
    ("classgraph", "successor"),
    ("classgraph", "export_ksg"),
    ("classgraph", "export_dot"),
    ("zone", "canonicalize"),
    ("ltl", "check"),
    ("ltl", "ltl_to_buchi"),
    ("ltl", "cycle_time_lower_bound"),
    ("ltl", "find_decisive_extension"),
    ("ltl", "witness_to_trace"),
    ("ltl", "solve_schedule"),
    ("traces", "simulate"),
    ("traces", "serialize_trace"),
    ("oracle", "fott_holds"),
)

# Spans that decide which phase a `zone.canonicalize` call serves.
_PHASE_OF = {
    "classgraph.build_graph": "graph",
    "ltl.find_decisive_extension": "witness",
    "ltl.witness_to_trace": "witness",
    "ltl.solve_schedule": "witness",
    "ltl.cycle_time_lower_bound": "witness",
}
_WITNESS_ENTRY = ("ltl.find_decisive_extension", "ltl.witness_to_trace")


class Tracer:
    """Spans and result counters of traced calls, in memory."""

    def __init__(self):
        self.names: list = []  # index into self.labels, per span
        self.parents: list = []  # parent span index, -1 for a root
        self.starts: list = []
        self.ends: list = []
        self.labels: list = []
        self.stack: list = [-1]
        self.command = ""  # ttscheck subcommand of the invocation in progress
        self.max_dim = 0
        self.classes = 0
        self.edges = 0
        self.check_classes = 0  # classes built for `check` invocations
        self.buchi_states = 0
        self.product_states = 0
        self.witness_steps = 0

    def _parent_label(self, span: int) -> str:
        parent = self.parents[span]
        return self.labels[self.names[parent]] if parent >= 0 else ""

    # Probes read a traced call's arguments or result into the counters.
    def _probe_canonicalize(self, span, args, result):
        self.max_dim = max(self.max_dim, args[0].size)

    def _probe_build_graph(self, span, args, result):
        self.classes += result.node_count
        self.edges += result.edge_count
        if self.command == "check":
            self.check_classes += result.node_count

    def _probe_ltl_to_buchi(self, span, args, result):
        self.buchi_states += result.state_count

    def _probe_check(self, span, args, result):
        if self._parent_label(span) == "cli.main":
            self.product_states += result.states_explored

    def _probe_witness(self, span, args, result):
        if result is not None and self._parent_label(span) == "cli.main":
            self.witness_steps += len(result.events)

    def _wrap(self, label: str, fn, probe):
        code = len(self.labels)
        self.labels.append(label)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(span, args, result)
                return result
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        probes = {
            "zone.canonicalize": self._probe_canonicalize,
            "classgraph.build_graph": self._probe_build_graph,
            "ltl.ltl_to_buchi": self._probe_ltl_to_buchi,
            "ltl.check": self._probe_check,
            "ltl.find_decisive_extension": self._probe_witness,
            "ltl.witness_to_trace": self._probe_witness,
        }
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("ttscheck.") and m is not None]
        saved = []
        for mod_name, fn_name in TRACED:
            label = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"ttscheck.{mod_name}"], fn_name)
            wrapper = self._wrap(label, original, probes.get(label))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)


def layer_metrics(tr: Tracer, traced_wall: float) -> dict:
    """Per-layer self times and counters of one traced workload iteration."""
    n = len(tr.starts)
    labels = tr.labels
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    phase = [""] * n
    for i in range(n):  # a parent's index is below its children's
        p = tr.parents[i]
        label = labels[tr.names[i]]
        if p >= 0:
            child[p] += dur[i]
        phase[i] = _PHASE_OF.get(label) or (phase[p] if p >= 0 else "other")

    self_s: dict = {label: 0.0 for label in labels}
    total_s: dict = {label: 0.0 for label in labels}
    calls: dict = {label: 0 for label in labels}
    canon = {"graph": 0.0, "witness": 0.0, "other": 0.0}
    graph_canon_calls = 0
    witness_s = 0.0
    for i in range(n):
        label = labels[tr.names[i]]
        own = dur[i] - child[i]
        self_s[label] += own
        calls[label] += 1
        p = tr.parents[i]
        parent_label = labels[tr.names[p]] if p >= 0 else ""
        if parent_label != label:  # count recursion once in inclusive time
            total_s[label] += dur[i]
        if label == "zone.canonicalize":
            canon[phase[i]] += own
            graph_canon_calls += phase[i] == "graph"
        elif label in _WITNESS_ENTRY and parent_label == "cli.main":
            witness_s += dur[i]

    out = {f"{label}.s": self_s[label]
           for label in labels if label != "zone.canonicalize"}
    build_s = total_s["classgraph.build_graph"]
    out.update({
        "zone.canonicalize.graph_s": canon["graph"],
        "zone.canonicalize.witness_s": canon["witness"],
        "zone.canonicalize.other_s": canon["other"],
        "zone.canonicalize.calls": calls["zone.canonicalize"],
        "zone.closures_per_edge": graph_canon_calls / tr.edges if tr.edges else 0.0,
        "zone.max_dim": tr.max_dim,
        "classgraph.build_graph.total_s": build_s,
        "classgraph.classes": tr.classes,
        "classgraph.edges": tr.edges,
        "classgraph.successor.calls": calls["classgraph.successor"],
        "classgraph.classes_per_s": tr.classes / build_s if build_s else 0.0,
        "model.fire.calls": calls["model.fire"],
        "ltl.solve_schedule.total_s": total_s["ltl.solve_schedule"],
        "ltl.solve_schedule.calls": calls["ltl.solve_schedule"],
        "ltl.witness.s": witness_s,
        "ltl.witness_steps": tr.witness_steps,
        "ltl.buchi_states": tr.buchi_states,
        "ltl.product_states": tr.product_states,
        "ltl.explored_per_class": (tr.product_states / tr.check_classes
                                   if tr.check_classes else 0.0),
        "traces.simulate.calls": calls["traces.simulate"],
        "traced_wall_s": traced_wall,
    })
    return out
