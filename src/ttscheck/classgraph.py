"""State-class graph: the finite dense-time abstraction of a model.

A state class is a discrete state (marking + store) plus a firing domain over
the currently enabled transitions: a canonical DBM constraining how much
longer each of them may stay enabled before firing.  Successor computation is
the standard strongest-postcondition on firing domains; priorities contribute
strict ordering constraints to firability.

Domains are `zone.Domain`s: every interval constant of the model is scaled
by the LCM of their denominators and each bound is one int, so firability is
an O(n) test and a successor one incremental closure (see `zone`).  The
rescaling is exact.  No product code reads a domain's values: the exports
print each class's marking and store only, and the tests decode bounds back
to Fractions with their own readers.
"""

from __future__ import annotations

from . import zone
from .model import (
    CapacityExceeded,  # re-exported: callers catch `classgraph.CapacityExceeded`
    ExplorationError,
    Marking,
    Store,
    TtsModel,
    enabled,
    step,
)
from .records import field, record
from .traces import _fmt_marking, _fmt_store
from .zone import Domain


@record(frozen=True)
class StateClass:
    marking: Marking
    store: Store
    domain: Domain

    def key(self) -> tuple:
        return (
            tuple(sorted((p, n) for p, n in self.marking.items() if n)),
            tuple(sorted(self.store.items())),
            self.domain.names,
            self.domain.m,
        )


class ClassBudgetExceeded(ExplorationError):
    pass


@record
class ClassGraph:
    model: TtsModel
    nodes: list = field(default_factory=list)  # StateClass, index = node id
    initial: int = 0
    succ: dict = field(default_factory=dict)  # id -> list[(transition, id)]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> list:
        """(source id, transition name, target id), in the order
        `build_graph` finds them: by source id, then in declaration order."""
        return [(a, t, b) for a in range(len(self.nodes)) for (t, b) in self.succ.get(a, ())]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.succ.values()))

    def deadlocks(self) -> set:
        return {i for i in range(len(self.nodes)) if not self.succ.get(i)}


def initial_class(model: TtsModel) -> StateClass:
    marking = model.initial_marking()
    store = model.initial_store()
    fresh = {name: model.transitions[name].timing
             for name in enabled(model, marking, store)}
    return StateClass(marking, store, zone.initial(fresh, model.time_scale))


def firable(model: TtsModel, c: StateClass) -> set:
    """Transitions that can fire first from this class, priorities included."""
    return {t for t in c.domain.names
            if zone.firable(c.domain, t, model.higher_than(t))}


def successor(model: TtsModel, c: StateClass, t: str) -> StateClass:
    """Fire t from a class: constrain, shift persistent clocks, add fresh ones."""
    higher = model.higher_than(t)
    if t not in c.domain.names or not zone.firable(c.domain, t, higher):
        raise ExplorationError(f"transition {t!r} not firable from this class")
    new_marking, new_store, now_enabled, fresh = step(
        model, c.marking, c.store, t, c.domain.names)
    persistent = sorted(now_enabled - fresh)
    intervals = {name: model.transitions[name].timing for name in fresh}
    d = zone.fire(c.domain, t, higher, persistent, intervals)
    return StateClass(new_marking, new_store, d)


def build_graph(model: TtsModel, max_classes: int = 1_000_000) -> ClassGraph:
    """Breadth-first closure of `successor` over `firable`, deduplicated.

    Node ids follow discovery order, which is deterministic: the frontier is
    explored first-in-first-out and transitions in model declaration order.
    """
    from collections import deque

    g = ClassGraph(model)
    init = initial_class(model)
    index: dict = {init.key(): 0}
    g.nodes.append(init)
    queue = deque([0])
    order = list(model.transitions)
    while queue:
        src = queue.popleft()
        c = g.nodes[src]
        fir = firable(model, c)
        for t in order:
            if t not in fir:
                continue
            nxt = successor(model, c, t)
            k = nxt.key()
            tgt = index.get(k)
            if tgt is None:
                if len(g.nodes) >= max_classes:  # src, not fully expanded, is frontier too
                    raise ClassBudgetExceeded(
                        f"class budget {max_classes} exceeded while exploring"
                        f" ({len(g.nodes)} classes, {g.edge_count} edges,"
                        f" {len(queue) + 1} in frontier)")
                tgt = len(g.nodes)
                index[k] = tgt
                g.nodes.append(nxt)
                queue.append(tgt)
            g.succ.setdefault(src, []).append((t, tgt))
    return g


# ---------------------------------------------------------------------------
# Exports

def _fmt_state(c: StateClass) -> str:
    return f"m:{{{_fmt_marking(c.marking)}}} s:{{{_fmt_store(c.store)}}}"


def export_ksg(g: ClassGraph) -> str:
    lines = [f"# ksg nodes={g.node_count} edges={g.edge_count} initial={g.initial}"]
    for i, c in enumerate(g.nodes):
        lines.append(f"node {i} {_fmt_state(c)}")
    for (a, t, b) in g.edges:
        lines.append(f"edge {a} {t} {b}")
    return "\n".join(lines) + "\n"


def export_dot(g: ClassGraph) -> str:
    lines = ["digraph classes {", '  node [shape=box,fontname="monospace"];']
    for i, c in enumerate(g.nodes):
        label = _fmt_state(c).replace('"', "'")
        lines.append(f'  n{i} [label="{i}\\n{label}"];')
    for (a, t, b) in g.edges:
        lines.append(f'  n{a} -> n{b} [label="{t}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
