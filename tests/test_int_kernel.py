"""The integer firing-domain kernel against a Fraction-DBM reference.

The reference below builds state classes the textbook way on `zone.Dbm`:
constrain the domain so that t fires first, close it, re-read the persistent
clocks from t's firing instant, add each fresh variable, close again.  The
class graph must give the same edges, and the same decoded domain at every
node, as the integer kernel.
"""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import n_door_airlock, nets
from ttscheck import classgraph as cg
from ttscheck import zone
from ttscheck.model import (
    CapacityExceeded,
    ExplorationError,
    enabled,
    fire,
    parse_tts,
    step,
)

# ---------------------------------------------------------------------------
# Reference: state classes over Fraction DBMs, full closure at every step


def ref_initial(model):
    marking, store = model.initial_marking(), model.initial_store()
    d = zone.trivial()
    for name in sorted(enabled(model, marking, store)):
        d = zone.add_variable(d, name, model.transitions[name].timing)
    return marking, store, d


def ref_fire_window(model, d, t):
    if t not in d.names:
        return None
    ti = d.index(t)
    higher = model.higher_than(t)
    items = [(ti, d.index(u), (Fraction(0), u in higher)) for u in d.names if u != t]
    return zone.constrain_many(d, items)


def ref_firable(model, d):
    return {t for t in d.names if ref_fire_window(model, d, t) is not None}


def ref_successor(model, cls, t):
    marking, store, d = cls
    fired = ref_fire_window(model, d, t)
    assert fired is not None
    new_marking, new_store, now_enabled, fresh = step(
        model, marking, store, t, enabled(model, marking, store))
    names = tuple(sorted(now_enabled - fresh))
    ti = fired.index(t)
    old = [ti] + [fired.index(n) for n in names]
    d2 = zone.Dbm(names, tuple(tuple(fired.m[a][b] for b in old) for a in old))
    for name in sorted(fresh):
        d2 = zone.add_variable(d2, name, model.transitions[name].timing)
    return new_marking, new_store, zone.canonicalize(d2)


def ref_key(cls):
    marking, store, d = cls
    return (tuple(sorted((p, n) for p, n in marking.items() if n)),
            tuple(sorted(store.items())), d.names, d.m)


def ref_build_graph(model, max_classes):
    """Same breadth-first discovery order as `classgraph.build_graph`."""
    init = ref_initial(model)
    nodes, edges, index = [init], [], {ref_key(init): 0}
    queue = deque([0])
    while queue:
        src = queue.popleft()
        fir = ref_firable(model, nodes[src][2])
        for t in model.transitions:
            if t not in fir:
                continue
            nxt = ref_successor(model, nodes[src], t)
            tgt = index.get(ref_key(nxt))
            if tgt is None:
                if len(nodes) >= max_classes:
                    raise cg.ClassBudgetExceeded("budget")
                tgt = index[ref_key(nxt)] = len(nodes)
                nodes.append(nxt)
                queue.append(tgt)
            edges.append((src, t, tgt))
    return nodes, edges


def assert_same_graph(model, max_classes=1_000_000):
    try:
        nodes, edges = ref_build_graph(model, max_classes)
    except ExplorationError as exc:
        with pytest.raises(type(exc)):
            cg.build_graph(model, max_classes)
        return None
    g = cg.build_graph(model, max_classes)
    assert g.edges == edges
    assert len(g.nodes) == len(nodes)
    for c, (marking, store, d) in zip(g.nodes, nodes):
        assert (c.marking, c.store) == (marking, store)
        assert c.domain.names == d.names
        assert c.domain.dump() == d.dump()
        assert cg.firable(model, c) == ref_firable(model, d)
    return g


# ---------------------------------------------------------------------------
# Random small nets


@settings(max_examples=60, deadline=None)
@given(nets())
def test_random_nets_match_fraction_reference(text):
    assert_same_graph(parse_tts(text), max_classes=150)


# ---------------------------------------------------------------------------
# Edge cases


def test_bounds_decode_to_exact_fractions():
    m = parse_tts("places P=1 Q=1\ntrans a in ]1/3,5/2[ consume {P}\n"
                  "trans b in [1/4,1] consume {Q}\n")
    c = cg.initial_class(m)
    assert c.domain.scale == 12
    assert c.domain.bounds_of("a") == ((Fraction(-1, 3), True), (Fraction(5, 2), True))
    assert c.domain.bounds_of("b") == ((Fraction(-1, 4), False), (Fraction(1), False))
    assert c.domain.entry("a", "b") == (Fraction(9, 4), True)
    assert c.domain.dump() == ref_initial(m)[2].dump()
    assert_same_graph(m)


@pytest.mark.parametrize("prio, expected", [("", {"t", "u"}), ("prio u > t", {"u"})])
def test_priority_boundary_at_zero_difference(prio, expected):
    # D[u][t] is exactly (0, <=): both may fire at 2, so t fires first only
    # when u does not have priority over it
    m = parse_tts("places P=1 Q=1\ntrans t in [2,3] consume {P}\n"
                  f"trans u in [2,2] consume {{Q}}\n{prio}\n")
    c = cg.initial_class(m)
    assert c.domain.entry("u", "t") == (Fraction(0), False)
    assert cg.firable(m, c) == expected == ref_firable(m, ref_initial(m)[2])
    assert_same_graph(m)


def test_huge_constants_stay_below_infinity():
    big = 2 ** 62
    m = parse_tts(f"places P=1 Q=1 R\ntrans a in [{big},{big + 1}] consume {{P}} produce {{R}}\n"
                  f"trans b in ]{4 * big},oo[ read {{Q}}\n"
                  f"trans c in [0,{2 ** 64}[ consume {{R}}\n")
    g = assert_same_graph(m)
    assert g is not None and g.node_count > 1
    m2 = parse_tts(f"places P=1 Q=1\ntrans a in [{big}/3,{2 ** 64}] consume {{P}}\n"
                   f"trans b in ]{big},oo[ consume {{Q}}\n")
    assert cg.initial_class(m2).domain.scale == 3
    assert assert_same_graph(m2) is not None


def test_class_graph_runs_no_full_closure(monkeypatch):
    def closure(*args):
        raise AssertionError("full closure on the class-graph path")

    monkeypatch.setattr(zone, "canonicalize", closure)
    g = cg.build_graph(n_door_airlock(3))
    assert (g.node_count, g.edge_count) == (47, 101)


def test_capacity_error_is_typed_and_reexported():
    assert cg.CapacityExceeded is CapacityExceeded
    assert issubclass(CapacityExceeded, ExplorationError)
    m = parse_tts("places P=1\ntrans t in [1,1] read {P} produce {P}\n")
    with pytest.raises(CapacityExceeded, match="place 'P' exceeds capacity 1"):
        fire(m, m.initial_marking(), m.initial_store(), "t")
