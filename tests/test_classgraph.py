from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import guarded_nets
from reference import bounds_of
from ttscheck import classgraph as cg
from ttscheck.model import ExplorationError, fire, parse_tts
from ttscheck.traces import simulate


def test_initial_class_airlock(airlock):
    c = cg.initial_class(airlock)
    assert c.marking["Idle"] == 1
    assert c.store == {"req1": False, "req2": False}
    assert c.domain.names == ("Button1", "Button2", "Shutdown")
    for n in c.domain.names:
        lo, up = bounds_of(c.domain, n)
        assert lo == (Fraction(0), False) and up is None


def test_initial_class_punctual_window():
    m = parse_tts("places P=1\ntrans t in [6,6] consume {P}\n")
    c = cg.initial_class(m)
    assert bounds_of(c.domain, "t") == ((Fraction(-6), False), (Fraction(6), False))


def test_initial_class_deadlock_is_valid():
    m = parse_tts("places P\ntrans t consume {P}\n")
    c = cg.initial_class(m)
    assert c.domain.names == ()
    assert cg.firable(m, c) == set()


def test_firable_priority_excludes_lower(airlock):
    g = cg.build_graph(airlock)
    contention = [c for c in g.nodes
                  if c.marking.get("Idle") == 1 and c.store["req1"] and c.store["req2"]]
    assert contention, "contention class must be reachable"
    for c in contention:
        assert cg.firable(airlock, c) == {"Open2"}


def test_firable_single_pending():
    m = parse_tts("places P=1\ntrans t in [4,4] consume {P}\n")
    c = cg.initial_class(m)
    assert cg.firable(m, c) == {"t"}


def test_firable_deadline_ordering():
    # a in [0,2], b in [3,5]: only a can fire first
    m = parse_tts("places P=1\ntrans a in [0,2] read {P}\ntrans b in [3,5] consume {P}\n")
    c = cg.initial_class(m)
    assert cg.firable(m, c) == {"a"}


def test_successor_airlock_close_window(airlock):
    c = cg.initial_class(airlock)
    c = cg.successor(airlock, c, "Button1")
    c = cg.successor(airlock, c, "Open1")
    assert c.marking["D1isOpen"] == 1
    assert "Close1" in c.domain.names
    assert bounds_of(c.domain, "Close1") == ((Fraction(-4), False), (Fraction(4), False))


def test_successor_fires_ventil_chain(airlock):
    c = cg.initial_class(airlock)
    for t in ("Button1", "Open1", "Close1"):
        c = cg.successor(airlock, c, t)
    assert c.store["req1"] is False
    assert bounds_of(c.domain, "Ventil") == ((Fraction(-6), False), (Fraction(6), False))


def test_successor_persistent_residual_window():
    # u in [2,5] persists over t at [1,1]: residual window [1,4]
    m = parse_tts("places P=1 Q=1\ntrans t in [1,1] consume {P}\ntrans u in [2,5] consume {Q}\n")
    c = cg.initial_class(m)
    c2 = cg.successor(m, c, "t")
    assert bounds_of(c2.domain, "u") == ((Fraction(-1), False), (Fraction(4), False))


def test_successor_requires_firability():
    m = parse_tts("places P=1\ntrans a in [0,2] read {P}\ntrans b in [3,5] consume {P}\n")
    c = cg.initial_class(m)
    with pytest.raises(Exception):
        cg.successor(m, c, "b")


def test_build_graph_airlock_regression(airlock):
    g = cg.build_graph(airlock)
    assert (g.node_count, g.edge_count) == (19, 31)
    dead = g.deadlocks()
    assert len(dead) == 1
    (d,) = dead
    c = g.nodes[d]
    assert all(v == 0 for v in c.marking.values())
    assert c.store == {"req1": True, "req2": True}


def test_build_graph_self_loop_net():
    m = parse_tts("places P=1\ntrans t in [0,0] read {P}\n")
    g = cg.build_graph(m)
    assert g.node_count == 1 and g.edge_count == 1
    assert g.edges[0] == (0, "t", 0)


def test_build_graph_capacity_exceeded():
    m = parse_tts("places P=1\ntrans t in [1,1] read {P} produce {P}\n")
    with pytest.raises(cg.CapacityExceeded):
        cg.build_graph(m)


def test_build_graph_budget():
    m = parse_tts("places P=1/9 \ntrans t in [1,1] read {P} produce {P}\n")
    with pytest.raises(cg.ClassBudgetExceeded):
        cg.build_graph(m, max_classes=3)


def test_build_graph_deterministic(airlock):
    g1 = cg.build_graph(airlock)
    g2 = cg.build_graph(airlock)
    assert g1.edges == g2.edges
    assert [c.key() for c in g1.nodes] == [c.key() for c in g2.nodes]


def test_airlock_mutual_exclusion_invariant(airlock):
    g = cg.build_graph(airlock)
    for c in g.nodes:
        assert not (c.marking.get("D1isOpen") and c.marking.get("D2isOpen"))


def test_deadlock_classes_have_no_successors(airlock):
    g = cg.build_graph(airlock)
    for d in g.deadlocks():
        assert cg.firable(airlock, g.nodes[d]) == set()


def test_priority_filter_only_removes(airlock):
    bare = parse_tts(
        open("models/airlock.tts").read().replace("prio Open2 > Open1", ""),
        name="airlock_noprio")
    g = cg.build_graph(airlock)
    for c in g.nodes:
        with_prio = cg.firable(airlock, c)
        without = cg.firable(bare, cg.StateClass(c.marking, c.store, c.domain))
        assert with_prio <= without


def _walk_graph(model, g, trace):
    node = g.initial
    for it in trace.events:
        nxt = [b for (t, b) in g.succ.get(node, []) if t == it.transition]
        if not nxt:
            return False
        node = nxt[0]
    return True


def test_simulated_traces_map_to_graph_paths(airlock, relay, chain):
    for model, runs in ((airlock, 350), (relay, 350), (chain, 350)):
        g = cg.build_graph(model)
        for seed in range(runs):
            tr = simulate(model, Fraction(30), seed)
            assert _walk_graph(model, g, tr), (model.name, seed)


# u is disabled before t fires and enabled in t's intermediate marking: its
# clock starts when t fires, so the graph has 2 classes and 2 edges
GUARD_READS_CONSUMED = ("places P=1 Q\ntrans t in [1,1] consume {P} produce {Q}\n"
                        "trans u in [2,3] pre {!P}")


def test_guard_on_consumed_place_restarts_clock():
    g = cg.build_graph(parse_tts(GUARD_READS_CONSUMED))
    assert (g.node_count, g.edge_count) == (2, 2)


@settings(max_examples=60, deadline=None)
@given(guarded_nets(), st.integers(0, 1000))
@example(GUARD_READS_CONSUMED, 0)
def test_simulated_traces_map_to_graph_paths_on_guarded_nets(text, seed):
    model = parse_tts(text)
    try:
        g = cg.build_graph(model, max_classes=300)
    except cg.ClassBudgetExceeded:
        return
    for s in range(seed, seed + 5):
        try:
            tr = simulate(model, Fraction(20), s)
        except ExplorationError:  # a zero-delay cycle
            return
        assert _walk_graph(model, g, tr), s
