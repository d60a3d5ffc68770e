"""Test-only references that the product code does not call.

Each is an independent reading that a test compares the product against:
Büchi membership of a lasso word, the non-intrusiveness of an observer
composition, and the text form of an action list.
"""

from ttscheck import classgraph as cg
from ttscheck.expr import Assign, format_expr
from ttscheck.ltl import BuchiAutomaton, _nested_dfs
from ttscheck.model import TtsModel
from ttscheck.observers import InstrumentedModel


def buchi_accepts(ba: BuchiAutomaton, stem: list, cycle: list) -> bool:
    """Membership of an ultimately periodic word in the automaton language."""
    assert cycle
    word = stem + cycle
    n = len(word)
    loop = len(stem)

    def compatible(state_idx: int, a: dict) -> bool:
        req = ba.states[state_idx]
        return all(a.get(atom, False) == v for atom, v in req.items())

    # product of the lasso word with the automaton; nested DFS over it
    def word_next(i: int) -> int:
        return i + 1 if i + 1 < n else loop

    succ: dict = {}

    def product_succ(node):
        if node in succ:
            return succ[node]
        (i, q) = node
        out = []
        if compatible(q, word[i]):
            out = [(word_next(i), r) for r in ba.succ[q]]
        succ[node] = out
        return out

    initial = [(0, q) for q in ba.initial]
    return _nested_dfs(initial, product_succ, lambda node: ba.accepting[node[1]]) is not None


def non_intrusiveness_check(system: TtsModel, inst: InstrumentedModel,
                            max_classes: int = 200_000) -> bool:
    """The composition must not disturb the system underneath.

    Compares the system's class graph with the composed one projected onto
    system components: same reachable (marking, store) set, same
    system-transition steps between projected states, and every observer
    step leaves the system components untouched.
    """
    g_sys = cg.build_graph(system, max_classes)
    g_comp = cg.build_graph(inst.model, max_classes)
    sys_places = set(system.places)
    sys_vars = set(system.vars)
    sys_trans = set(system.transitions)

    def proj(c) -> tuple:
        m = tuple(sorted((p, n) for p, n in c.marking.items()
                         if p in sys_places and n))
        s = tuple(sorted((k, v) for k, v in c.store.items() if k in sys_vars))
        return m, s

    sys_nodes = {proj(c) for c in g_sys.nodes}
    sys_edges = {(proj(g_sys.nodes[a]), t, proj(g_sys.nodes[b]))
                 for (a, t, b) in g_sys.edges}

    comp_nodes = {proj(c) for c in g_comp.nodes}
    comp_edges = set()
    for (a, t, b) in g_comp.edges:
        pa, pb = proj(g_comp.nodes[a]), proj(g_comp.nodes[b])
        if t in sys_trans:
            comp_edges.add((pa, t, pb))
        elif pa != pb:
            return False  # an observer step moved system state
    return sys_nodes == comp_nodes and sys_edges == comp_edges


def format_actions(acts: tuple[Assign, ...]) -> str:
    parts = []
    for a in acts:
        if a.cond is not None:
            parts.append(f"if {format_expr(a.cond)} then {a.target} := {format_expr(a.expr)}")
        else:
            parts.append(f"{a.target} := {format_expr(a.expr)}")
    return "; ".join(parts)
