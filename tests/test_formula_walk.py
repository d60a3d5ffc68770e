"""The formula walkers and the build-order safety scan, against references.

The references are the recursive walkers and the breadth-first safety scan
that `ltl` used before `children`/`subformulas`, `truth` and the scan in node
id order replaced them.
"""

from collections import deque
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttscheck import classgraph as cg
from ttscheck import ltl
from ttscheck.expr import Name
from ttscheck.ltl import (
    FF,
    TT,
    CheckResult,
    Counterexample,
    EventAtom,
    LAlways,
    LAnd,
    LEventually,
    LImplies,
    LNot,
    LOr,
    LRelease,
    LUntil,
    StateAtom,
    atom_readers,
    children,
    formula_atoms,
    graph_steps,
    nnf,
    run_letter,
    subformulas,
    truth,
)
from ttscheck.observers import compose, synthesize
from ttscheck.patterns import parse_pattern

from conftest import n_door_airlock, xcheck_catalog

ATOMS = (EventAtom(Name("a")), EventAtom(Name("b")), StateAtom(Name("c")))
UNARY = (LNot, LAlways, LEventually)
BINARY = (LAnd, LOr, LImplies, LUntil, LRelease)


# ---------------------------------------------------------------------------
# References

def ref_formula_atoms(f) -> set:
    if isinstance(f, (EventAtom, StateAtom)):
        return {f}
    if isinstance(f, LNot):
        return ref_formula_atoms(f.f)
    if isinstance(f, (LAnd, LOr, LImplies, LUntil, LRelease)):
        return ref_formula_atoms(f.left) | ref_formula_atoms(f.right)
    if isinstance(f, (LAlways, LEventually)):
        return ref_formula_atoms(f.f)
    return set()


def ref_closure(f, acc: set) -> None:
    """Tableau closure of an NNF formula."""
    acc.add(f)
    if isinstance(f, (LAnd, LOr, LUntil, LRelease)):
        ref_closure(f.left, acc)
        ref_closure(f.right, acc)
    elif isinstance(f, LNot):
        ref_closure(f.f, acc)


def ref_is_propositional(f) -> bool:
    if isinstance(f, (TT, FF, EventAtom, StateAtom)):
        return True
    if isinstance(f, LNot):
        return ref_is_propositional(f.f)
    if isinstance(f, (LAnd, LOr, LImplies)):
        return ref_is_propositional(f.left) and ref_is_propositional(f.right)
    return False


def ref_eval_propositional(f, assignment: dict) -> bool:
    if isinstance(f, TT):
        return True
    if isinstance(f, FF):
        return False
    if isinstance(f, (EventAtom, StateAtom)):
        return assignment[f]
    if isinstance(f, LNot):
        return not ref_eval_propositional(f.f, assignment)
    if isinstance(f, LAnd):
        return ref_eval_propositional(f.left, assignment) and \
            ref_eval_propositional(f.right, assignment)
    if isinstance(f, LOr):
        return ref_eval_propositional(f.left, assignment) or \
            ref_eval_propositional(f.right, assignment)
    if isinstance(f, LImplies):
        return (not ref_eval_propositional(f.left, assignment)) or \
            ref_eval_propositional(f.right, assignment)
    raise AssertionError("not propositional")


def ref_fast_path_target(f):
    if isinstance(f, LAlways) and ref_is_propositional(f.f):
        return f.f
    return None


def ref_check_safety(g, body) -> CheckResult:
    """Breadth-first reachability scan with its own queue and seen set."""
    atoms = tuple(sorted(ref_formula_atoms(body), key=str))
    readers = atom_readers(atoms)
    parent: dict = {}
    seen = {g.initial}
    queue = deque([g.initial])
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        src = g.nodes[node]
        for (label, dst) in graph_steps(g, node):
            post = g.nodes[dst]
            a = dict(zip(atoms, run_letter(readers, src.marking, src.store, label,
                                           post.marking, post.store)))
            if not ref_eval_propositional(body, a):
                steps = [(node, label, dst)]
                cur = node
                while cur in parent:
                    prev, lbl = parent[cur]
                    steps.append((prev, lbl, cur))
                    cur = prev
                steps.reverse()
                return CheckResult(False, Counterexample(tuple(steps), ()),
                                   explored, True)
            if label is not ltl.STUTTER and dst not in seen:
                seen.add(dst)
                parent[dst] = (node, label)
                queue.append(dst)
    return CheckResult(True, None, explored, True)


# ---------------------------------------------------------------------------
# Random formulas of every class

def _extend(sub):
    return st.one_of(
        st.builds(lambda cls, f: cls(f), st.sampled_from(UNARY), sub),
        st.builds(lambda cls, f, g: cls(f, g), st.sampled_from(BINARY), sub, sub))


LEAVES = st.sampled_from((TT(), FF()) + ATOMS)
formulas = st.recursive(LEAVES, _extend, max_leaves=12)
propositional = st.recursive(LEAVES, lambda sub: st.builds(
    lambda cls, *fs: cls(*fs[:1]) if cls is LNot else cls(*fs),
    st.sampled_from((LNot, LAnd, LOr, LImplies)), sub, sub), max_leaves=12)
assignments = st.fixed_dictionaries({x: st.booleans() for x in ATOMS})


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_walkers_agree_with_recursive_references(f):
    assert formula_atoms(f) == tuple(sorted(ref_formula_atoms(f), key=str))
    g = nnf(f)
    cl: set = set()
    ref_closure(g, cl)
    assert set(subformulas(g)) == cl
    assert list(subformulas(f))[0] is f
    for h in (f, LAlways(f), LAlways(g), LNot(LAlways(f))):
        assert ltl._fast_path_target(h) == ref_fast_path_target(h)


@settings(max_examples=300, deadline=None)
@given(propositional, assignments)
def test_truth_agrees_with_reference_evaluation(f, chosen):
    assert ref_is_propositional(f)
    assert truth(f, chosen) == ref_eval_propositional(f, chosen)


def test_every_formula_class_rebuilds_from_its_children():
    a, b = ATOMS[0], ATOMS[2]
    samples = [TT(), FF()] + [cls(a) for cls in UNARY] + [cls(a, b) for cls in BINARY]
    for f in samples:
        assert type(f)(*children(f)) == f
    for f in ATOMS:  # atoms are the leaves: their expressions are not formulas
        assert children(f) == ()
    assert {type(f) for f in samples + list(ATOMS)} == set(get_args(ltl.LtlFormula))


def test_subformulas_walks_deep_formulas_without_recursion():
    f = ATOMS[0]
    for _ in range(5000):
        f = LAlways(f)
    assert formula_atoms(f) == (ATOMS[0],)
    assert sum(1 for _ in subformulas(f)) == 5001


# ---------------------------------------------------------------------------
# The safety scan in build order

def _patterns(model_name: str) -> list:
    cat = xcheck_catalog(model_name)
    return cat + [f"({cat[0]}) and ({cat[2]})", f"({cat[1]}) => ({cat[3]})"]


@pytest.mark.parametrize("model_name", ["airlock", "relay", "chain"])
def test_check_agrees_with_breadth_first_reference(model_name, request, monkeypatch):
    model = request.getfixturevalue(model_name)
    for text in _patterns(model_name):
        inst = compose(model, synthesize(parse_pattern(text)))
        g = cg.build_graph(inst.model)
        got = ltl.check(g, inst.formula)
        with monkeypatch.context() as m:
            m.setattr(ltl, "_check_safety", ref_check_safety)
            m.setattr(ltl, "_fast_path_target", ref_fast_path_target)
            want = ltl.check(g, inst.formula)
        assert got == want, text


@pytest.mark.parametrize("model_name", ["airlock", "relay", "chain", "airlock3"])
def test_first_occurrence_paths_agree_with_breadth_first_reference(model_name, request):
    """`[] !t` fails on the first firing of t, so every transition gives a
    shortest path to a different depth of the graph."""
    model = n_door_airlock(3) if model_name == "airlock3" else request.getfixturevalue(model_name)
    g = cg.build_graph(model)
    for t in model.transitions:
        body = LNot(EventAtom(Name(t)))
        got = ltl.check(g, LAlways(body))
        assert got.used_fast_path and got == ref_check_safety(g, body), t
