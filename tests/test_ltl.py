import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ttscheck import classgraph as cg
from ttscheck.expr import Chain, Name
from ttscheck.ltl import (
    FF,
    TT,
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
    _check_buchi,
    check,
    find_decisive_extension,
    lasso_program,
    ltl_to_buchi,
    nnf,
    run_lasso_program,
    solve_schedule,
    subformulas,
    witness_to_trace,
)
from ttscheck.model import parse_tts
from ttscheck.observers import compose, synthesize
from ttscheck.oracle import Verdict, fott_holds
from ttscheck.patterns import parse_pattern
from ttscheck.traces import replay

from conftest import xcheck_catalog
from reference import buchi_accepts, eval_on_lasso, ref_ltl_to_buchi

a, b = EventAtom(Name("a")), EventAtom(Name("b"))
c = StateAtom(Name("c"))


def test_nnf_pushes_negations():
    f = nnf(LNot(LAlways(a)))
    assert isinstance(f, LUntil)  # !G a == F !a == true U !a
    assert isinstance(f.right, LNot)
    g = nnf(LNot(LUntil(a, b)))
    assert isinstance(g, LRelease)


def test_weak_until_definition():
    # a W b, written as its release form b R (b | a), is (a U b) | G a
    f1 = LRelease(b, LOr(b, a))
    rng = random.Random(3)
    for _ in range(100):
        stem = [{a: rng.random() < 0.5, b: rng.random() < 0.5}
                for _ in range(rng.randint(0, 3))]
        cycle = [{a: rng.random() < 0.5, b: rng.random() < 0.5}
                 for _ in range(rng.randint(1, 3))]
        direct = eval_on_lasso(f1, stem, cycle)
        manual = eval_on_lasso(LOr(LUntil(a, b), LAlways(a)), stem, cycle)
        assert direct == manual


def test_atoms_hash_once_and_keep_their_dataclass_behaviour():
    for cls, field in ((EventAtom, "pred"), (StateAtom, "expr")):
        expr = Chain("&", (Name("x"), Name("y")))
        atom = cls(expr)
        assert hash(atom) == hash((expr,)) == hash(cls(expr))
        assert atom == cls(Chain("&", (Name("x"), Name("y"))))
        assert atom != cls(Name("x"))
        assert repr(atom) == f"{cls.__name__}({field}={expr!r})"
        assert {atom: 1}[cls(expr)] == 1
        with pytest.raises(AttributeError):
            setattr(atom, field, Name("z"))


FORMULAS = [
    LAlways(LNot(a)),
    LEventually(a),
    LAlways(LImplies(a, LEventually(b))),
    LUntil(a, b),
    LRelease(a, b),
    LRelease(LAnd(b, LUntil(TT(), a)), LOr(LAnd(b, LUntil(TT(), a)), LNot(b))),
    LImplies(LEventually(b), LEventually(a)),
    LAlways(LImplies(a, LAlways(b))),
    LAlways(LAlways(a)),
    LAnd(LAlways(LEventually(a)), LAlways(LEventually(b))),
    LOr(LAlways(a), LAlways(b)),
    LImplies(LEventually(a), LNot(LEventually(LAnd(b, c)))),
    LUntil(LNot(a), LAnd(a, LUntil(LNot(b), b))),
    LAlways(LImplies(c, LUntil(c, a))),
    LEventually(LAlways(a)),
    LAlways(LEventually(LAnd(a, LEventually(b)))),
    LRelease(FF(), LImplies(a, LEventually(b))),
    LRelease(b, LOr(b, a)),
    LImplies(LAlways(LEventually(a)), LAlways(LEventually(b))),
    LNot(LUntil(a, LAnd(b, LAlways(a)))),
]


def test_buchi_translation_agrees_with_direct_evaluation():
    rng = random.Random(42)
    atoms = [a, b, c]
    for f in FORMULAS:
        ba = ltl_to_buchi(f)
        for _ in range(200):
            stem = [{at: rng.random() < 0.5 for at in atoms}
                    for _ in range(rng.randint(0, 4))]
            cycle = [{at: rng.random() < 0.5 for at in atoms}
                     for _ in range(rng.randint(1, 4))]
            assert buchi_accepts(ba, stem, cycle) == eval_on_lasso(f, stem, cycle)


def test_nested_dfs_finds_seeded_liveness_violations():
    rng = random.Random(7)
    # random graph-shaped lassos with a seeded all-false cycle violate F a
    for trial in range(50):
        stem_len = rng.randint(0, 4)
        cyc_len = rng.randint(1, 4)
        stem = [{a: False, b: rng.random() < 0.5, c: False} for _ in range(stem_len)]
        cycle = [{a: False, b: rng.random() < 0.5, c: False} for _ in range(cyc_len)]
        ba = ltl_to_buchi(LNot(LEventually(a)))  # accepts words without a
        assert buchi_accepts(ba, stem, cycle)
        somewhere = rng.randrange(cyc_len)
        cycle2 = [dict(x) for x in cycle]
        cycle2[somewhere][a] = True
        assert not buchi_accepts(ba, stem, cycle2)


# ---------------------------------------------------------------------------
# graph-level checking

def test_safety_fast_path_equivalence(airlock):
    texts = ["present Ventil after (Open1 | Open2) within [0,10]",
             "present Ventil after (Open1 | Open2) within [0,9]",
             "absent Open1 before Close1 for duration 3"]
    for text in texts:
        inst = compose(airlock, synthesize(parse_pattern(text)))
        g = cg.build_graph(inst.model)
        fast = check(g, inst.formula)
        slow = _check_buchi(g, inst.formula)
        assert fast.passed == slow.passed, text
        assert fast.used_fast_path and not slow.used_fast_path, text


def test_fast_path_matches_reachability_scan(airlock):
    inst = compose(airlock, synthesize(
        parse_pattern("present Ventil after (Open1 | Open2) within [0,9]")))
    g = cg.build_graph(inst.model)
    res = check(g, inst.formula)
    error_edges = [e for e in g.edges if e[1] == "ob1_Error"]
    assert res.passed == (not error_edges)


def test_deadlock_stuttering_semantics():
    single = parse_tts("places P=1\ntrans go consume {P}\n")
    g = cg.build_graph(single)
    # after the only event the graph deadlocks; event atoms go false forever
    assert check(g, LEventually(EventAtom(Name("go")))).passed
    assert not check(g, LEventually(EventAtom(Name("other")))).passed
    assert check(g, LAlways(LImplies(EventAtom(Name("other")), FF()))).passed


def test_vacuous_implication_on_deadlocked_branch(airlock):
    # shutdown deadlocks the airlock without any door cycle: those runs must
    # pass through the vacuous premise, the rest because the earliest Open1
    # after an Open2 is the 10 u.t. close-and-ventilate turnaround
    inst = compose(airlock, synthesize(
        parse_pattern("absent Open1 after Open2 for interval [0,6]")))
    g = cg.build_graph(inst.model)
    res = check(g, inst.formula)
    assert res.passed
    inst2 = compose(airlock, synthesize(
        parse_pattern("absent Open1 after Open2 for interval [0,100]")))
    g2 = cg.build_graph(inst2.model)
    assert not check(g2, inst2.formula).passed  # door 1 can open at +10


def test_check_antitone_under_conjunction(airlock):
    inst = compose(airlock, synthesize(
        parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")))
    g = cg.build_graph(inst.model)
    f1 = inst.formula
    f2 = LAlways(LNot(EventAtom(Name("Shutdown"))))
    both = check(g, LAnd(f1, f2))
    assert not both.passed  # shutdown is reachable
    assert check(g, f1).passed
    assert not check(g, f2).passed


# ---------------------------------------------------------------------------
# witness extraction

def test_witness_replays_and_violates(airlock):
    p = parse_pattern("present Ventil after (Open1 | Open2) within [0,9]")
    inst = compose(airlock, synthesize(p))
    g = cg.build_graph(inst.model)
    res = check(g, inst.formula)
    assert not res.passed
    tr = witness_to_trace(inst.model, res.counterexample)
    assert replay(inst.model, tr)
    extended = find_decisive_extension(
        g, inst.model, res.counterexample,
        lambda t: fott_holds(p, t).value is Verdict.FAILS)
    assert extended is not None
    assert replay(inst.model, extended)


def test_schedule_solver_on_punctual_chain():
    m = parse_tts("""
places P=1 Q R
trans s1 in [2,2] consume {P} produce {Q}
trans s2 in [3,3] consume {Q} produce {R}
""")
    times = solve_schedule(m, ["s1", "s2"])
    assert times == [Fraction(2), Fraction(5)]


def test_schedule_solver_respects_priority_strictness():
    m = parse_tts("""
places P=1
vars x=false
trans hi in [0,5] read {P} act {x := true}
trans lo in [0,5] read {P} act {x := false}
prio hi > lo
""")
    times = solve_schedule(m, ["lo", "hi"])
    assert times[0] < times[1]  # the preempted competitor fires strictly later
    assert Fraction(0) <= times[0] and times[1] <= Fraction(5)


def test_schedule_solver_deadline_pressure():
    # u's deadline at 3 forces t to fire no later than 3
    m = parse_tts("""
places P=1 Q=1
trans t in [0,9] consume {P}
trans u in [3,3] consume {Q}
""")
    times = solve_schedule(m, ["t", "u"])
    assert times[0] <= Fraction(3) and times[1] == Fraction(3)


# ---------------------------------------------------------------------------
# the flat lasso program against the direct recursive evaluation

LASSO_ATOMS = (a, b, c)


def nnf_formulas():
    leaves = st.one_of(st.just(TT()), st.just(FF()), st.sampled_from(LASSO_ATOMS),
                       st.sampled_from(LASSO_ATOMS).map(LNot))

    def extend(inner):
        return st.one_of(st.builds(LAnd, inner, inner), st.builds(LOr, inner, inner),
                         st.builds(LUntil, inner, inner), st.builds(LRelease, inner, inner))
    return st.recursive(leaves, extend, max_leaves=10)


letters = st.tuples(st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=400, deadline=None)
@given(nnf_formulas(), st.lists(letters, max_size=5), st.lists(letters, min_size=1, max_size=4))
# an outer operator that reads an until or a release at every position of
# a two-letter cycle, where one backward pass leaves a cycle position wrong
@example(LRelease(FF(), LUntil(a, b)), [], [(True, True, False), (True, False, False)])
@example(LUntil(TT(), LRelease(a, b)), [], [(False, False, False), (False, True, False)])
def test_lasso_program_agrees_with_direct_evaluation(f, stem, cycle):
    def as_dicts(word):
        return [dict(zip(LASSO_ATOMS, letter)) for letter in word]

    program = lasso_program(f, LASSO_ATOMS)
    assert run_lasso_program(program, stem, cycle) == \
        eval_on_lasso(f, as_dicts(stem), as_dicts(cycle))


def test_deep_until_chain_compiles_and_runs_without_recursion():
    # a U (a U (... (a U b))), 5,000 deep, built directly in NNF
    f = b
    for _ in range(5000):
        f = LUntil(a, f)
    program = lasso_program(f, (a, b))
    assert len(program) == 2 * 5000 + 1
    assert run_lasso_program(program, [(True, False)] * 3, [(False, True)]) is True
    assert run_lasso_program(program, [(True, False)] * 3, [(True, False)]) is False
    assert run_lasso_program(program, [(False, False)], [(False, True)]) is False


# ---------------------------------------------------------------------------
# the tableau against the pairwise construction it replaced

def automaton_fields(ba) -> tuple:
    return ba.atoms, ba.states, ba.initial, ba.succ, ba.accepting


@settings(max_examples=300, deadline=None)
@given(nnf_formulas())
def test_tableau_equals_pairwise_reference_on_random_formulas(f):
    assume(len(set(subformulas(nnf(f)))) <= 12)
    assert automaton_fields(ltl_to_buchi(f)) == automaton_fields(ref_ltl_to_buchi(f))


@pytest.mark.parametrize("model_name", ["airlock", "relay", "chain"])
def test_tableau_equals_pairwise_reference_on_catalog_formulas(model_name, request):
    # f and its negation, the automaton `check` builds, of every catalog
    # pattern and of one `and` and one `=>` composite, as the corpus has them
    model = request.getfixturevalue(model_name)
    cat = xcheck_catalog(model_name)
    for text in cat + [f"({cat[0]}) and ({cat[2]})", f"({cat[3]}) => ({cat[5]})"]:
        f = compose(model, synthesize(parse_pattern(text))).formula
        for g in (f, LNot(f)):
            assert automaton_fields(ltl_to_buchi(g)) == automaton_fields(ref_ltl_to_buchi(g)), text

def test_product_code_keeps_no_lasso_oracle_and_imports_no_reference():
    # the direct evaluator and the `eval_expr` dict reader live in the tests
    import ast
    import pathlib

    import ttscheck

    for path in pathlib.Path(ttscheck.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("eval_on_lasso", "eval_nnf_on_lasso", "eval_letter"), path
            if isinstance(node, ast.Import):
                assert all("reference" not in a.name for a in node.names), path
            if isinstance(node, ast.ImportFrom):
                assert "reference" not in (node.module or ""), path
