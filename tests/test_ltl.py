import os
import pathlib
import random
import subprocess
import sys
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
    run_letter,
    solve_schedule,
    subformulas,
    witness_to_trace,
)
from ttscheck.model import Event, parse_tts
from ttscheck.observers import compose, synthesize
from ttscheck.oracle import Verdict, fott_holds
from ttscheck.patterns import parse_pattern
from ttscheck.records import FrozenInstanceError
from ttscheck.traces import replay

from conftest import xcheck_catalog
from golden import regen
from reference import (buchi_accepts, eval_letter, eval_on_lasso, record_methods,
                       ref_ltl_to_buchi)
from test_expr import PLACES, TRANSITIONS, VARS, expressions, states

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
    assert fott_holds(p, extended).value is Verdict.FAILS
    assert replay(inst.model, extended)


def test_undecided_extension_search_returns_the_counterexamples_own_witness(airlock):
    # no extension decides, so the search gives back what `check --out`
    # then writes: the witness of the lasso itself
    p = parse_pattern("Button1 leadsto first Open1 within [0,10] before Shutdown")
    inst = compose(airlock, synthesize(p))
    g = cg.build_graph(inst.model)
    res = check(g, inst.formula)
    assert res.counterexample.cycle
    got = find_decisive_extension(g, inst.model, res.counterexample, lambda t: False)
    assert got == witness_to_trace(inst.model, res.counterexample)


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
# run_letter against the `eval_expr` dict reader

@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), expressions(PLACES + VARS + TRANSITIONS)),
                min_size=1, max_size=4),
       states(PLACES, VARS, TRANSITIONS), states(PLACES, VARS, ()))
def test_run_letter_agrees_with_eval_letter(specs, source, post):
    # random event and state atoms on a fired step, or on the stutter step
    # (no transition and no post-state), as replay's final letter reads it
    atoms = tuple(EventAtom(e) if event else StateAtom(e) for event, e in specs)
    marking, store, transition = source
    if transition is None:
        post_marking = post_store = event = None
    else:
        post_marking, post_store, _ = post
        event = Event(transition, post_marking, post_store)
    letter = run_letter(atoms, marking, store, transition, post_marking, post_store)
    want = eval_letter(atoms, marking, store, event)
    assert letter == tuple(want[x] for x in atoms)
    assert all(type(v) is bool for v in letter)


# ---------------------------------------------------------------------------
# every formula node hashes once

FIELDED = (EventAtom, StateAtom, LNot, LAnd, LOr, LImplies, LUntil, LRelease,
           LAlways, LEventually)


def field_tuple(f) -> tuple:
    return tuple(getattr(f, name) for name in type(f).__annotations__)


def rebuilt(f):
    """An equal formula made of fresh nodes, none of them hashed yet."""
    if isinstance(f, (EventAtom, StateAtom)):
        return type(f)(*field_tuple(f))
    return type(f)(*map(rebuilt, field_tuple(f)))


def generated_hash(cls):
    """The `__hash__` that `records.record` generates for `cls`'s fields."""
    plain = type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__),
                                    "__module__": cls.__module__})
    return record_methods(plain)["__hash__"]


def assert_record_hashes(f) -> set:
    """Every node of `f` hashes as its record would, as an equal formula of
    fresh nodes does; returns the classes seen."""
    seen = set()
    for g in subformulas(f):
        if isinstance(g, FIELDED):
            seen.add(type(g))
            assert hash(g) == hash(field_tuple(g)) == generated_hash(type(g))(g), g
            assert hash(rebuilt(g)) == hash(g), g
    return seen


def test_formulas_hash_as_their_records_would():
    seen = set()
    for f in FORMULAS:
        seen |= assert_record_hashes(f)
    assert seen == set(FIELDED)


@settings(max_examples=100, deadline=None)
@given(nnf_formulas())
def test_nnf_formulas_hash_as_their_records_would(f):
    assert_record_hashes(f)


def test_hash_cache_is_not_a_field():
    leaf = a
    for cls in FIELDED[2:]:
        fields = (leaf, b)[:len(cls.__annotations__)]
        f = cls(*fields)
        hash(f)
        fresh = cls(*map(rebuilt, fields))
        assert f == fresh and hash(f) == hash(fresh)
        assert f != cls(*(c,) * len(fields))
        assert repr(f) == repr(fresh) == f"{cls.__name__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(cls.__annotations__, fields)) + ")"
        assert "_hash" not in cls.__annotations__
        for name in (*cls.__annotations__, "_hash"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, c)
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)
        assert {f: 1}[fresh] == 1
        leaf = f


def hashed_nodes(f) -> list:
    """The first argument of every Python call that `hash(f)` makes."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_argcount:
            calls.append(frame.f_locals[frame.f_code.co_varnames[0]])
    sys.setprofile(profile)
    try:
        hash(f)
    finally:
        sys.setprofile(None)
    return calls


def test_second_hash_of_a_formula_hashes_none_of_its_subformulas():
    for f in FORMULAS:
        hash(f)
        assert all(node is f for node in hashed_nodes(f)), f


def test_deep_conjunction_hashes_without_recursion():
    # a & (a & (... (a & b))), 5,000 deep, each level hashed as it is made
    f = b
    for _ in range(5000):
        f = LAnd(a, f)
        hash(f)
    assert hash(f) == hash((a, f.right))
    assert len(hashed_nodes(f)) == 1


DETERMINISM_SCRIPT = """
from conftest import MODELS, xcheck_catalog
from ttscheck.ltl import LNot, ltl_to_buchi
from ttscheck.model import load_tts
from ttscheck.observers import compose, synthesize
from ttscheck.patterns import parse_pattern
for name in ("airlock", "relay", "chain"):
    model = load_tts(MODELS / f"{name}.tts")
    cat = xcheck_catalog(name)
    for text in cat + [f"({cat[0]}) and ({cat[2]})", f"({cat[3]}) => ({cat[5]})"]:
        f = compose(model, synthesize(parse_pattern(text))).formula
        for g in (f, LNot(f)):
            ba = ltl_to_buchi(g)
            print(text, [str(x) for x in ba.atoms], ba.states, ba.initial, ba.succ,
                  ba.accepting)
"""


def test_catalog_automata_do_not_depend_on_the_hash_seed():
    # f and its negation of every catalog pattern and of one `and` and one
    # `=>` composite per model, translated under two string hash seeds
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2 * 3 * (8 + 2)


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
    # pattern and of one `and` and one `=>` composite, as the corpus has them.
    # On the 2-door airlock, also the benchmark's six composites, of up to
    # 405 raw states that ask only 243 distinct things of their successors
    model = request.getfixturevalue(model_name)
    cat = xcheck_catalog(model_name)
    texts = cat + [f"({cat[0]}) and ({cat[2]})", f"({cat[3]}) => ({cat[5]})"]
    if model_name == "airlock":
        texts += list(regen.benchmark_workloads().COMPOSITE)
    for text in texts:
        f = compose(model, synthesize(parse_pattern(text), model)).formula
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
