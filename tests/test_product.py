"""The product search and replay read one letter form.

`ltl._check_buchi` compares `run_letter` tuples with the automaton's
required letters and keeps the label behind each product edge it takes;
`reference.ref_check_buchi` reads dict letters with `eval_letter` and
re-scans graph steps for a lasso's labels.  Under both, `ltl._nested_dfs`,
which reads its lasso off its two search stacks, must do what
`reference.ref_nested_dfs`, which read it back along parent chains, did:
the same lasso, and the same calls in the same order.  Replay records
`run_letter` tuples in its model's `atoms` order, which must be the
automaton's, so the automaton of a formula's negation reads replay's
letters as they are.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ttscheck import classgraph as cg
from ttscheck import observers
from ttscheck.ltl import LNot, _check_buchi, _nested_dfs, ltl_to_buchi
from ttscheck.model import parse_tts
from ttscheck.observers import compose, replay_instrumented, synthesize
from ttscheck.patterns import parse_pattern, pattern_constants
from ttscheck.traces import simulate

from conftest import guarded_nets, n_door_airlock, xcheck_catalog
from reference import buchi_accepts, ref_check_buchi, ref_nested_dfs

MODELS = ("relay", "chain", "airlock3")


def model_and_patterns(name: str, request) -> tuple:
    """The model, and its catalog plus one `and` and one `=>` composite; the
    3-door airlock takes the airlock's catalog."""
    if name == "airlock3":
        model, cat = n_door_airlock(3), xcheck_catalog("airlock")
    else:
        model, cat = request.getfixturevalue(name), xcheck_catalog(name)
    texts = cat + [f"({cat[0]}) and ({cat[2]})", f"({cat[1]}) => ({cat[3]})"]
    return model, [parse_pattern(t) for t in texts]


def assert_search_agrees(model, pattern, max_classes=1_000_000):
    inst = compose(model, synthesize(pattern))
    g = cg.build_graph(inst.model, max_classes)
    got = _check_buchi(g, inst.formula)
    want = ref_check_buchi(g, inst.formula)
    assert got == want, pattern
    return got


@pytest.mark.parametrize("name", MODELS)
def test_product_search_agrees_with_dict_letter_reference(name, request):
    model, patterns = model_and_patterns(name, request)
    results = [assert_search_agrees(model, p) for p in patterns]
    assert any(r.counterexample and r.counterexample.cycle for r in results)


CHAIN_NAMES = re.compile(r"\b(Step1|Step2|Step3|Exit|Reset|A3)\b")


@settings(max_examples=12, deadline=None)
@given(guarded_nets(), st.data())
def test_product_search_agrees_with_reference_on_guarded_nets(text, data):
    # chain's catalog, its transitions and place renamed into the net's; a
    # net whose composed graph outgrows the class budget is dropped
    model = parse_tts(text)
    trans = st.sampled_from(sorted(model.transitions))
    names = {n: data.draw(trans) for n in ("Step1", "Step2", "Step3", "Exit", "Reset")}
    names["A3"] = data.draw(st.sampled_from(sorted(model.places)))
    for shape in xcheck_catalog("chain"):
        p = CHAIN_NAMES.sub(lambda m: names[m.group()], shape)
        try:
            assert_search_agrees(model, parse_pattern(p), max_classes=2_000)
        except cg.ClassBudgetExceeded:
            reject()


def logged_search(search, initial, succ: dict, accepting: set) -> tuple:
    """`search`'s result on a graph given as adjacency lists, and the
    sequence of its `successors` and `is_accepting` calls."""
    calls: list = []

    def successors(node):
        calls.append(("successors", node))
        return succ[node]

    def is_accepting(node):
        calls.append(("is_accepting", node))
        return node in accepting

    return search(initial, successors, is_accepting), calls


def test_nested_dfs_matches_parent_chain_reference_on_random_graphs():
    rng = random.Random(1)
    lassos = 0
    for _ in range(20_000):
        n = rng.randint(1, 9)
        succ = {v: [rng.randrange(n) for _ in range(rng.randint(0, 3))] for v in range(n)}
        accepting = {v for v in range(n) if rng.random() < 0.3}
        initial = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        got, got_calls = logged_search(_nested_dfs, initial, succ, accepting)
        want, want_calls = logged_search(ref_nested_dfs, initial, succ, accepting)
        assert (got, got_calls) == (want, want_calls), (succ, accepting, initial)
        if got is not None:
            stem, cycle = got
            assert stem[0] in initial and stem[-1] == cycle[0] == cycle[-1]
            assert stem[-1] in accepting and len(cycle) > 1
            path = stem + cycle[1:]
            assert all(b in succ[a] for a, b in zip(path, path[1:]))
            lassos += 1
    assert 5000 < lassos < 15000


@pytest.mark.parametrize("name", MODELS)
def test_automaton_reads_replay_letters(name, request, monkeypatch):
    """Replay's atoms are the automaton's, and the automaton of the
    negation accepts a replayed run, its final state stuttering, exactly
    when the lasso program says the formula fails."""
    runs: list = []
    run_lasso_program = observers.run_lasso_program

    def recording(program, stem, cycle):
        holds = run_lasso_program(program, stem, cycle)
        runs.append((list(stem), list(cycle), holds))
        return holds

    monkeypatch.setattr(observers, "run_lasso_program", recording)
    model, patterns = model_and_patterns(name, request)
    horizon = 3 * max(c for p in patterns for c in pattern_constants(p) if c is not None)
    traces = [simulate(model, Fraction(horizon), seed) for seed in range(20)]
    fails = 0
    for p in patterns:
        inst = compose(model, synthesize(p))
        ba = ltl_to_buchi(LNot(inst.formula))
        assert inst.atoms == ba.atoms, p
        for seed, trace in enumerate(traces):
            runs.clear()
            replay_instrumented(inst, trace)
            ((stem, cycle, holds),) = runs
            assert buchi_accepts(ba, stem, cycle) == (not holds), (p, seed)
            fails += not holds
    assert 0 < fails < len(patterns) * len(traces)
