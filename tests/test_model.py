import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import guarded_nets, n_door_airlock, xcheck_catalog
from test_int_kernel import nets
from ttscheck.expr import parse_expr
from ttscheck.model import (
    Event,
    ExplorationError,
    Transition,
    TtsModel,
    enabled,
    eval_predicate,
    fire,
    is_enabled,
    parse_interval,
    parse_tts,
    step,
    validate_model,
)


# ---------------------------------------------------------------------------
# intervals

def test_interval_parse_brackets():
    iv = parse_interval("]0,4]")
    assert iv.lower.strict and not iv.upper.strict
    assert not iv.contains(Fraction(0))
    assert iv.contains(Fraction(4))
    iv2 = parse_interval("[0,4[")
    assert iv2.contains(Fraction(0)) and not iv2.contains(Fraction(4))
    iv3 = parse_interval("[2,oo[")
    assert iv3.upper.is_infinite and iv3.contains(Fraction(1000))


def test_interval_rejects_empty():
    from ttscheck.model import ModelError

    with pytest.raises(ModelError):
        parse_interval("[4,2]")
    with pytest.raises(ModelError):
        parse_interval("]3,3]")


# ---------------------------------------------------------------------------
# validation

def test_airlock_is_valid(airlock):
    assert validate_model(airlock) == []


def test_reflexive_priority_diagnosed():
    m = TtsModel("m", {}, {}, {"t": Transition("t")}, (("t", "t"),))
    diags = validate_model(m)
    assert any("reflexive" in d.message for d in diags)


def test_undeclared_guard_variable_diagnosed():
    m = TtsModel("m", {}, {}, {"t": Transition("t", guard=parse_expr("x"))}, ())
    diags = validate_model(m)
    assert any("x" in d.message for d in diags)


def test_cyclic_priority_diagnosed():
    ts = {n: Transition(n) for n in ("a", "b")}
    m = TtsModel("m", {}, {}, ts, (("a", "b"), ("b", "a")))
    assert [str(d) for d in validate_model(m)] == ["a: cyclic priority relation"]


def _priority_chain(pairs: int) -> str:
    """`prio T0 > T1` ... declared top-down, every transition consuming its
    own empty place."""
    n = pairs + 1
    lines = ["places " + " ".join(f"P{i}" for i in range(n))]
    lines += [f"trans T{i} consume {{P{i}}}" for i in range(n)]
    lines += [f"prio T{i} > T{i + 1}" for i in range(pairs)]
    return "\n".join(lines) + "\n"


def test_priority_chain_longer_than_recursion_limit():
    m = parse_tts(_priority_chain(1500))
    assert len(m.priority) == 1500 and validate_model(m) == []
    cyclic = TtsModel("m", m.places, m.vars, m.transitions,
                      m.priority + (("T1500", "T0"),))
    assert [str(d) for d in validate_model(cyclic)] == ["T0: cyclic priority relation"]


def test_section_keywords_split_at_any_whitespace():
    lines = ["places P=1 Q", "vars x=true", "trans t in [1,2] consume {P} produce {Q}",
             "trans u consume {Q}", "prio t > u"]
    spaced = parse_tts("\n".join(lines) + "\n")
    tabbed = parse_tts("\n".join(line.replace(" ", "\t", 1) for line in lines) + "\n")
    for field in ("places", "vars", "transitions", "priority"):
        assert getattr(tabbed, field) == getattr(spaced, field)
    assert list(tabbed.places) == ["P", "Q"] and tabbed.priority == (("t", "u"),)


# ---------------------------------------------------------------------------
# enabledness

def test_airlock_initial_enabled(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    assert enabled(airlock, mk, st) == {"Button1", "Button2", "Shutdown"}


def test_guard_disables_button(airlock):
    mk = airlock.initial_marking()
    st = dict(airlock.initial_store(), req2=True)
    assert "Button2" not in enabled(airlock, mk, st)


def test_empty_marking_disables_arc_transitions(airlock):
    mk = {p: 0 for p in airlock.places}
    st = airlock.initial_store()
    assert "Shutdown" not in enabled(airlock, mk, st)
    assert "Open1" not in enabled(airlock, mk, st)


# ---------------------------------------------------------------------------
# firing

def test_fire_button_sets_request(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    mk2, st2 = fire(airlock, mk, st, "Button1")
    assert st2["req1"] is True and mk2 == mk
    assert st["req1"] is False  # the pre-state's store is left as it was


def test_fire_open_moves_token(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    _, st = fire(airlock, mk, st, "Button1")
    mk2, st2 = fire(airlock, mk, st, "Open1")
    assert mk2["Idle"] == 0 and mk2["D1isOpen"] == 1


def test_conditional_action_noop():
    m = parse_tts("""
vars flag=false found=false
trans t act {if flag then found := true}
""")
    mk, st = m.initial_marking(), m.initial_store()
    _, st2 = fire(m, mk, st, "t")
    assert st2["found"] is False


def test_fire_disabled_is_error(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    with pytest.raises(ExplorationError):
        fire(airlock, mk, st, "Open1")


def test_capacity_overflow_is_error():
    m = parse_tts("places P=1\ntrans t produce {P}\n")
    mk, st = m.initial_marking(), m.initial_store()
    with pytest.raises(ExplorationError):
        fire(m, mk, st, "t")


def test_range_overflow_is_error():
    m = parse_tts("vars x:0..2=2\ntrans t act {x := x + 1}\n")
    mk, st = m.initial_marking(), m.initial_store()
    with pytest.raises(ExplorationError):
        fire(m, mk, st, "t")


# ---------------------------------------------------------------------------
# step: firing plus newly enabled (intermediate-marking semantics)

def ref_step(model, marking, store, name):
    """Reference for `step`: fire, then test every transition of the net
    against the post-state, the pre-state and the intermediate state, then
    recompute the post-state's enabled set from scratch."""
    new_marking, new_store = fire(model, marking, store, name)
    mid_marking = dict(marking)
    for p in model.transitions[name].pre:
        mid_marking[p] -= 1
    fresh = set()
    for u in model.transitions.values():
        if not is_enabled(model, u, new_marking, new_store):
            continue
        if (u.name == name or not is_enabled(model, u, marking, store)
                or not is_enabled(model, u, mid_marking, store)):
            fresh.add(u.name)
    return new_marking, new_store, enabled(model, new_marking, new_store), fresh


def test_open_newly_enables_close(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    _, st = fire(airlock, mk, st, "Button1")
    fresh = step(airlock, mk, st, "Open1", enabled(airlock, mk, st))[3]
    assert "Close1" in fresh


def test_guard_flip_counts_as_newly_enabled(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    fresh = step(airlock, mk, st, "Button1", enabled(airlock, mk, st))[3]
    assert "Open1" in fresh  # guard req1 flipped false -> true
    assert "Shutdown" not in fresh  # guard flipped true -> false: disabled


def test_unchanged_enabled_set_is_not_fresh():
    m = parse_tts("""
places P=1
vars x:0..5=0
trans bump read {P} in [1,1] act {x := x + 1}
trans other pre {x >= 0} in [0,oo[
""")
    mk, st = m.initial_marking(), m.initial_store()
    _, _, now_enabled, fresh = step(m, mk, st, "bump", enabled(m, mk, st))
    assert "other" not in fresh
    assert "bump" in fresh  # the fired transition itself restarts
    assert now_enabled == {"bump", "other"}


def assert_step_matches_reference(model, choices):
    """Walk the net, picking each firing among the enabled transitions by
    `choices`, and compare `step` with `ref_step` at every firing."""
    mk, st = model.initial_marking(), model.initial_store()
    for c in choices:
        live = enabled(model, mk, st)
        if not live:
            break
        name = sorted(live)[c % len(live)]
        got = step(model, mk, st, name, live)
        assert got == ref_step(model, mk, st, name), name
        assert got[3] <= got[2]
        mk, st = got[0], got[1]


@settings(max_examples=80, deadline=None)
@given(nets(), st.lists(st.integers(0, 20), max_size=12))
def test_step_matches_reference_on_random_nets(text, choices):
    assert_step_matches_reference(parse_tts(text), choices)


@settings(max_examples=80, deadline=None)
@given(guarded_nets(), st.lists(st.integers(0, 20), max_size=12))
def test_step_matches_reference_on_guarded_nets(text, choices):
    assert_step_matches_reference(parse_tts(text), choices)


@settings(max_examples=80, deadline=None)
@given(guarded_nets(), st.lists(st.integers(0, 20), max_size=12), st.data())
def test_step_among_is_a_restriction_of_the_full_step(text, choices, data):
    # along a random walk, for a random subset S at every state: enabledness
    # and `step` restricted to S read the full results restricted to S
    model = parse_tts(text)
    names = sorted(model.transitions)
    mk, st_ = model.initial_marking(), model.initial_store()
    for c in choices:
        live = enabled(model, mk, st_)
        among = data.draw(st.sets(st.sampled_from(names)))
        assert enabled(model, mk, st_, among) == live & among
        for name in names:
            if name not in live:
                with pytest.raises(ExplorationError, match="fired while disabled"):
                    step(model, mk, st_, name, live & among, among)
        if not live:
            break
        name = sorted(live)[c % len(live)]
        full = step(model, mk, st_, name, live)
        got = step(model, mk, st_, name, live & among, among)
        assert got[:2] == full[:2]
        assert (got[2], got[3]) == (full[2] & among, full[3] & among)
        mk, st_ = full[0], full[1]


def test_guard_on_consumed_place_is_fresh_after_firing():
    # u reads !P: disabled before t, enabled once t has taken P's token
    m = parse_tts("places P=1 Q\ntrans t in [1,1] consume {P} produce {Q}\n"
                  "trans u in [2,3] pre {!P}\n")
    mk, st = m.initial_marking(), m.initial_store()
    assert enabled(m, mk, st) == {"t"}
    assert step(m, mk, st, "t", {"t"})[3] == {"u"}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=20))
def test_step_matches_reference_with_guards_and_actions(choices):
    assert_step_matches_reference(n_door_airlock(3), choices)


def assert_dependents_cover(model, max_states: int) -> None:
    """Over the untimed reachable states, breadth-first up to `max_states`:
    for every enabled t, each transition outside `dependents[t]` is enabled
    before t fires, in its intermediate marking and after it alike."""
    def key(m, s):
        return tuple(sorted((p, n) for p, n in m.items() if n)), tuple(sorted(s.items()))

    start = (model.initial_marking(), model.initial_store())
    seen = {key(*start)}
    queue = [start]
    while queue and len(seen) <= max_states:
        mk, st_ = queue.pop(0)
        for name in sorted(enabled(model, mk, st_)):
            try:
                after = fire(model, mk, st_, name)
            except ExplorationError:
                continue
            mid = dict(mk)
            for p in model.transitions[name].pre:
                mid[p] -= 1
            for u, t in model.transitions.items():
                if u not in model.dependents[name]:
                    states = ((mk, st_), (mid, st_), after)
                    assert len({is_enabled(model, t, m, s) for m, s in states}) == 1, \
                        (model.name, name, u, mk, st_)
            if key(*after) not in seen:
                seen.add(key(*after))
                queue.append(after)


@settings(max_examples=80, deadline=None)
@given(guarded_nets())
def test_dependents_cover_every_enabledness_change_on_guarded_nets(text):
    assert_dependents_cover(parse_tts(text), 300)


def test_dependents_cover_every_enabledness_change_on_composed_catalogs(airlock, relay, chain):
    from ttscheck.observers import compose, synthesize
    from ttscheck.patterns import parse_pattern

    for model in (airlock, relay, chain):
        cat = xcheck_catalog(model.name)
        for text in cat + [f"({cat[2]}) and ({cat[4]})", f"({cat[6]}) => ({cat[0]})"]:
            assert_dependents_cover(compose(model, synthesize(parse_pattern(text))).model, 300)


# ---------------------------------------------------------------------------
# event predicates

def test_predicate_on_transition_name(airlock):
    p = parse_expr("Open1 | Open2")
    assert eval_predicate(p, Event("Open2", {}, {}))
    assert not eval_predicate(p, Event("Close1", {}, {}))


def test_predicate_mixing_name_and_store(airlock):
    p = parse_expr("Open2 | req2")
    assert eval_predicate(p, Event("Button2", {}, {"req2": True}))
    assert not eval_predicate(p, Event("Button1", {}, {"req2": False}))


def test_predicate_all_false():
    p = parse_expr("Open1 | flagged")
    assert not eval_predicate(p, Event("Tick", {}, {"flagged": False}))


def test_predicate_boolean_distribution():
    rng = random.Random(7)
    names = ["a", "b", "c"]
    for _ in range(200):
        ev = Event(rng.choice(names), {"P": rng.randint(0, 1)},
                   {"x": rng.choice([True, False])})
        for left, right in (("a", "x"), ("P", "b"), ("x", "P")):
            both_or = eval_predicate(parse_expr(f"{left} | {right}"), ev)
            assert both_or == (eval_predicate(parse_expr(left), ev)
                               or eval_predicate(parse_expr(right), ev))
            both_and = eval_predicate(parse_expr(f"{left} & {right}"), ev)
            assert both_and == (eval_predicate(parse_expr(left), ev)
                                and eval_predicate(parse_expr(right), ev))
            neg = eval_predicate(parse_expr(f"!({left})"), ev)
            assert neg == (not eval_predicate(parse_expr(left), ev))


def test_token_conservation_on_move_transitions(airlock):
    mk, st = airlock.initial_marking(), airlock.initial_store()
    _, st = fire(airlock, mk, st, "Button1")
    mk2, st2 = fire(airlock, mk, st, "Open1")
    assert sum(mk.values()) == sum(mk2.values())


def test_enabled_monotone_in_tokens_for_guard_free():
    m = parse_tts("places P Q\ntrans t consume {P,Q}\n")
    st = m.initial_store()
    low = {"P": 1, "Q": 0}
    high = {"P": 1, "Q": 1}
    assert "t" not in enabled(m, low, st)
    assert "t" in enabled(m, high, st)
