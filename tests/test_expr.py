import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttscheck.expr import (
    Assign,
    Binary,
    ExprError,
    Lit,
    Name,
    Unary,
    compile_expr,
    eval_expr,
    format_expr,
    free_names,
    parse_actions,
    parse_expr,
)

from conftest import guarded_nets, n_door_airlock
from reference import format_actions
from ttscheck.model import parse_tts


def test_parse_precedence():
    e = parse_expr("a | b & !c")
    assert isinstance(e, Binary) and e.op == "|"
    assert isinstance(e.right, Binary) and e.right.op == "&"
    assert isinstance(e.right.right, Unary)


def test_parse_comparison_and_arith():
    e = parse_expr("x + 1 <= y - 2")
    assert isinstance(e, Binary) and e.op == "<="
    assert e.left.op == "+" and e.right.op == "-"


def test_literals():
    assert parse_expr("true") == Lit(True)
    assert parse_expr("false") == Lit(False)
    assert parse_expr("42") == Lit(42)


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expr("a &")
    with pytest.raises(ExprError):
        parse_expr("a ~ b")
    with pytest.raises(ExprError):
        parse_expr("(a | b")
    with pytest.raises(ExprError):
        parse_expr("3/2")  # rationals only appear in intervals, not expressions


def test_eval_with_marking_store_transition():
    state = ({"P": 1, "Q": 0}, {"x": 3, "flag": True}, "Fire")
    assert eval_expr(parse_expr("P & flag"), *state) is True
    assert eval_expr(parse_expr("Q"), *state) is False
    assert eval_expr(parse_expr("x = 3"), *state) is True
    assert eval_expr(parse_expr("Fire | Q"), *state) is True
    assert eval_expr(parse_expr("Other"), *state) is False
    # without a fired transition, a transition atom is false
    assert eval_expr(parse_expr("Fire"), *state[:2]) is False


def test_actions_parse_and_format_round_trip():
    acts = parse_actions("x := x + 1; if flag then y := false")
    assert acts == (
        Assign("x", Binary("+", Name("x"), Lit(1))),
        Assign("y", Lit(False), Name("flag")),
    )
    assert parse_actions(format_actions(acts)) == acts


def test_expr_format_round_trip():
    for text in ("a & (b | !c)", "x + 1 = 2", "!(a | b) & c", "a | b | c"):
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e


def test_free_names():
    assert free_names(parse_expr("a & (b | x + 1 > 2)")) == {"a", "b", "x"}


# ---------------------------------------------------------------------------
# compile_expr against eval_expr

PLACES, VARS, TRANSITIONS = ("P", "Q", "R"), ("b", "n"), ("t", "u")


def expressions(names):
    """Random expression trees over `names`, literals, every unary and
    binary operator, mixing bools and ints as `eval_expr` allows."""
    leaves = st.one_of(st.sampled_from(names).map(Name),
                       st.sampled_from([True, False, 0, 1, 2, -1]).map(Lit))
    ops = ["|", "&", "=", "!=", "<", "<=", ">", ">=", "+", "-"]

    def extend(inner):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["!", "-"]), inner),
            st.builds(Binary, st.sampled_from(ops), inner, inner),
            # chains of three or more operands, the looped form
            st.builds(lambda op, xs: _chain(op, xs), st.sampled_from(["&", "|"]),
                      st.lists(inner, min_size=3, max_size=5)))
    return st.recursive(leaves, extend, max_leaves=12)


def _chain(op, operands):
    e = operands[0]
    for x in operands[1:]:
        e = Binary(op, e, x)
    return e


@st.composite
def states(draw, places, variables, transitions):
    """A marking, possibly compact (zero places dropped), a store that binds
    some of `variables` to bools or ints, and a fired transition or None."""
    marking = {p: draw(st.integers(0, 2)) for p in places}
    if draw(st.booleans()):
        marking = {p: k for p, k in marking.items() if k}
    store = {v: draw(st.one_of(st.booleans(), st.integers(-2, 2)))
             for v in variables if draw(st.booleans())}
    return marking, store, draw(st.sampled_from((None,) + tuple(transitions)))


def assert_compiled_agrees(e, state):
    want = eval_expr(e, *state)
    got = compile_expr(e)(*state)
    assert (got, type(got)) == (want, type(want)), (format_expr(e), state)


@settings(max_examples=300, deadline=None)
@given(expressions(PLACES + VARS + TRANSITIONS), states(PLACES, VARS, TRANSITIONS))
def test_compiled_expressions_agree_with_eval_expr(e, state):
    assert_compiled_agrees(e, state)


@settings(max_examples=80, deadline=None)
@given(guarded_nets(), st.data())
def test_compiled_guards_and_predicates_of_guarded_nets_agree_with_eval_expr(text, data):
    model = parse_tts(text)
    places, names = sorted(model.places), sorted(model.transitions)
    exprs = [t.guard for t in model.transitions.values() if t.guard is not None]
    exprs.append(data.draw(expressions(tuple(places + names))))  # an event predicate
    for _ in range(5):
        state = data.draw(states(places, (), names))
        for e in exprs:
            assert_compiled_agrees(e, state)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compiled_guards_and_actions_of_the_models_agree_with_eval_expr(data):
    # int comparisons, `+`/`-` and conditional actions over declared stores
    relay = parse_tts("""
places Src=1 Mid
vars hot=false lvl:0..2=0
trans Load in [1,3] consume {Src} produce {Mid} act {hot := true}
trans Bump pre {hot & lvl < 2} in [0,2] read {Mid} act {lvl := lvl + 1}
trans Decay pre {lvl > 0} in [2,2] act {if lvl >= 1 then lvl := lvl - 1}
""")
    for model in (relay, n_door_airlock(3)):
        exprs = []
        for t in model.transitions.values():
            exprs += [t.guard] if t.guard is not None else []
            exprs += [x for a in t.action for x in (a.expr, a.cond) if x is not None]
        store = {v.name: data.draw(st.booleans() if v.kind == "bool" else
                                   st.integers(v.lo, v.hi))
                 for v in model.vars.values()}
        marking, _, transition = data.draw(states(sorted(model.places), (),
                                                  sorted(model.transitions)))
        for e in exprs:
            assert_compiled_agrees(e, (marking, store, transition))


@pytest.mark.parametrize("op", ["|", "&"])
def test_long_chains_compile_and_evaluate_without_recursion(op):
    n = 1500
    names = [Name(f"x{i}") for i in range(n)]
    left_deep = _chain(op, names)
    right_deep = names[-1]
    for x in reversed(names[:-1]):
        right_deep = Binary(op, x, right_deep)
    for e in (left_deep, right_deep):
        f = compile_expr(e)
        # one operand differs from the rest: it decides the chain
        store = {f"x{i}": op == "&" for i in range(n)}
        assert f({}, store, None) is (op == "&")
        store["x1234"] = op != "&"
        assert f({}, store, None) is (op != "&")
