import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttscheck.expr import (
    Assign,
    Binary,
    Chain,
    ExprError,
    Lit,
    Name,
    Unary,
    eval_expr,
    format_expr,
    free_names,
    parse_actions,
    parse_expr,
    tokenize,
)

from reference import format_actions


def test_parse_precedence():
    e = parse_expr("a | b & !c")
    assert isinstance(e, Chain) and e.op == "|"
    assert isinstance(e.operands[1], Chain) and e.operands[1].op == "&"
    assert isinstance(e.operands[1].operands[1], Unary)


def test_chains_are_n_ary_and_keep_explicit_parentheses():
    a, b, c = Name("a"), Name("b"), Name("c")
    assert parse_expr("a | b | c") == Chain("|", (a, b, c))
    assert parse_expr("(a | b) | c") == Chain("|", (Chain("|", (a, b)), c))
    assert parse_expr("a | (b | c)") == Chain("|", (a, Chain("|", (b, c))))
    assert parse_expr("a & b = c") == Chain("&", (a, Binary("=", b, c)))


@pytest.mark.parametrize("text, printed", [
    ("(a | b) | c", "a | b | c"),
    ("a | (b | c)", "a | (b | c)"),
    ("(a | b) & c", "(a | b) & c"),
    ("!(a & b)", "!(a & b)"),
    ("a & b = c", "a & b = c"),
    # unary operators and comparisons print what parses back to them
    ("-(a + b)", "-(a + b)"),
    ("-(!a)", "-(!a)"),
    ("(!a) = b", "(!a) = b"),
    ("a = (!b)", "a = (!b)"),
    ("(a = b) = c", "(a = b) = c"),
    ("a - (b - c) + -1", "a - (b - c) + -1"),
])
def test_format_expr_bytes(text, printed):
    assert format_expr(parse_expr(text)) == printed


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


@pytest.mark.parametrize("text, tokens", [
    ("Idle & (n >= 3/2) | !req1",
     [("name", "Idle", 0), ("op", "&", 5), ("op", "(", 7), ("name", "n", 8), ("op", ">=", 10),
      ("num", "3/2", 13), ("op", ")", 16), ("op", "|", 18), ("op", "!", 20),
      ("name", "req1", 21), ("end", "", 25)]),
    ("n := n - 1; if b then c := 0",
     [("name", "n", 0), ("op", ":=", 2), ("name", "n", 5), ("op", "-", 7), ("num", "1", 9),
      ("op", ";", 10), ("name", "if", 12), ("name", "b", 15), ("name", "then", 17),
      ("name", "c", 22), ("op", ":=", 24), ("num", "0", 27), ("end", "", 28)]),
    (" ]0, oo[ ", [("op", "]", 1), ("num", "0", 2), ("op", ",", 3), ("name", "oo", 5),
                   ("op", "[", 7), ("end", "", 9)]),
    ("Ölstand2 != 1.5", [("name", "Ölstand2", 0), ("op", "!=", 9), ("num", "1.5", 12),
                         ("end", "", 15)]),
    ("a=>b{c,d}", [("name", "a", 0), ("op", "=>", 1), ("name", "b", 3), ("op", "{", 4),
                   ("name", "c", 5), ("op", ",", 6), ("name", "d", 7), ("op", "}", 8),
                   ("end", "", 9)]),
])
def test_tokens_have_kind_text_and_column(text, tokens):
    assert [(t.kind, t.text, t.pos) for t in tokenize(text)] == tokens


@pytest.mark.parametrize("text, message", [
    ("a # b", "unexpected character '#' at column 3"),
    ("a ≤ b", "unexpected character '≤' at column 3"),
    ("x & (y", "expected ')' but found '' at column 7"),
    ("a b", "trailing input 'b' at column 3"),
])
def test_parse_errors_name_their_column(text, message):
    with pytest.raises(ExprError, match=f"^{re.escape(message)}$"):
        parse_expr(text)


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
# Random expressions and states

PLACES, VARS, TRANSITIONS = ("P", "Q", "R"), ("b", "n"), ("t", "u")


def expressions(names):
    """Random expression trees over `names`, literals, every unary and
    binary operator and `&`/`|` chains, mixing bools and ints as
    `eval_expr` allows."""
    leaves = st.one_of(st.sampled_from(names).map(Name),
                       st.sampled_from([True, False, 0, 1, 2, -1]).map(Lit))
    ops = ["=", "!=", "<", "<=", ">", ">=", "+", "-"]

    def extend(inner):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["!", "-"]), inner),
            st.builds(Binary, st.sampled_from(ops), inner, inner),
            st.builds(Chain, st.sampled_from(["&", "|"]),
                      st.lists(inner, min_size=2, max_size=5).map(tuple)))
    return st.recursive(leaves, extend, max_leaves=12)


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


@settings(max_examples=300, deadline=None)
@given(expressions(PLACES + VARS + TRANSITIONS), states(PLACES, VARS, TRANSITIONS))
def test_printing_is_stable_under_reparsing(e, state):
    text = format_expr(e)
    again = parse_expr(text)
    assert format_expr(again) == text
    assert eval_expr(again, *state) == eval_expr(e, *state), text


@pytest.mark.parametrize("op", ["|", "&"])
def test_long_chains_parse_print_and_evaluate_without_recursion(op):
    n = 1500
    e = parse_expr(f" {op} ".join(f"x{i}" for i in range(n)))
    assert e == Chain(op, tuple(Name(f"x{i}") for i in range(n)))
    assert free_names(e) == {f"x{i}" for i in range(n)}
    assert format_expr(e) == f" {op} ".join(f"x{i}" for i in range(n))
    # one operand differs from the rest: it decides the chain
    store = {f"x{i}": op == "&" for i in range(n)}
    assert eval_expr(e, {}, store) is (op == "&")
    store["x1234"] = op != "&"
    assert eval_expr(e, {}, store) is (op != "&")
