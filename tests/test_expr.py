import pytest

from ttscheck.expr import (
    Assign,
    Binary,
    ExprError,
    Lit,
    Name,
    Unary,
    eval_expr,
    format_expr,
    free_names,
    parse_actions,
    parse_expr,
)

from reference import format_actions


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
