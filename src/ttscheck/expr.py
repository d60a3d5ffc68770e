"""Expression language shared by guards, actions and event predicates.

Atoms are bare identifiers resolved against the declaring model: boolean or
bounded-integer variables, places (meaning "place holds a token") and, in
predicate position only, transition names.  Operators: `!`, `&`, `|`,
comparisons (`=`, `!=`, `<`, `<=`, `>`, `>=`) and integer `+`/`-`.
Actions are `;`-separated assignments, optionally guarded with
`if <cond> then <assign>`.  An `&` or `|` chain is one n-ary `Chain` node,
which every walker reads with one loop, so its length is not limited by
recursion.  `eval_expr` is the one evaluator: guards, actions, and the
LTL atoms read off graph steps and replayed runs all go through it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Optional, Union

from .records import record

Value = Union[bool, int]


class ExprError(ValueError):
    """Raised on syntax or scoping errors, with a human-readable position."""


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+|\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<=|>=|!=|=>|<|>|=|\+|-|!|&|\||\(|\)|\[|\]|\{|\}|,|;)
    """,
    re.VERBOSE,
)


class Token:
    """A token: its kind, "num" | "name" | "op" | "end", its text and its
    0-based column."""

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind, self.text, self.pos = kind, text, pos


def tokenize(text: str) -> list[Token]:
    """Split text into tokens.  A name is the longest run that
    `str.isidentifier` accepts, non-ASCII letters included; the pattern
    above finds its ASCII start, and the loop below extends it."""
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None and not text[i].isidentifier():
            raise ExprError(f"unexpected character {text[i]!r} at column {i + 1}")
        if m is None or m.lastgroup == "name":
            j = m.end() if m else i + 1
            while j < len(text) and ("_" + text[j]).isidentifier():
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST

@record
class Lit:
    value: Value


@record
class Name:
    ident: str


@record
class Unary:
    op: str  # "!" | "-"
    operand: "Expr"


@record
class Binary:
    op: str  # "=", "!=", "<", "<=", ">", ">=", "+", "-"
    left: "Expr"
    right: "Expr"


@record
class Chain:
    """An `&` or `|` chain of two or more operands, left to right.  A
    parenthesized chain of the same operator stays one operand."""

    op: str  # "&" | "|"
    operands: tuple


Expr = Union[Lit, Name, Unary, Binary, Chain]


def chain(op: str, operands) -> Expr:
    """`operands` joined by `op`; a single operand stands alone."""
    operands = tuple(operands)
    return operands[0] if len(operands) == 1 else Chain(op, operands)


@record
class Assign:
    """`target := expr`, optionally guarded by `cond` (None = unconditional)."""

    target: str
    expr: Expr
    cond: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Parser (precedence climbing: | < & < ! < comparison < additive < atom)

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ExprError(f"expected {text!r} but found {tok.text!r} at column {tok.pos + 1}")
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def expect_end(self) -> None:
        if not self.at_end():
            tok = self.peek()
            raise ExprError(f"trailing input {tok.text!r} at column {tok.pos + 1}")

    # expression grammar ----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        operands = [self.parse_and()]
        while self.peek().text == "|":
            self.next()
            operands.append(self.parse_and())
        return chain("|", operands)

    def parse_and(self) -> Expr:
        operands = [self.parse_not()]
        while self.peek().text == "&":
            self.next()
            operands.append(self.parse_not())
        return chain("&", operands)

    def parse_not(self) -> Expr:
        if self.peek().text == "!":
            self.next()
            return Unary("!", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        if self.peek().text in ("=", "!=", "<", "<=", ">", ">="):
            op = self.next().text
            return Binary(op, left, self.parse_add())
        return left

    def parse_add(self) -> Expr:
        left = self.parse_atom()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            left = Binary(op, left, self.parse_atom())
        return left

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.text == "-":
            self.next()
            return Unary("-", self.parse_atom())
        if tok.kind == "num":
            self.next()
            if "/" in tok.text or "." in tok.text:
                raise ExprError(f"non-integer literal {tok.text!r} not allowed in expressions")
            return Lit(int(tok.text))
        if tok.kind == "name":
            self.next()
            if tok.text == "true":
                return Lit(True)
            if tok.text == "false":
                return Lit(False)
            return Name(tok.text)
        raise ExprError(f"unexpected token {tok.text!r} at column {tok.pos + 1}")

    # actions ---------------------------------------------------------------

    def parse_assign(self) -> Assign:
        cond = None
        if self.peek().text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("then")
        target = self.next()
        if target.kind != "name":
            raise ExprError(f"expected assignment target, found {target.text!r}")
        self.expect(":=")
        return Assign(target.text, self.parse_expr(), cond)

    def parse_actions(self) -> tuple[Assign, ...]:
        """Assignments up to the end or a `}`; a trailing `;` is allowed."""
        out: list[Assign] = []
        while not (self.at_end() or self.peek().text == "}"):
            out.append(self.parse_assign())
            if self.peek().text != ";":
                break
            self.next()
        return tuple(out)


def parse_expr(text: str) -> Expr:
    p = _Parser(tokenize(text))
    e = p.parse_expr()
    p.expect_end()
    return e


def parse_actions(text: str) -> tuple[Assign, ...]:
    p = _Parser(tokenize(text))
    acts = p.parse_actions()
    p.expect_end()
    return acts


# ---------------------------------------------------------------------------
# Evaluation

_BINARY = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub}


def eval_expr(e: Expr, marking: dict, store: dict,
              transition: Optional[str] = None) -> Value:
    """Value of `e` in a marking and a store.

    A name is read from the store first, then as "the place holds a token";
    any other name is a transition atom, true iff it is `transition`, the
    fired transition's name when an event predicate is read (guards and
    actions pass none, and never mention transitions).
    """
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Name):
        if e.ident in store:
            return store[e.ident]
        if e.ident in marking:
            return marking[e.ident] >= 1
        return transition is not None and e.ident == transition
    if isinstance(e, Unary):
        v = eval_expr(e.operand, marking, store, transition)
        return (not v) if e.op == "!" else -v
    if isinstance(e, Chain):
        if e.op == "&":
            for x in e.operands:
                if not eval_expr(x, marking, store, transition):
                    return False
            return True
        for x in e.operands:
            if eval_expr(x, marking, store, transition):
                return True
        return False
    if isinstance(e, Binary):
        return _BINARY[e.op](eval_expr(e.left, marking, store, transition),
                             eval_expr(e.right, marking, store, transition))
    raise AssertionError(f"unhandled expression node {e!r}")


def free_names(e: Expr) -> set[str]:
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Name):
        return {e.ident}
    if isinstance(e, Unary):
        return free_names(e.operand)
    if isinstance(e, Chain):
        return set().union(*map(free_names, e.operands))
    if isinstance(e, Binary):
        return free_names(e.left) | free_names(e.right)
    raise AssertionError(f"unhandled expression node {e!r}")


# ---------------------------------------------------------------------------
# Pretty printing (used by model/pattern serializers and diagnostics)

_PREC = {"|": 1, "&": 2, "!": 3, "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
         "+": 5, "-": 5}


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        if e.value is True:
            return "true"
        if e.value is False:
            return "false"
        return str(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Unary):
        # `!` binds looser than a comparison, unary `-` tighter than anything
        prec = _PREC["!"] if e.op == "!" else _PREC["-"] + 1
        text = e.op + format_expr(e.operand, prec)
    elif isinstance(e, Chain):
        # the first operand at the operator's precedence and the rest one
        # level above: `(a | b) | c` prints `a | b | c`, `a | (b | c)` keeps
        # its parentheses
        prec = _PREC[e.op]
        first, *rest = e.operands
        text = f" {e.op} ".join([format_expr(first, prec)]
                                + [format_expr(x, prec + 1) for x in rest])
    elif isinstance(e, Binary):
        # `+`/`-` associate left; comparisons do not associate
        prec = _PREC[e.op]
        left = format_expr(e.left, prec if e.op in ("+", "-") else prec + 1)
        text = f"{left} {e.op} {format_expr(e.right, prec + 1)}"
    else:
        raise AssertionError(f"unhandled expression node {e!r}")
    return f"({text})" if prec < parent_prec else text


# ---------------------------------------------------------------------------
# Rational literals shared by interval/trace parsers

def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprError(f"bad rational literal {text!r}") from exc


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

