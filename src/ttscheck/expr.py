"""Expression language shared by guards, actions and event predicates.

Atoms are bare identifiers resolved against the declaring model: boolean or
bounded-integer variables, places (meaning "place holds a token") and, in
predicate position only, transition names.  Operators: `!`, `&`, `|`,
comparisons (`=`, `!=`, `<`, `<=`, `>`, `>=`) and integer `+`/`-`.
Actions are `;`-separated assignments, optionally guarded with
`if <cond> then <assign>`.  `eval_expr` walks an expression;
`compile_expr` turns one into a closure that returns the same value.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

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


class Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


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

@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str  # "!" | "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "|", "&", "=", "!=", "<", "<=", ">", ">=", "+", "-"
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Name, Unary, Binary]


@dataclass(frozen=True)
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
        left = self.parse_and()
        while self.peek().text == "|":
            self.next()
            left = Binary("|", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.peek().text == "&":
            self.next()
            left = Binary("&", left, self.parse_not())
        return left

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
    if isinstance(e, Binary):
        if e.op == "&":
            return (bool(eval_expr(e.left, marking, store, transition))
                    and bool(eval_expr(e.right, marking, store, transition)))
        if e.op == "|":
            return (bool(eval_expr(e.left, marking, store, transition))
                    or bool(eval_expr(e.right, marking, store, transition)))
        lv = eval_expr(e.left, marking, store, transition)
        rv = eval_expr(e.right, marking, store, transition)
        if e.op == "=":
            return lv == rv
        if e.op == "!=":
            return lv != rv
        if e.op == "<":
            return lv < rv
        if e.op == "<=":
            return lv <= rv
        if e.op == ">":
            return lv > rv
        if e.op == ">=":
            return lv >= rv
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
    raise AssertionError(f"unhandled expression node {e!r}")


_BINARY = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub}


def _operands(e: Binary) -> list:
    """The operands of the `&` or `|` chain rooted at `e`, left to right,
    gathered without recursion."""
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Binary) and x.op == e.op:
            stack.append(x.right)
            stack.append(x.left)
        else:
            out.append(x)
    return out


def compile_expr(e: Expr) -> Callable:
    """A closure `f(marking, store, transition)` that returns
    `eval_expr(e, marking, store, transition)`.

    A chain of `&` or of `|` becomes one loop over its operands, so a long
    chain neither compiles nor evaluates recursively.
    """
    if isinstance(e, Lit):
        value = e.value
        return lambda m, s, t: value
    if isinstance(e, Name):
        x = e.ident

        def name(m, s, t):
            if x in s:
                return s[x]
            if x in m:
                return m[x] >= 1
            return t == x
        return name
    if isinstance(e, Unary):
        f = compile_expr(e.operand)
        if e.op == "!":
            return lambda m, s, t: not f(m, s, t)
        return lambda m, s, t: -f(m, s, t)
    if isinstance(e, Binary) and e.op in ("&", "|"):
        fs = tuple(compile_expr(x) for x in _operands(e))
        if e.op == "&":
            def all_of(m, s, t):
                for f in fs:
                    if not f(m, s, t):
                        return False
                return True
            return all_of

        def any_of(m, s, t):
            for f in fs:
                if f(m, s, t):
                    return True
            return False
        return any_of
    if isinstance(e, Binary):
        op, left, right = _BINARY[e.op], compile_expr(e.left), compile_expr(e.right)
        return lambda m, s, t: op(left(m, s, t), right(m, s, t))
    raise AssertionError(f"unhandled expression node {e!r}")


def free_names(e: Expr) -> set[str]:
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Name):
        return {e.ident}
    if isinstance(e, Unary):
        return free_names(e.operand)
    if isinstance(e, Binary):
        return free_names(e.left) | free_names(e.right)
    raise AssertionError(f"unhandled expression node {e!r}")


def action_names(acts: tuple[Assign, ...]) -> tuple[set[str], set[str]]:
    """Return (read names, written names) of an action sequence."""
    read: set[str] = set()
    written: set[str] = set()
    for a in acts:
        read |= free_names(a.expr)
        if a.cond is not None:
            read |= free_names(a.cond)
        written.add(a.target)
    return read, written


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
        inner = format_expr(e.operand, _PREC.get("!", 3))
        text = f"{e.op}{inner}"
        return text
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        left = format_expr(e.left, prec)
        right = format_expr(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise AssertionError(f"unhandled expression node {e!r}")


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

