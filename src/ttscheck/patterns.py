"""Requirement pattern DSL: AST, concrete syntax, validation, MTL form.

Catalog: presence (`present .. after .. within`, `present first .. before ..
within`, `present .. lasting`), absence (`absent .. after .. for interval`,
`absent .. before .. for duration`) and response (`.. leadsto first .. within`,
optionally scoped `before R` / `after R`), closed under `and` / `=>`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .expr import Chain, ExprError, _Parser, format_expr, format_rational, parse_rational, tokenize
from .model import (
    Diagnostic,
    EventPredicate,
    TimeInterval,
    TtsModel,
    check_predicate,
    predicate_is_state_only,
    read_interval,
)
from .records import record


class PatternError(ValueError):
    """Pattern syntax error."""


# ---------------------------------------------------------------------------
# Scopes and pattern AST

@record
class GlobalScope:
    pass


@record
class BeforeScope:
    r: EventPredicate


@record
class AfterScope:
    r: EventPredicate


Scope = Union[GlobalScope, BeforeScope, AfterScope]


@record
class PresentAfterWithin:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval


@record
class PresentFirstBeforeWithin:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval


@record
class PresentLasting:
    a: EventPredicate  # must be a state predicate
    d: Fraction


@record
class AbsentAfterInterval:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval


@record
class AbsentBeforeDuration:
    a: EventPredicate
    b: EventPredicate
    d: Fraction


@record
class LeadstoFirstWithin:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval
    scope: Scope = GlobalScope()


@record
class AndPattern:
    left: "Pattern"
    right: "Pattern"


@record
class ImpliesPattern:
    left: "Pattern"
    right: "Pattern"


Pattern = Union[
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
    AbsentAfterInterval,
    AbsentBeforeDuration,
    LeadstoFirstWithin,
    AndPattern,
    ImpliesPattern,
]


# ---------------------------------------------------------------------------
# Concrete syntax

class _PatternParser(_Parser):
    """Predicates are read by `parse_expr`, which stops at the first token
    that continues no expression: a keyword, `=>` or `)`.  So a
    keyword can still name a variable where an operand is expected, and a
    scope written with `between` or `until` is trailing input."""

    def at_keyword(self, *words: str) -> bool:
        return self.peek().kind == "name" and self.peek().text in words

    def parse_rational_tok(self) -> Fraction:
        tok = self.next()
        if tok.kind != "num":
            raise ExprError(f"expected a number at column {tok.pos + 1}")
        try:
            return parse_rational(tok.text)
        except ExprError as exc:
            raise ExprError(f"{exc} at column {tok.pos + 1}") from exc

    # pattern grammar: implies > and > atom
    def parse_pattern(self) -> Pattern:
        left = self.parse_and_pattern()
        if self.peek().text == "=>":
            self.next()
            return ImpliesPattern(left, self.parse_pattern())
        return left

    def parse_and_pattern(self) -> Pattern:
        left = self.parse_atom_pattern()
        while self.at_keyword("and"):
            self.next()
            left = AndPattern(left, self.parse_atom_pattern())
        return left

    def parse_atom_pattern(self) -> Pattern:
        if self.peek().text == "(":
            save = self.i
            self.next()
            # parenthesized composite, unless it is a predicate's parenthesis
            try:
                inner = self.parse_pattern()
                self.expect(")")
                return inner
            except ExprError:
                self.i = save
        if self.at_keyword("present"):
            return self.parse_present()
        if self.at_keyword("absent"):
            return self.parse_absent()
        return self.parse_leadsto()

    def parse_present(self) -> Pattern:
        self.expect("present")
        if self.at_keyword("first"):
            self.next()
            a = self.parse_expr()
            self.expect("before")
            b = self.parse_expr()
            self.expect("within")
            return PresentFirstBeforeWithin(a, b, read_interval(self))
        a = self.parse_expr()
        if self.at_keyword("lasting"):
            self.next()
            return PresentLasting(a, self.parse_rational_tok())
        self.expect("after")
        b = self.parse_expr()
        self.expect("within")
        return PresentAfterWithin(a, b, read_interval(self))

    def parse_absent(self) -> Pattern:
        self.expect("absent")
        a = self.parse_expr()
        kw = self.next()
        if kw.text == "after":
            b = self.parse_expr()
            self.expect("for")
            self.expect("interval")
            return AbsentAfterInterval(a, b, read_interval(self))
        if kw.text == "before":
            b = self.parse_expr()
            self.expect("for")
            self.expect("duration")
            return AbsentBeforeDuration(a, b, self.parse_rational_tok())
        raise ExprError(f"expected 'after' or 'before' at column {kw.pos + 1}")

    def parse_leadsto(self) -> Pattern:
        a = self.parse_expr()
        self.expect("leadsto")
        self.expect("first")
        b = self.parse_expr()
        self.expect("within")
        interval = read_interval(self)
        scope: Scope = GlobalScope()
        if self.at_keyword("before"):
            self.next()
            scope = BeforeScope(self.parse_expr())
        elif self.at_keyword("after"):
            self.next()
            scope = AfterScope(self.parse_expr())
        return LeadstoFirstWithin(a, b, interval, scope)


def parse_pattern(text: str) -> Pattern:
    try:
        p = _PatternParser(tokenize(text))
        out = p.parse_pattern()
        p.expect_end()
    except ExprError as exc:
        raise PatternError(str(exc)) from exc
    return out


def parse_pattern_file(text: str) -> list:
    """One pattern per line; `#` comments.  Columns in errors count from the
    start of the line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            out.append(parse_pattern(line))
        except PatternError as exc:
            raise PatternError(f"line {lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Pretty printing (inverse of the parser, used by round-trip tests)

def format_pattern(p: Pattern) -> str:
    if isinstance(p, PresentAfterWithin):
        return (f"present {_pred(p.a)} after {_pred(p.b)} within {p.interval}")
    if isinstance(p, PresentFirstBeforeWithin):
        return (f"present first {_pred(p.a)} before {_pred(p.b)} within {p.interval}")
    if isinstance(p, PresentLasting):
        return f"present {_pred(p.a)} lasting {format_rational(p.d)}"
    if isinstance(p, AbsentAfterInterval):
        return (f"absent {_pred(p.a)} after {_pred(p.b)} for interval {p.interval}")
    if isinstance(p, AbsentBeforeDuration):
        return (f"absent {_pred(p.a)} before {_pred(p.b)} for duration {format_rational(p.d)}")
    if isinstance(p, LeadstoFirstWithin):
        base = f"{_pred(p.a)} leadsto first {_pred(p.b)} within {p.interval}"
        if isinstance(p.scope, BeforeScope):
            return f"{base} before {_pred(p.scope.r)}"
        if isinstance(p.scope, AfterScope):
            return f"{base} after {_pred(p.scope.r)}"
        return base
    if isinstance(p, AndPattern):
        return f"({format_pattern(p.left)}) and ({format_pattern(p.right)})"
    if isinstance(p, ImpliesPattern):
        return f"({format_pattern(p.left)}) => ({format_pattern(p.right)})"
    raise AssertionError


def _pred(e: EventPredicate) -> str:
    text = format_expr(e)
    return f"({text})" if isinstance(e, Chain) else text


# ---------------------------------------------------------------------------
# Validation

# Diagnostic label of each catalog pattern kind
_KIND_LABELS = {
    PresentAfterWithin: "present",
    PresentFirstBeforeWithin: "present first",
    PresentLasting: "lasting",
    AbsentAfterInterval: "absent",
    AbsentBeforeDuration: "absent",
    LeadstoFirstWithin: "leadsto",
}


def validate_pattern(p: Pattern, model: TtsModel) -> list:
    if isinstance(p, (AndPattern, ImpliesPattern)):
        return validate_pattern(p.left, model) + validate_pattern(p.right, model)
    label = _KIND_LABELS[type(p)]
    diags = check_predicate(p.a, model, f"{label}/A")
    if isinstance(p, PresentLasting):
        if not predicate_is_state_only(p.a, model):
            diags.append(Diagnostic(
                f"{label}/A",
                "condition must be a state predicate: transitions are instantaneous"))
    else:
        diags += check_predicate(p.b, model, f"{label}/B")
    if isinstance(p, LeadstoFirstWithin) and not isinstance(p.scope, GlobalScope):
        diags += check_predicate(p.scope.r, model, f"{label}/R")
    if hasattr(p, "d"):
        if p.d < 0:
            diags.append(Diagnostic(label, "duration must be non-negative"))
    else:
        err = p.interval.check()
        if err:
            diags.append(Diagnostic("interval", err))
    return diags


# ---------------------------------------------------------------------------
# MTL form

@record
class MAtom:
    pred: EventPredicate
    state: bool = False  # True: piecewise-constant state signal; False: event


@record
class MNot:
    f: "MtlFormula"


@record
class MAnd:
    left: "MtlFormula"
    right: "MtlFormula"


@record
class MImplies:
    left: "MtlFormula"
    right: "MtlFormula"


@record
class MUntil:
    left: "MtlFormula"
    right: "MtlFormula"
    interval: Optional[TimeInterval] = None  # timed untils quantify strictly-future


@record
class MWeakUntil:
    left: "MtlFormula"
    right: "MtlFormula"


@record
class MAlways:
    f: "MtlFormula"
    interval: Optional[TimeInterval] = None
    strict: bool = False  # untimed only: quantify strictly after the anchor


@record
class MEventually:
    f: "MtlFormula"
    interval: Optional[TimeInterval] = None


@record
class MTrue:
    pass


MtlFormula = Union[MAtom, MNot, MAnd, MImplies, MUntil, MWeakUntil,
                   MAlways, MEventually, MTrue]


def to_mtl(p: Pattern) -> MtlFormula:
    """The catalog's logical reading of each pattern."""
    if isinstance(p, PresentAfterWithin):
        a, b = MAtom(p.a), MAtom(p.b)
        return MWeakUntil(MNot(b), MAnd(b, MUntil(MTrue(), a, p.interval)))
    if isinstance(p, PresentFirstBeforeWithin):
        a, b = MAtom(p.a), MAtom(p.b)
        return MImplies(
            MEventually(b),
            MUntil(MAnd(MNot(a), MNot(b)),
                   MAnd(a, MAnd(MNot(b), MUntil(MNot(b), b, p.interval)))))
    if isinstance(p, PresentLasting):
        from .model import TimeBound

        a = MAtom(p.a, state=True)
        iv = TimeInterval(TimeBound(Fraction(0)), TimeBound(Fraction(p.d)))
        return MUntil(MNot(a), MAlways(a, iv))
    if isinstance(p, AbsentAfterInterval):
        a, b = MAtom(p.a), MAtom(p.b)
        return MWeakUntil(MNot(b), MAnd(b, MAlways(MNot(a), p.interval)))
    if isinstance(p, AbsentBeforeDuration):
        a, b = MAtom(p.a), MAtom(p.b)
        from .model import TimeBound

        iv = TimeInterval(TimeBound(Fraction(0)), TimeBound(Fraction(p.d)))
        return MImplies(MEventually(b),
                        MUntil(MImplies(a, MAlways(MNot(b), iv)), b))
    if isinstance(p, LeadstoFirstWithin):
        a, b = MAtom(p.a), MAtom(p.b)
        body = MImplies(a, MUntil(MNot(b), b, p.interval))
        if isinstance(p.scope, GlobalScope):
            return MAlways(body)
        r = MAtom(p.scope.r)
        if isinstance(p.scope, BeforeScope):
            scoped = MImplies(MAnd(a, MNot(r)),
                              MUntil(MAnd(MNot(b), MNot(r)), MAnd(b, MNot(r)), p.interval))
            return MImplies(MEventually(r), MUntil(scoped, r))
        # after R: obligations start strictly after the scope trigger itself
        return MAlways(MImplies(r, MAlways(body, strict=True)))
    if isinstance(p, AndPattern):
        return MAnd(to_mtl(p.left), to_mtl(p.right))
    if isinstance(p, ImpliesPattern):
        return MImplies(to_mtl(p.left), to_mtl(p.right))
    raise AssertionError


def pattern_constants(p: Pattern) -> list:
    """All timing constants, for horizon sizing in simulation campaigns."""
    if isinstance(p, (AndPattern, ImpliesPattern)):
        return pattern_constants(p.left) + pattern_constants(p.right)
    if hasattr(p, "d"):
        return [p.d]
    iv = p.interval
    return [iv.lower.value] + ([] if iv.upper.is_infinite else [iv.upper.value])
