"""Requirement pattern DSL: AST, concrete syntax, validation, MTL form.

Catalog: presence (`present .. after .. within`, `present first .. before ..
within`, `present .. lasting`), absence (`absent .. after .. for interval`,
`absent .. before .. for duration`) and response (`.. leadsto first .. within`,
optionally scoped `before R` / `after R`), closed under `and` / `=>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .expr import ExprError, Token, _Parser, format_expr, format_rational, parse_rational, tokenize
from .model import (
    Diagnostic,
    EventPredicate,
    ModelError,
    TimeInterval,
    TtsModel,
    check_predicate,
    parse_interval,
    predicate_is_state_only,
)


class PatternError(ValueError):
    """Pattern syntax error."""


# ---------------------------------------------------------------------------
# Scopes and pattern AST

@dataclass(frozen=True)
class GlobalScope:
    pass


@dataclass(frozen=True)
class BeforeScope:
    r: EventPredicate


@dataclass(frozen=True)
class AfterScope:
    r: EventPredicate


Scope = Union[GlobalScope, BeforeScope, AfterScope]


@dataclass(frozen=True)
class PresentAfterWithin:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval


@dataclass(frozen=True)
class PresentFirstBeforeWithin:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval


@dataclass(frozen=True)
class PresentLasting:
    a: EventPredicate  # must be a state predicate
    d: Fraction


@dataclass(frozen=True)
class AbsentAfterInterval:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval


@dataclass(frozen=True)
class AbsentBeforeDuration:
    a: EventPredicate
    b: EventPredicate
    d: Fraction


@dataclass(frozen=True)
class LeadstoFirstWithin:
    a: EventPredicate
    b: EventPredicate
    interval: TimeInterval
    scope: Scope = GlobalScope()


@dataclass(frozen=True)
class AndPattern:
    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True)
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

# `between` and `until` name no scope, but they still end a predicate, so a
# scope written with them is trailing input rather than part of a predicate
_KEYWORDS = {
    "present", "absent", "first", "after", "before", "within", "lasting",
    "for", "interval", "duration", "leadsto", "and", "between", "until",
}


class _PatternParser(_Parser):
    def peek_text(self) -> str:
        return self.peek().text

    def take_keyword(self, *words: str) -> None:
        for w in words:
            tok = self.next()
            if tok.text != w:
                raise PatternError(
                    f"expected {w!r} but found {tok.text!r} at column {tok.pos + 1}")

    def at_keyword(self, *words: str) -> bool:
        return self.peek().kind == "name" and self.peek().text in words

    # predicates end where a keyword or composite operator appears at depth 0
    def parse_predicate(self) -> EventPredicate:
        start = self.i
        depth = 0
        j = self.i
        while True:
            tok = self.tokens[j]
            if tok.kind == "end":
                break
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and ((tok.kind == "name" and tok.text in _KEYWORDS)
                                 or tok.text == "=>"):
                break
            j += 1
        if j == start:
            tok = self.peek()
            raise PatternError(f"expected a predicate at column {tok.pos + 1}")
        sub = _PatternParser(self.tokens[start:j] + [Token("end", "", self.tokens[j].pos)])
        try:
            pred = sub.parse_expr()
        except ExprError as exc:
            raise PatternError(str(exc)) from exc
        if not sub.at_end():
            tok = sub.peek()
            raise PatternError(f"unexpected {tok.text!r} in predicate at column {tok.pos + 1}")
        self.i = j
        return pred

    def parse_interval_tok(self) -> TimeInterval:
        tok = self.peek()
        if tok.text not in ("[", "]"):
            raise PatternError(f"expected an interval at column {tok.pos + 1}")
        text = ""
        while True:
            tok = self.next()
            if tok.kind == "end":
                raise PatternError("unterminated interval")
            text += tok.text
            if tok.text in ("[", "]") and len(text) > 1:
                break
        # `oo` arrives as a name token inside the interval text
        try:
            return parse_interval(text)
        except ModelError as exc:
            raise PatternError(str(exc)) from exc

    def parse_rational_tok(self) -> Fraction:
        tok = self.next()
        if tok.kind != "num":
            raise PatternError(f"expected a number at column {tok.pos + 1}")
        try:
            return parse_rational(tok.text)
        except ExprError as exc:
            raise PatternError(f"{exc} at column {tok.pos + 1}") from exc

    # pattern grammar: implies > and > atom
    def parse_pattern(self) -> Pattern:
        left = self.parse_and_pattern()
        if self.peek_text() == "=>":
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
        if self.peek_text() == "(":
            save = self.i
            self.next()
            # parenthesized composite, unless it is a predicate's parenthesis
            try:
                inner = self.parse_pattern()
                self.expect(")")
                return inner
            except (PatternError, ExprError):
                self.i = save
        if self.at_keyword("present"):
            return self.parse_present()
        if self.at_keyword("absent"):
            return self.parse_absent()
        return self.parse_leadsto()

    def parse_present(self) -> Pattern:
        self.take_keyword("present")
        if self.at_keyword("first"):
            self.next()
            a = self.parse_predicate()
            self.take_keyword("before")
            b = self.parse_predicate()
            self.take_keyword("within")
            return PresentFirstBeforeWithin(a, b, self.parse_interval_tok())
        a = self.parse_predicate()
        if self.at_keyword("lasting"):
            self.next()
            return PresentLasting(a, self.parse_rational_tok())
        self.take_keyword("after")
        b = self.parse_predicate()
        self.take_keyword("within")
        return PresentAfterWithin(a, b, self.parse_interval_tok())

    def parse_absent(self) -> Pattern:
        self.take_keyword("absent")
        a = self.parse_predicate()
        kw = self.next()
        if kw.text == "after":
            b = self.parse_predicate()
            self.take_keyword("for", "interval")
            return AbsentAfterInterval(a, b, self.parse_interval_tok())
        if kw.text == "before":
            b = self.parse_predicate()
            self.take_keyword("for", "duration")
            return AbsentBeforeDuration(a, b, self.parse_rational_tok())
        raise PatternError(f"expected 'after' or 'before' at column {kw.pos + 1}")

    def parse_leadsto(self) -> Pattern:
        a = self.parse_predicate()
        self.take_keyword("leadsto", "first")
        b = self.parse_predicate()
        self.take_keyword("within")
        interval = self.parse_interval_tok()
        scope: Scope = GlobalScope()
        if self.at_keyword("before"):
            self.next()
            scope = BeforeScope(self.parse_predicate())
        elif self.at_keyword("after"):
            self.next()
            scope = AfterScope(self.parse_predicate())
        return LeadstoFirstWithin(a, b, interval, scope)


def parse_pattern(text: str) -> Pattern:
    try:
        p = _PatternParser(tokenize(text))
    except ExprError as exc:
        raise PatternError(str(exc)) from exc
    out = p.parse_pattern()
    if not p.at_end():
        tok = p.peek()
        raise PatternError(f"trailing input {tok.text!r} at column {tok.pos + 1}")
    return out


def parse_pattern_file(text: str) -> list:
    """One pattern per line; `#` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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
    from .expr import Binary

    if isinstance(e, Binary) and e.op in ("&", "|"):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Validation

def validate_pattern(p: Pattern, model: TtsModel) -> list:
    diags: list = []

    def pred(e: EventPredicate, where: str) -> None:
        diags.extend(check_predicate(e, model, where))

    if isinstance(p, PresentAfterWithin):
        pred(p.a, "present/A")
        pred(p.b, "present/B")
    elif isinstance(p, PresentFirstBeforeWithin):
        pred(p.a, "present first/A")
        pred(p.b, "present first/B")
    elif isinstance(p, PresentLasting):
        pred(p.a, "lasting/A")
        if not predicate_is_state_only(p.a, model):
            diags.append(Diagnostic(
                "lasting/A",
                "condition must be a state predicate: transitions are instantaneous"))
        if p.d < 0:
            diags.append(Diagnostic("lasting", "duration must be non-negative"))
    elif isinstance(p, AbsentAfterInterval):
        pred(p.a, "absent/A")
        pred(p.b, "absent/B")
    elif isinstance(p, AbsentBeforeDuration):
        pred(p.a, "absent/A")
        pred(p.b, "absent/B")
        if p.d < 0:
            diags.append(Diagnostic("absent", "duration must be non-negative"))
    elif isinstance(p, LeadstoFirstWithin):
        pred(p.a, "leadsto/A")
        pred(p.b, "leadsto/B")
        if not isinstance(p.scope, GlobalScope):
            pred(p.scope.r, "leadsto/R")
    elif isinstance(p, (AndPattern, ImpliesPattern)):
        diags.extend(validate_pattern(p.left, model))
        diags.extend(validate_pattern(p.right, model))
    else:
        raise AssertionError
    if hasattr(p, "interval"):
        err = p.interval.check()
        if err:
            diags.append(Diagnostic("interval", err))
    return diags


# ---------------------------------------------------------------------------
# MTL form

@dataclass(frozen=True)
class MAtom:
    pred: EventPredicate
    state: bool = False  # True: piecewise-constant state signal; False: event


@dataclass(frozen=True)
class MNot:
    f: "MtlFormula"


@dataclass(frozen=True)
class MAnd:
    left: "MtlFormula"
    right: "MtlFormula"


@dataclass(frozen=True)
class MImplies:
    left: "MtlFormula"
    right: "MtlFormula"


@dataclass(frozen=True)
class MUntil:
    left: "MtlFormula"
    right: "MtlFormula"
    interval: Optional[TimeInterval] = None  # timed untils quantify strictly-future


@dataclass(frozen=True)
class MWeakUntil:
    left: "MtlFormula"
    right: "MtlFormula"


@dataclass(frozen=True)
class MAlways:
    f: "MtlFormula"
    interval: Optional[TimeInterval] = None
    strict: bool = False  # untimed only: quantify strictly after the anchor


@dataclass(frozen=True)
class MEventually:
    f: "MtlFormula"
    interval: Optional[TimeInterval] = None


@dataclass(frozen=True)
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
    out: list = []
    if isinstance(p, (AndPattern, ImpliesPattern)):
        out += pattern_constants(p.left)
        out += pattern_constants(p.right)
        return out
    if isinstance(p, (PresentLasting, AbsentBeforeDuration)):
        return [p.d]
    iv = p.interval
    out.append(iv.lower.value)
    if not iv.upper.is_infinite:
        out.append(iv.upper.value)
    return out
