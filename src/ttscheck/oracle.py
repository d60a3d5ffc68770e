"""Two executable trace-level semantics for every pattern, cross-checked.

`fott_holds` implements the first-order decomposition reading of each pattern
directly; `mtl_holds` evaluates the pattern's MTL form with a pointwise
finite-trace semantics.  MTL has one bounded search, `until`: `eventually_I g`
reads `true U_I g`, `always_I g` reads `not (true U_I not g)`, and a timed
`always_[0,d] g` over a state predicate reads `g and not (true U_[0,d[ not g)`
(below).  Both are three-valued:
`INCONCLUSIVE` marks prefixes too short to decide.  Untimed modalities get
the weak reading (the prefix is judged as if it were the complete behavior);
a timed window that is still open at the end of the prefix is inconclusive,
unless the trace ended in a deadlock, in which case no further event can
arrive and the window closes decisively.

Conventions shared by both semantics (sequence rendering of dense time):
  - positions are the trace's events plus a virtual start position at time 0;
  - event atoms are false at the start position; state atoms read the state
    reigning at a position (post-state of the event, or the recorded initial
    state; an absent initial state makes state atoms false there);
  - untimed until/weak-until quantify over witnesses j >= i with the left
    side holding on [i, j);
  - timed modalities quantify strictly in the future: witnesses j > i with
    the left side on (i, j), so an event never witnesses a window anchored
    on itself;
  - a timed `always` over a state predicate holds iff the predicate is true
    in every state reigning at some instant of the window, with the window's
    right endpoint excluded: a state change exactly at the endpoint does not
    interrupt the window.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional

from .expr import eval_expr
from .model import EventPredicate, TimeBound, TimeInterval, eval_predicate
from .patterns import (
    AbsentAfterInterval,
    AbsentBeforeDuration,
    AndPattern,
    BeforeScope,
    GlobalScope,
    ImpliesPattern,
    LeadstoFirstWithin,
    MAlways,
    MAnd,
    MAtom,
    MEventually,
    MImplies,
    MNot,
    MTrue,
    MUntil,
    MWeakUntil,
    MtlFormula,
    Pattern,
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
    to_mtl,
)
from .records import record
from .traces import TimedTrace


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@record(frozen=True)
class TraceVerdict:
    value: Verdict
    witness: Optional[str] = None

    @property
    def decisive(self) -> bool:
        return self.value is not Verdict.INCONCLUSIVE


def _holds(witness: Optional[str] = None) -> TraceVerdict:
    return TraceVerdict(Verdict.HOLDS, witness)


def _fails(witness: Optional[str] = None) -> TraceVerdict:
    return TraceVerdict(Verdict.FAILS, witness)


def _inconclusive(witness: Optional[str] = None) -> TraceVerdict:
    return TraceVerdict(Verdict.INCONCLUSIVE, witness)


# ---------------------------------------------------------------------------
# Positions of a trace, shared by both semantics: event i of `trace.timed` is
# position i, and position -1 is the start

def _time_at(s: TimedTrace, pos: int) -> Fraction:
    return s.timed[pos][0] if pos >= 0 else Fraction(0)


def _event_pred(s: TimedTrace, p: EventPredicate, pos: int) -> bool:
    """Event atoms are false at the start."""
    return pos >= 0 and eval_predicate(p, s.timed[pos][1])


def _state_pred(s: TimedTrace, p: EventPredicate, pos: int) -> bool:
    """State atoms read the state reigning at `pos`: the event's post-state,
    or at the start the initial state; an unknown initial state makes them
    false there."""
    if pos >= 0:
        e = s.timed[pos][1]
        return bool(eval_expr(p, e.marking, e.store))
    return s.initial is not None and bool(eval_expr(p, s.initial[0], s.initial[1]))


def _window_still_open(interval: TimeInterval, elapsed: Fraction) -> bool:
    """Can a future event at delay >= elapsed still land inside the window?"""
    up = interval.upper
    if up.is_infinite:
        return True
    if elapsed < up.value:
        return True
    return elapsed == up.value and not up.strict


# ---------------------------------------------------------------------------
# FOTT semantics, pattern by pattern

def fott_holds(p: Pattern, s: TimedTrace) -> TraceVerdict:
    """Decomposition semantics of a validated pattern on a normalized trace."""
    return _fott(p, s)


def _first_match(s: TimedTrace, pred: EventPredicate, start: int = 0,
                 stop: Optional[int] = None) -> Optional[int]:
    stop = len(s.timed) if stop is None else stop
    for i in range(start, stop):
        if _event_pred(s, pred, i):
            return i
    return None


def _fott(p: Pattern, s: TimedTrace) -> TraceVerdict:
    if isinstance(p, PresentAfterWithin):
        return _fott_present_after(p, s)
    if isinstance(p, PresentFirstBeforeWithin):
        return _fott_present_first_before(p, s)
    if isinstance(p, PresentLasting):
        return _fott_lasting(p, s)
    if isinstance(p, AbsentAfterInterval):
        return _fott_absent_after(p, s)
    if isinstance(p, AbsentBeforeDuration):
        return _fott_absent_before(p, s)
    if isinstance(p, LeadstoFirstWithin):
        return _fott_leadsto(p, s)
    if isinstance(p, AndPattern):
        return _and3(_fott(p.left, s), _fott(p.right, s))
    if isinstance(p, ImpliesPattern):
        return _implies3(_fott(p.left, s), _fott(p.right, s))
    raise AssertionError


def _and3(l: TraceVerdict, r: TraceVerdict) -> TraceVerdict:
    if Verdict.FAILS in (l.value, r.value):
        w = l.witness if l.value is Verdict.FAILS else r.witness
        return _fails(w)
    if Verdict.INCONCLUSIVE in (l.value, r.value):
        return _inconclusive()
    return _holds()


def _implies3(l: TraceVerdict, r: TraceVerdict) -> TraceVerdict:
    if l.value is Verdict.FAILS or r.value is Verdict.HOLDS:
        return _holds()
    if l.value is Verdict.HOLDS and r.value is Verdict.FAILS:
        return _fails(r.witness)
    return _inconclusive()


def _fott_present_after(p: PresentAfterWithin, s: TimedTrace) -> TraceVerdict:
    ib = _first_match(s, p.b)
    if ib is None:
        return _holds("no trigger occurrence")
    tb = _time_at(s, ib)
    for j in range(ib + 1, len(s.timed)):
        if _event_pred(s, p.a, j) and p.interval.contains(_time_at(s, j) - tb):
            return _holds(f"witness at {_time_at(s, j) - tb} after trigger")
    if s.deadlocked:
        return _fails("no witness before deadlock")
    if _window_still_open(p.interval, s.end - tb):
        return _inconclusive("window still open at end of prefix")
    return _fails("window elapsed without witness")


def _fott_present_first_before(p: PresentFirstBeforeWithin, s: TimedTrace) -> TraceVerdict:
    ib = _first_match(s, p.b)
    if ib is None:
        return _holds("no trigger occurrence")
    ia = _first_match(s, p.a, 0, ib)
    if ia is None:
        return _fails("trigger with no prior occurrence")
    delta = _time_at(s, ib) - _time_at(s, ia)
    if p.interval.contains(delta):
        return _holds(f"first occurrence {delta} before trigger")
    return _fails(f"separation {delta} outside window")


def _fott_lasting(p: PresentLasting, s: TimedTrace) -> TraceVerdict:
    first = None  # first position (start or event) whose state satisfies A
    positions = [-1] + list(range(len(s.timed)))
    for pos in positions:
        if _state_pred(s, p.a, pos):
            first = pos
            break
    if first is None:
        return _fails("condition never holds") if s.deadlocked \
            else _inconclusive("condition not yet observed")
    t0 = _time_at(s, first)
    for pos in range(max(first, -1) + 1, len(s.timed)):
        if not _state_pred(s, p.a, pos):
            stretch = _time_at(s, pos) - t0
            if stretch >= p.d:
                return _holds(f"held for {stretch}")
            return _fails(f"interrupted after {stretch}")
    stretch = s.end - t0
    if stretch >= p.d or s.deadlocked:
        return _holds(f"held for {stretch}{' (deadlock)' if s.deadlocked else ''}")
    return _inconclusive("still holding at end of prefix")


def _fott_absent_after(p: AbsentAfterInterval, s: TimedTrace) -> TraceVerdict:
    ib = _first_match(s, p.b)
    if ib is None:
        return _holds("no trigger occurrence")
    tb = _time_at(s, ib)
    for j in range(ib + 1, len(s.timed)):
        if _event_pred(s, p.a, j) and p.interval.contains(_time_at(s, j) - tb):
            return _fails(f"occurrence at {_time_at(s, j) - tb} after trigger")
    if s.deadlocked:
        return _holds("window empty before deadlock")
    if _window_still_open(p.interval, s.end - tb):
        return _inconclusive("window still open at end of prefix")
    return _holds("window elapsed without occurrence")


def _fott_absent_before(p: AbsentBeforeDuration, s: TimedTrace) -> TraceVerdict:
    ib = _first_match(s, p.b)
    if ib is None:
        return _holds("no trigger occurrence")
    tb = _time_at(s, ib)
    for j in range(ib):
        if _event_pred(s, p.a, j) and tb - _time_at(s, j) <= p.d:
            return _fails(f"occurrence {tb - _time_at(s, j)} before trigger")
    return _holds("no occurrence close before trigger")


def _fott_leadsto(p: LeadstoFirstWithin, s: TimedTrace) -> TraceVerdict:
    scope = p.scope
    n = len(s.timed)
    if isinstance(scope, GlobalScope):
        lo, hi, b_stop = 0, n, None
    elif isinstance(scope, BeforeScope):
        ir = _first_match(s, scope.r)
        if ir is None:
            return _holds("scope trigger never occurs")
        lo, hi, b_stop = 0, ir, ir
    else:  # after R
        ir = _first_match(s, scope.r)
        if ir is None:
            return _holds("scope trigger never occurs")
        lo, hi, b_stop = ir + 1, n, None

    saw_open = False
    for i in range(lo, hi):
        if not _event_pred(s, p.a, i):
            continue
        jb = _first_match(s, p.b, i + 1, b_stop)
        if jb is not None:
            delta = _time_at(s, jb) - _time_at(s, i)
            if not p.interval.contains(delta):
                return _fails(f"first response after {delta}")
            continue
        if b_stop is not None:
            return _fails("no response inside scope")
        if s.deadlocked:
            return _fails("no response before deadlock")
        if _window_still_open(p.interval, s.end - _time_at(s, i)):
            saw_open = True
            continue
        return _fails("response window elapsed")
    return _inconclusive("response window still open") if saw_open else _holds()


# ---------------------------------------------------------------------------
# MTL finite-trace semantics (three-valued Kleene logic; None = unknown)

def mtl_holds(f: MtlFormula, s: TimedTrace) -> TraceVerdict:
    v = _meval(f, s, -1)
    if v is True:
        return _holds()
    if v is False:
        return _fails()
    return _inconclusive()


def _not3(v):
    return None if v is None else (not v)


def _and3v(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3v(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _contains_state_atom(f: MtlFormula) -> bool:
    if isinstance(f, MAtom):
        return f.state
    if isinstance(f, MNot):
        return _contains_state_atom(f.f)
    if isinstance(f, (MAnd, MImplies, MUntil, MWeakUntil)):
        return _contains_state_atom(f.left) or _contains_state_atom(f.right)
    if isinstance(f, (MAlways, MEventually)):
        return _contains_state_atom(f.f)
    return False


def _meval(f: MtlFormula, s: TimedTrace, i: int):
    if isinstance(f, MTrue):
        return True
    if isinstance(f, MAtom):
        if f.state:
            return _state_pred(s, f.pred, i)
        return _event_pred(s, f.pred, i)
    if isinstance(f, MNot):
        return _not3(_meval(f.f, s, i))
    if isinstance(f, MAnd):
        return _and3v(_meval(f.left, s, i), _meval(f.right, s, i))
    if isinstance(f, MImplies):
        return _or3v(_not3(_meval(f.left, s, i)), _meval(f.right, s, i))
    if isinstance(f, MUntil):
        return _meval_until(f, s, i)
    if isinstance(f, MWeakUntil):
        u = _meval_until(MUntil(f.left, f.right), s, i)
        if u is True:
            return True
        return _or3v(u, _meval(MAlways(f.left), s, i))
    if isinstance(f, MAlways):
        if f.interval is not None and _contains_state_atom(f.f):
            # the anchor's own state, then every later one strictly before d:
            # a change exactly at d does not interrupt the window
            iv = f.interval
            assert iv.lower == TimeBound(Fraction(0)) and not iv.upper.is_infinite, \
                "state window must be [0,d] with d finite"
            before_d = TimeInterval(iv.lower, TimeBound(iv.upper.value, True))
            return _and3v(_meval(f.f, s, i), _not3(
                _meval_until(MUntil(MTrue(), MNot(f.f), before_d), s, i)))
        # always g == not (true U not g); a strict untimed window starts at i+1
        start = i + 1 if f.strict and f.interval is None else i
        return _not3(_meval_until(MUntil(MTrue(), MNot(f.f), f.interval), s, start))
    if isinstance(f, MEventually):
        return _meval_until(MUntil(MTrue(), f.f, f.interval), s, i)
    raise AssertionError


def _meval_until(f: MUntil, s: TimedTrace, i: int):
    timed = f.interval is not None
    n = len(s.timed)
    lhs = True  # running three-valued conjunction of left side at seen positions
    saw_unknown = False
    start = i + 1 if timed else i
    for j in range(start, n):
        if timed:
            delta = _time_at(s, j) - _time_at(s, i)
            if not _window_still_open(f.interval, delta):
                break
            in_window = f.interval.contains(delta)
        else:
            in_window = True
        if in_window:
            combined = _and3v(_meval(f.right, s, j), lhs)
            if combined is True:
                return True
            if combined is None:
                saw_unknown = True
        lhs = _and3v(lhs, _meval(f.left, s, j))
        if lhs is False:
            break  # no witness at or beyond the next position is possible
    if saw_unknown:
        return None
    if lhs is False:
        return False
    if not timed:
        return False  # weak reading: the prefix is the whole behavior
    if s.deadlocked:
        return False
    if not _window_still_open(f.interval, s.end - _time_at(s, i)):
        return False
    return None


# ---------------------------------------------------------------------------
# Cross-check

@record(frozen=True)
class CrossReport:
    pattern: str
    fott: TraceVerdict
    mtl: TraceVerdict

    @property
    def disagree(self) -> bool:
        return (self.fott.decisive and self.mtl.decisive
                and self.fott.value is not self.mtl.value)


def cross_check(p: Pattern, s: TimedTrace) -> CrossReport:
    """Confront the two semantics on one trace; they must agree whenever
    neither is inconclusive."""
    from .patterns import format_pattern

    return CrossReport(format_pattern(p), fott_holds(p, s), mtl_holds(to_mtl(p), s))
