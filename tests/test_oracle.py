import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from ttscheck.expr import parse_expr
from ttscheck.model import Event, parse_interval
from ttscheck.oracle import (
    Timeline,
    Verdict,
    _and3v,
    _contains_state_atom,
    _not3,
    _or3v,
    _window_still_open,
    cross_check,
    fott_holds,
    mtl_holds,
)
from ttscheck.patterns import (
    AbsentAfterInterval,
    AbsentBeforeDuration,
    AfterScope,
    BeforeScope,
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
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
    parse_pattern,
    to_mtl,
)
from ttscheck.traces import Duration, TimedTrace, simulate

A, B, R = parse_expr("a"), parse_expr("b"), parse_expr("r")

HOLDS, FAILS, INC = Verdict.HOLDS, Verdict.FAILS, Verdict.INCONCLUSIVE


def ev(name, **store):
    return Event(name, {}, store)


def tr(*items, dl=False, init=None):
    return TimedTrace.of(items, init if init is not None else ({}, {}), dl)


def both(p, t):
    return fott_holds(p, t).value, mtl_holds(to_mtl(p), t).value


# ---------------------------------------------------------------------------
# present A after B within I

def test_present_after_witness_in_window():
    p = PresentAfterWithin(A, B, parse_interval("[0,4]"))
    assert both(p, tr(ev("b"), Duration(F(3)), ev("a"))) == (HOLDS, HOLDS)


def test_present_after_vacuous_without_trigger():
    p = PresentAfterWithin(A, B, parse_interval("[0,4]"))
    assert both(p, tr(ev("c"), Duration(F(100)))) == (HOLDS, HOLDS)


def test_present_after_strict_lower_excludes_simultaneous():
    p = PresentAfterWithin(A, B, parse_interval("]0,4]"))
    assert both(p, tr(ev("b"), ev("a"), Duration(F(9)))) == (FAILS, FAILS)


def test_present_after_window_open_is_inconclusive():
    p = PresentAfterWithin(A, B, parse_interval("[0,4]"))
    t = tr(ev("b"), Duration(F(2)))
    assert fott_holds(p, t).value is INC
    assert mtl_holds(to_mtl(p), t).value is INC


def test_present_after_deadlock_decides():
    p = PresentAfterWithin(A, B, parse_interval("[0,4]"))
    assert both(p, tr(ev("b"), Duration(F(2)), dl=True)) == (FAILS, FAILS)


def test_present_after_boundary_bracket_flip():
    closed = PresentAfterWithin(A, B, parse_interval("[0,4]"))
    open_ = PresentAfterWithin(A, B, parse_interval("[0,4["))
    t = tr(ev("b"), Duration(F(4)), ev("a"), Duration(F(1)))
    assert both(closed, t) == (HOLDS, HOLDS)
    assert both(open_, t) == (FAILS, FAILS)


# ---------------------------------------------------------------------------
# present first A before B within I

def test_first_before_in_window():
    p = PresentFirstBeforeWithin(A, B, parse_interval("[2,5]"))
    assert both(p, tr(ev("a"), Duration(F(3)), ev("b"))) == (HOLDS, HOLDS)


def test_first_before_vacuous_without_trigger():
    p = PresentFirstBeforeWithin(A, B, parse_interval("[2,5]"))
    t = tr(ev("a"), Duration(F(30)), dl=True)
    assert both(p, t) == (HOLDS, HOLDS)


def test_first_before_no_prior_occurrence_fails():
    p = PresentFirstBeforeWithin(A, B, parse_interval("[0,5]"))
    assert both(p, tr(Duration(F(1)), ev("b"), ev("a"))) == (FAILS, FAILS)


def test_first_before_counts_first_occurrence_only():
    p = PresentFirstBeforeWithin(A, B, parse_interval("[0,2]"))
    # first a is 5 before b: outside the window although the second fits
    t = tr(ev("a"), Duration(F(3)), ev("a"), Duration(F(2)), ev("b"))
    assert both(p, t) == (FAILS, FAILS)


# ---------------------------------------------------------------------------
# present A lasting D

PL = PresentLasting(parse_expr("x"), F(5))


def sev(name, x):
    return Event(name, {}, {"x": x})


def test_lasting_holds_when_stretch_reaches():
    t = TimedTrace.of([sev("s", True), Duration(F(5)), sev("u", False)],
                      ({}, {"x": False}))
    assert both(PL, t) == (HOLDS, HOLDS)


def test_lasting_break_exactly_at_bound_counts():
    # the state flips exactly at the deadline: the closed window is complete
    t = TimedTrace.of([sev("s", True), Duration(F(5)), sev("u", False),
                       Duration(F(1))], ({}, {"x": False}))
    assert both(PL, t) == (HOLDS, HOLDS)


def test_lasting_interrupted_fails_decisively():
    t = TimedTrace.of([sev("s", True), Duration(F(3)), sev("u", False),
                       Duration(F(9))], ({}, {"x": False}))
    assert both(PL, t) == (FAILS, FAILS)


def test_lasting_zero_duration_dip_breaks():
    t = TimedTrace.of([sev("s", True), Duration(F(2)), sev("u", False),
                       sev("v", True), Duration(F(6))], ({}, {"x": False}))
    assert both(PL, t) == (FAILS, FAILS)


def test_lasting_initially_true_counts_from_start():
    t = TimedTrace.of([Duration(F(5)), sev("u", False)], ({}, {"x": True}))
    assert both(PL, t) == (HOLDS, HOLDS)


def test_lasting_frozen_deadlock_state_holds():
    t = TimedTrace.of([sev("s", True), Duration(F(1))], ({}, {"x": False}), True)
    assert both(PL, t) == (HOLDS, HOLDS)


def test_lasting_never_observed():
    t = TimedTrace.of([Duration(F(50))], ({}, {"x": False}))
    assert fott_holds(PL, t).value is INC
    t_dl = TimedTrace.of([Duration(F(50))], ({}, {"x": False}), True)
    assert fott_holds(PL, t_dl).value is FAILS


# ---------------------------------------------------------------------------
# absent A after B for interval I

def test_absent_after_violation_in_window():
    p = AbsentAfterInterval(A, B, parse_interval("[1,4]"))
    assert both(p, tr(ev("b"), Duration(F(2)), ev("a"))) == (FAILS, FAILS)


def test_absent_after_occurrence_outside_window():
    p = AbsentAfterInterval(A, B, parse_interval("[1,4]"))
    t = tr(ev("b"), Duration(F(5)), ev("a"), dl=True)
    assert both(p, t) == (HOLDS, HOLDS)


def test_absent_after_window_open_inconclusive():
    p = AbsentAfterInterval(A, B, parse_interval("[1,4]"))
    t = tr(ev("b"), Duration(F(2)))
    assert fott_holds(p, t).value is INC


def test_absent_after_boundary_flip():
    t = tr(ev("b"), Duration(F(4)), ev("a"), Duration(F(1)))
    closed = AbsentAfterInterval(A, B, parse_interval("[0,4]"))
    open_ = AbsentAfterInterval(A, B, parse_interval("[0,4["))
    assert both(closed, t) == (FAILS, FAILS)
    assert both(open_, t) == (HOLDS, HOLDS)


# ---------------------------------------------------------------------------
# absent A before B for duration D

def test_absent_before_examples():
    p = AbsentBeforeDuration(A, B, F(3))
    assert both(p, tr(ev("a"), Duration(F(2)), ev("b"))) == (FAILS, FAILS)
    assert both(p, tr(ev("a"), Duration(F(5)), ev("b"))) == (HOLDS, HOLDS)
    # the bound itself counts (non-strict comparison)
    assert both(p, tr(ev("a"), Duration(F(3)), ev("b"))) == (FAILS, FAILS)


def test_absent_before_only_first_trigger_matters():
    p = AbsentBeforeDuration(A, B, F(3))
    t = tr(ev("b"), Duration(F(1)), ev("a"), Duration(F(1)), ev("b"), dl=True)
    assert both(p, t) == (HOLDS, HOLDS)


# ---------------------------------------------------------------------------
# leadsto

def test_leadsto_served_within_window():
    p = LeadstoFirstWithin(A, B, parse_interval("[1,3]"))
    t = tr(ev("a"), Duration(F(2)), ev("b"), Duration(F(10)), dl=True)
    assert both(p, t) == (HOLDS, HOLDS)


def test_leadsto_first_response_too_early():
    p = LeadstoFirstWithin(A, B, parse_interval("[1,3]"))
    t = tr(ev("a"), Duration(F(1, 2)), ev("b"), Duration(F(2)), ev("b"))
    assert both(p, t) == (FAILS, FAILS)


def test_leadsto_missing_response_window_open():
    p = LeadstoFirstWithin(A, B, parse_interval("[1,3]"))
    t = tr(ev("a"), Duration(F(2)))
    assert fott_holds(p, t).value is INC


def test_leadsto_deadlock_fails_unserved():
    p = LeadstoFirstWithin(A, B, parse_interval("[1,3]"))
    t = tr(ev("a"), Duration(F(2)), dl=True)
    assert both(p, t) == (FAILS, FAILS)


def test_leadsto_before_scope_vacuous_without_r():
    p = LeadstoFirstWithin(A, B, parse_interval("[0,2]"), BeforeScope(R))
    t = tr(ev("a"), Duration(F(10)))
    assert both(p, t) == (HOLDS, HOLDS)


def test_leadsto_before_scope_requires_service_before_r():
    p = LeadstoFirstWithin(A, B, parse_interval("[0,5]"), BeforeScope(R))
    serves = tr(ev("a"), Duration(F(2)), ev("b"), Duration(F(1)), ev("r"))
    unserved = tr(ev("a"), Duration(F(2)), ev("r"), Duration(F(1)), ev("b"))
    assert both(p, serves) == (HOLDS, HOLDS)
    assert both(p, unserved) == (FAILS, FAILS)


def test_leadsto_after_scope_ignores_earlier_occurrences():
    p = LeadstoFirstWithin(A, B, parse_interval("[0,2]"), AfterScope(R))
    t = tr(ev("a"), Duration(F(10)), ev("r"), Duration(F(1)),
           ev("a"), Duration(F(1)), ev("b"), Duration(F(5)), dl=True)
    assert both(p, t) == (HOLDS, HOLDS)


# ---------------------------------------------------------------------------
# timed until semantics (the logic side alone)

def test_timed_until_window():
    f = MUntil(MTrue(), MAtom(B), parse_interval("[1,3["))
    assert mtl_holds(f, tr(Duration(F(2)), ev("b"))).value is HOLDS
    assert mtl_holds(f, tr(Duration(F(4)), ev("b"))).value is FAILS
    assert mtl_holds(f, tr(Duration(F(3)), ev("b"))).value is FAILS


def test_weak_until_vacuity():
    p = PresentAfterWithin(A, B, parse_interval("[0,4]"))
    assert mtl_holds(to_mtl(p), tr(ev("c"))).value is HOLDS


# ---------------------------------------------------------------------------
# failure monotonicity and cross-validation

def _battery(model):
    names = list(model.transitions)
    a, b = names[0], names[1 % len(names)]
    return [
        parse_pattern(f"present {a} after {b} within [0,3]"),
        parse_pattern(f"present {a} after {b} within ]0,3]"),
        parse_pattern(f"absent {a} after {b} for interval [1,3]"),
        parse_pattern(f"absent {a} before {b} for duration 2"),
        parse_pattern(f"{a} leadsto first {b} within [0,4]"),
    ]


def _items(trace) -> list:
    """The trace as alternating positive `Duration`s and `Event`s."""
    items, now = [], F(0)
    for t, e in trace.timed:
        if t > now:
            items.append(Duration(t - now))
        now = t
        items.append(e)
    if trace.end > now:
        items.append(Duration(trace.end - now))
    return items


def test_failure_is_monotone_under_extension(relay):
    rng = random.Random(5)
    pats = _battery(relay)
    for seed in range(40):
        full = simulate(relay, F(24), seed)
        for cut in (3, 5, 8):
            prefix = TimedTrace.of(_items(full)[:cut], full.initial, False)
            for p in pats:
                if fott_holds(p, prefix).value is FAILS:
                    assert fott_holds(p, full).value is FAILS


def test_cross_check_agreement_random_traces(airlock, relay, chain):
    total = disagreements = 0
    for model in (airlock, relay, chain):
        pats = _battery(model)
        for seed in range(50):
            t = simulate(model, F(18), seed)
            for p in pats:
                rep = cross_check(p, t)
                total += 1
                if rep.disagree:
                    disagreements += 1
    assert total > 500
    assert disagreements == 0


# ---------------------------------------------------------------------------
# Reference MTL evaluator: one hand-written bounded search per operator
#
# `mtl_holds` reads `eventually` and `always` through its one `until`.  The
# evaluator below keeps a separate search for each of `until`, untimed
# `always`, timed `always`, timed `always` over a state predicate and
# `eventually`; both must give the same three-valued verdict.

def ref_mtl_holds(f, s):
    v = ref_meval(f, Timeline(s), -1)
    return {True: HOLDS, False: FAILS, None: INC}[v]


def ref_meval(f, tl, i):
    if isinstance(f, MTrue):
        return True
    if isinstance(f, MAtom):
        if f.state:
            return tl.state_pred(f.pred, i)
        return tl.event_pred(f.pred, i)
    if isinstance(f, MNot):
        return _not3(ref_meval(f.f, tl, i))
    if isinstance(f, MAnd):
        return _and3v(ref_meval(f.left, tl, i), ref_meval(f.right, tl, i))
    if isinstance(f, MImplies):
        return _or3v(_not3(ref_meval(f.left, tl, i)), ref_meval(f.right, tl, i))
    if isinstance(f, MUntil):
        return ref_meval_until(f, tl, i)
    if isinstance(f, MWeakUntil):
        u = ref_meval_until(MUntil(f.left, f.right), tl, i)
        if u is True:
            return True
        return _or3v(u, ref_meval_always_untimed(f.left, tl, i))
    if isinstance(f, MAlways):
        if f.interval is None:
            return ref_meval_always_untimed(f.f, tl, i, strict=f.strict)
        if _contains_state_atom(f.f):
            return ref_meval_always_state(f, tl, i)
        return ref_meval_always_timed(f, tl, i)
    if isinstance(f, MEventually):
        return ref_meval_eventually(f, tl, i)
    raise AssertionError


def ref_meval_until(f, tl, i):
    timed = f.interval is not None
    lhs, saw_unknown = True, False
    for j in range(i + 1 if timed else i, len(tl.events)):
        in_window = True
        if timed:
            delta = tl.time_at(j) - tl.time_at(i)
            if not _window_still_open(f.interval, delta):
                break
            in_window = f.interval.contains(delta)
        if in_window:
            combined = _and3v(ref_meval(f.right, tl, j), lhs)
            if combined is True:
                return True
            saw_unknown |= combined is None
        lhs = _and3v(lhs, ref_meval(f.left, tl, j))
        if lhs is False:
            break
    if saw_unknown:
        return None
    if lhs is False or not timed or tl.deadlocked:
        return False
    return None if _window_still_open(f.interval, tl.total - tl.time_at(i)) else False


def ref_meval_always_untimed(g, tl, i, strict=False):
    saw_unknown = False
    for j in range(i + 1 if strict else i, len(tl.events)):
        v = ref_meval(g, tl, j)
        if v is False:
            return False
        saw_unknown |= v is None
    return None if saw_unknown else True


def ref_meval_always_timed(f, tl, i):
    saw_unknown = False
    t0 = tl.time_at(i)
    for j in range(i + 1, len(tl.events)):
        delta = tl.time_at(j) - t0
        if not _window_still_open(f.interval, delta):
            break
        if f.interval.contains(delta):
            v = ref_meval(f.f, tl, j)
            if v is False:
                return False
            saw_unknown |= v is None
    if saw_unknown:
        return None
    if tl.deadlocked or not _window_still_open(f.interval, tl.total - t0):
        return True
    return None


def ref_meval_always_state(f, tl, i):
    d = f.interval.upper.value
    t0 = tl.time_at(i)
    v0 = ref_meval(f.f, tl, i)
    if v0 is False:
        return False
    saw_unknown = v0 is None
    for j in range(i + 1, len(tl.events)):
        if tl.time_at(j) - t0 >= d:
            break
        v = ref_meval(f.f, tl, j)
        if v is False:
            return False
        saw_unknown |= v is None
    if saw_unknown:
        return None
    return True if tl.total - t0 >= d or tl.deadlocked else None


def ref_meval_eventually(f, tl, i):
    timed = f.interval is not None
    saw_unknown = False
    t0 = tl.time_at(i)
    for j in range(i + 1 if timed else i, len(tl.events)):
        if timed:
            delta = tl.time_at(j) - t0
            if not _window_still_open(f.interval, delta):
                break
            if not f.interval.contains(delta):
                continue
        v = ref_meval(f.f, tl, j)
        if v is True:
            return True
        saw_unknown |= v is None
    if saw_unknown:
        return None
    if not timed or tl.deadlocked:
        return False
    return None if _window_still_open(f.interval, tl.total - t0) else False


EVENT_ATOMS = [MAtom(parse_expr(e)) for e in ("a", "b", "a | r")]
STATE_ATOMS = [MAtom(parse_expr(e), state=True) for e in ("P", "!P", "x", "P & !x")]
times = st.builds(F, st.integers(0, 8), st.sampled_from([1, 2]))


@st.composite
def windows(draw):
    """Open, closed or half-open windows; some unbounded above."""
    lo = draw(times)
    lo_b = "]" if draw(st.booleans()) else "["
    if draw(st.integers(0, 3)) == 0:
        return parse_interval(f"{lo_b}{lo},oo[")
    hi = lo + draw(times)
    hi_b = "[" if draw(st.booleans()) else "]"
    if hi == lo:
        lo_b, hi_b = "[", "]"
    return parse_interval(f"{lo_b}{lo},{hi}{hi_b}")


@st.composite
def mtl_formulas(draw, depth=3):
    """Formulas over all nine node classes; a timed `always` over a state
    atom gets a `[0,d]` window, the only shape the state reading supports."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(EVENT_ATOMS + STATE_ATOMS + [MTrue()]))
    sub = mtl_formulas(depth - 1)
    kind = draw(st.sampled_from(
        [MNot, MAnd, MImplies, MUntil, MWeakUntil, MAlways, MEventually]))
    if kind is MNot:
        return MNot(draw(sub))
    if kind in (MAnd, MImplies, MWeakUntil):
        return kind(draw(sub), draw(sub))
    timed = draw(st.booleans())
    if kind is MUntil:
        return MUntil(draw(sub), draw(sub), draw(windows()) if timed else None)
    f = draw(sub)
    if kind is MEventually:
        return MEventually(f, draw(windows()) if timed else None)
    iv = None
    if timed:
        iv = (parse_interval(f"[0,{draw(times)}]") if _contains_state_atom(f)
              else draw(windows()))
    return MAlways(f, iv, strict=draw(st.booleans()))


@st.composite
def mtl_traces(draw):
    """Traces over events a, b, r and state P, x, with or without an initial
    state, deadlocked or not; zero durations make simultaneous events."""
    def state():
        return {"P": int(draw(st.booleans()))}, {"x": draw(st.booleans())}

    items = []
    for _ in range(draw(st.integers(0, 6))):
        items.append(Duration(draw(times)))
        if draw(st.integers(0, 4)):
            marking, store = state()
            items.append(Event(draw(st.sampled_from("abr")), marking, store))
    init = state() if draw(st.booleans()) else None
    return TimedTrace.of(items, init, draw(st.booleans()))


@settings(max_examples=600, deadline=None)
@given(mtl_formulas(), mtl_traces())
def test_mtl_matches_one_search_per_operator_reference(f, t):
    assert mtl_holds(f, t).value is ref_mtl_holds(f, t)
