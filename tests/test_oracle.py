import random
from fractions import Fraction as F

from ttscheck.expr import parse_expr
from ttscheck.model import Event, parse_interval
from ttscheck.oracle import Verdict, cross_check, fott_holds, mtl_holds
from ttscheck.patterns import (
    AbsentAfterInterval,
    AbsentBeforeDuration,
    AfterScope,
    BeforeScope,
    LeadstoFirstWithin,
    MAtom,
    MTrue,
    MUntil,
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


def test_failure_is_monotone_under_extension(relay):
    rng = random.Random(5)
    pats = _battery(relay)
    for seed in range(40):
        full = simulate(relay, F(24), seed)
        for cut in (3, 5, 8):
            prefix = TimedTrace.of(full.items[:cut], full.initial, False)
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
