"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All timing-sensitive checks use wall-clock budgets from the
criteria; all numeric checks are exact rational comparisons.
"""

import random
import time
from fractions import Fraction as F

import pytest

from ttscheck import classgraph as cg
from ttscheck import ltl
from ttscheck.expr import Name
from ttscheck.ltl import (
    EventAtom,
    LAlways,
    LAnd,
    LEventually,
    LImplies,
    LNot,
    LOr,
    LRelease,
    LUntil,
    FF,
    StateAtom,
    TT,
    _check_buchi,
    check,
    find_decisive_extension,
    ltl_to_buchi,
)
from ttscheck.model import Event, parse_tts
from ttscheck.observers import (
    Fragment,
    ObserverSpec,
    compose,
    replay_instrumented,
    synthesize,
)
from ttscheck.oracle import Verdict, fott_holds, mtl_holds
from ttscheck.patterns import (
    parse_pattern,
    pattern_constants,
    to_mtl,
    validate_pattern,
)
from ttscheck.model import Transition, closed_interval
from ttscheck.traces import Duration, TimedTrace, simulate

from conftest import n_door_airlock, xcheck_catalog
from reference import buchi_accepts, eval_on_lasso, non_intrusiveness_check


def report(line: str):
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# A1  Airlock safety

def test_a1_airlock_safety(airlock):
    t0 = time.perf_counter()
    g = cg.build_graph(airlock)
    dt = time.perf_counter() - t0
    for c in g.nodes:
        assert not (c.marking.get("D1isOpen") and c.marking.get("D2isOpen"))
    assert dt < 1.0, f"graph took {dt:.3f}s"
    report(f"A1 PASS: mutual exclusion over {g.node_count} classes, "
           f"built in {dt * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# A2  Timing verdicts with exact counterexample extraction

def test_a2_timing_verdicts(airlock, monkeypatch):
    ok = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")
    inst = compose(airlock, synthesize(ok))
    g = cg.build_graph(inst.model)
    assert check(g, inst.formula).passed

    tight = parse_pattern("present Ventil after (Open1 | Open2) within [0,9]")
    inst9 = compose(airlock, synthesize(tight))
    g9 = cg.build_graph(inst9.model)
    res = check(g9, inst9.formula)
    assert not res.passed and res.counterexample is not None

    def violating_with_delay_ten(tr: TimedTrace) -> bool:
        if fott_holds(tight, tr).value is not Verdict.FAILS:
            return False
        evs = tr.timed
        opens = [t for t, e in evs if e.transition in ("Open1", "Open2")]
        vents = [t for t, e in evs if e.transition == "Ventil"]
        return bool(opens and vents) and vents[0] - opens[0] == F(10)

    monkeypatch.setattr(ltl, "MAX_EXTENSION_DEPTH", 16)
    tr = find_decisive_extension(g9, inst9.model, res.counterexample,
                                 violating_with_delay_ten)
    assert violating_with_delay_ten(tr), "no confirming counterexample trace found"
    report("A2 PASS: [0,10] passes; [0,9] fails with a confirmed "
           "counterexample whose trigger-to-witness delay is exactly 10")


# ---------------------------------------------------------------------------
# A3  Observer / oracle cross-validation over the full catalog

def test_a3_observer_oracle_cross_validation(airlock, relay, chain):
    t0 = time.perf_counter()
    runs = 100
    total_decisive = total_inconclusive = mismatches = 0
    for model in (airlock, relay, chain):
        patterns = [parse_pattern(t) for t in xcheck_catalog(model.name)]
        for p in patterns:
            assert validate_pattern(p, model) == []
        horizon = 3 * max(c for p in patterns for c in pattern_constants(p))
        traces = [simulate(model, F(horizon), 10_000 + i)
                  for i in range(runs)]
        for p in patterns:
            inst = compose(model, synthesize(p))
            for tr in traces:
                fv = fott_holds(p, tr)
                if fv.value is Verdict.INCONCLUSIVE:
                    total_inconclusive += 1
                    continue
                rv = replay_instrumented(inst, tr)
                total_decisive += 1
                if rv.value is not fv.value:
                    mismatches += 1
    dt = time.perf_counter() - t0
    assert mismatches == 0
    assert dt < 60.0, f"cross-validation took {dt:.1f}s"
    report(f"A3 PASS: 8 patterns x 3 models x {runs} traces, "
           f"{total_decisive} decisive comparisons, 0 mismatches, "
           f"{total_inconclusive} inconclusive, {dt:.1f}s")


# ---------------------------------------------------------------------------
# A4  Dual-semantics agreement (decomposition vs logic), with boundary traces

def _ev(name, **store):
    return Event(name, {}, store)


def _boundary_traces(d1: F, d2: F) -> list:
    """Traces whose critical delay hits a window bound exactly."""
    out = []
    for delay in (d1, d2):
        out.append(TimedTrace.of(
            [_ev("b"), Duration(delay), _ev("a"), Duration(F(50))], ({}, {})))
        out.append(TimedTrace.of(
            [_ev("a"), Duration(delay), _ev("b"), Duration(F(50))], ({}, {})))
    out.append(TimedTrace.of([_ev("b"), _ev("a"), Duration(F(50))], ({}, {})))
    out.append(TimedTrace.of([_ev("a"), Duration(d2), _ev("b"),
                              Duration(d2), _ev("b"), Duration(F(50))], ({}, {})))
    return out


def _abstract_battery():
    shapes = []
    for l, r in (("[", "]"), ("]", "]"), ("[", "["), ("]", "[")):
        iv = f"{l}2,5{r}"
        shapes += [
            f"present a after b within {iv}",
            f"present first a before b within {iv}",
            f"absent a after b for interval {iv}",
            f"a leadsto first b within {iv}",
            f"a leadsto first b within {iv} before r",
            f"a leadsto first b within {iv} after r",
        ]
    shapes += ["present x lasting 3", "absent a before b for duration 4",
               "present a after b within [2,oo[", "present a after b within [5,5]"]
    return [parse_pattern(t) for t in shapes]


def _random_abstract_trace(rng: random.Random) -> TimedTrace:
    items = []
    x = rng.random() < 0.3
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.45:
            # delays biased to hit the battery's constants 2 and 5 exactly
            items.append(Duration(rng.choice(
                [F(1), F(2), F(2), F(3), F(5), F(5), F(1, 2), F(3, 2)])))
        else:
            name = rng.choice(["a", "b", "r", "c"])
            if rng.random() < 0.25:
                x = not x
            items.append(Event(name, {}, {"x": x}))
    return TimedTrace.of(items, ({}, {"x": False}),
                         deadlocked=rng.random() < 0.4)


def test_a4_dual_semantics_agreement():
    t0 = time.perf_counter()
    rng = random.Random(99)
    patterns = _abstract_battery()
    disagreements = comparisons = 0
    for p in patterns:
        f = to_mtl(p)
        traces = [_random_abstract_trace(rng) for _ in range(1000)]
        traces += _boundary_traces(F(2), F(5))
        for tr in traces:
            fv, mv = fott_holds(p, tr), mtl_holds(f, tr)
            if fv.value is Verdict.INCONCLUSIVE or mv.value is Verdict.INCONCLUSIVE:
                continue
            comparisons += 1
            if fv.value is not mv.value:
                disagreements += 1
    dt = time.perf_counter() - t0
    assert disagreements == 0
    assert comparisons > 10_000
    report(f"A4 PASS: {len(patterns)} pattern shapes x 1000+ traces, "
           f"{comparisons} decisive comparisons, 0 disagreements, {dt:.1f}s")


def test_a4_boundary_bracket_flips():
    # flipping one bracket flips the verdict exactly on the boundary trace
    hit_lower = TimedTrace.of([_ev("b"), Duration(F(2)), _ev("a"),
                               Duration(F(50))], ({}, {}))
    hit_upper = TimedTrace.of([_ev("b"), Duration(F(5)), _ev("a"),
                               Duration(F(50))], ({}, {}))
    for trace, closed, opened in (
            (hit_lower, "present a after b within [2,5]",
             "present a after b within ]2,5]"),
            (hit_upper, "present a after b within [2,5]",
             "present a after b within [2,5["),
    ):
        pc, po = parse_pattern(closed), parse_pattern(opened)
        assert fott_holds(pc, trace).value is Verdict.HOLDS
        assert fott_holds(po, trace).value is Verdict.FAILS
        assert mtl_holds(to_mtl(pc), trace).value is Verdict.HOLDS
        assert mtl_holds(to_mtl(po), trace).value is Verdict.FAILS
    report("A4 PASS (boundaries): closed/open bracket flips the verdict "
           "exactly on boundary-hitting traces")


# ---------------------------------------------------------------------------
# A5  Non-intrusiveness

def test_a5_non_intrusiveness(airlock):
    for text in xcheck_catalog("airlock"):
        inst = compose(airlock, synthesize(parse_pattern(text)))
        assert non_intrusiveness_check(airlock, inst), text
    rogue = ObserverSpec(
        (Fragment("rg_", transitions=(
            Transition("rg_Steal", timing=closed_interval(F(1), F(1)),
                       pre=("Idle",)),)),),
        LAlways(LNot(EventAtom(Name("rg_Steal")))))
    assert not non_intrusiveness_check(airlock, compose(airlock, rogue))
    report("A5 PASS: all 8 catalog observers non-intrusive on the airlock; "
           "token-stealing rogue detected")


# ---------------------------------------------------------------------------
# A6  Priority semantics

def test_a6_priority_semantics(airlock, monkeypatch):
    g = cg.build_graph(airlock)
    contention = [c for c in g.nodes
                  if c.marking.get("Idle") == 1 and c.store["req1"] and c.store["req2"]]
    assert contention
    for c in contention:
        assert cg.firable(airlock, c) == {"Open2"}, "door 2 must preempt door 1"

    # priority guarantees door-2 service while the system is live; the paper's
    # own worked example scopes the requirement before Shutdown, and indeed
    # the unscoped variant fails through the shutdown escape (see ledger)
    scoped = parse_pattern("Button2 leadsto first Open2 within [0,10] before Shutdown")
    inst = compose(airlock, synthesize(scoped))
    assert check(cg.build_graph(inst.model), inst.formula).passed

    unscoped = parse_pattern("Button2 leadsto first Open2 within [0,10]")
    inst_u = compose(airlock, synthesize(unscoped))
    res_u = check(cg.build_graph(inst_u.model), inst_u.formula)
    assert not res_u.passed
    labels = [s[1] for s in res_u.counterexample.stem]
    assert "Shutdown" in labels, "only the shutdown escape may break door 2"

    # door 1 under sustained contention: starvation within any bound
    door1 = parse_pattern("Button1 leadsto first Open1 within [0,10] before Shutdown")
    inst1 = compose(airlock, synthesize(door1))
    g1 = cg.build_graph(inst1.model)
    res1 = check(g1, inst1.formula)
    assert not res1.passed
    monkeypatch.setattr(ltl, "MAX_EXTENSION_DEPTH", 18)
    tr = find_decisive_extension(
        g1, inst1.model, res1.counterexample,
        lambda t: fott_holds(door1, t).value is Verdict.FAILS)
    assert fott_holds(door1, tr).value is Verdict.FAILS, \
        "door-1 starvation must be confirmable on a trace"
    # the oracle confirms on simulated runs as well: contention-heavy seeds
    starved = sum(
        1 for seed in range(300)
        if fott_holds(door1, simulate(airlock, F(40), seed)).value is Verdict.FAILS)
    assert starved > 0
    report(f"A6 PASS: contention class fires only Open2; door-2 service "
           f"guaranteed while live; door-1 starvation confirmed on "
           f"{starved}/300 simulated runs and by a checked counterexample")


# ---------------------------------------------------------------------------
# A7  Composite patterns

DRUG_NET = """
places P=1
vars asked=false
trans Ask pre {!asked} in [2,4] read {P} act {asked := true}
trans Change in [%LO%,%HI%] consume {P}
trans Other in [1,oo[ read {P}
"""


def _drug_net(lo, hi):
    return parse_tts(DRUG_NET.replace("%LO%", str(lo)).replace("%HI%", str(hi)),
                     name=f"drug{lo}_{hi}")


def _verdict(model, pattern) -> bool:
    inst = compose(model, synthesize(pattern))
    return check(cg.build_graph(inst.model), inst.formula).passed


def test_a7_composite_patterns(airlock):
    p_fast = "absent Change after Ask for interval [0,6]"
    p_slow = "absent Change after Ask for interval [0,54]"

    # hand analysis: first Ask in [2,4]; Change in [lo,hi] consumes the token,
    # so the separation from the first Ask ranges over [lo-4, hi-2]
    combos = [
        # (net, pattern text, expected)
        (_drug_net(10, 20), p_fast, False),   # separation can be exactly 6
        (_drug_net(10, 20), p_slow, False),   # 6..18 always within 54
        (_drug_net(60, 70), p_fast, True),    # separation at least 56
        (_drug_net(60, 70), p_slow, True),    # beyond 54 as well
        (_drug_net(30, 40), p_fast, True),    # at least 26
        (_drug_net(30, 40), p_slow, False),   # 26..38 inside 54
    ]
    for net, text, expect in combos:
        assert _verdict(net, parse_pattern(text)) == expect, (net.name, text)

    checked = 0
    for net in (_drug_net(10, 20), _drug_net(60, 70), _drug_net(30, 40)):
        for left, right in ((p_fast, p_slow), (p_slow, p_fast)):
            va = _verdict(net, parse_pattern(f"({left}) and ({right})"))
            vl = _verdict(net, parse_pattern(left))
            vr = _verdict(net, parse_pattern(right))
            assert va == (vl and vr)

            composite = parse_pattern(f"({left}) => ({right})")
            vi = _verdict(net, composite)
            # independent route: compose both observers, check f1 => f2
            spec = synthesize(composite)
            inst = compose(net, spec)
            g = cg.build_graph(inst.model)
            assert isinstance(inst.formula, LImplies)
            direct = _check_buchi(g, inst.formula)
            assert vi == direct.passed
            checked += 2

    # two combos on the airlock for breadth
    a_and = parse_pattern(
        "(present Ventil after (Open1 | Open2) within [0,10]) and "
        "(absent Open1 before Close1 for duration 3)")
    assert _verdict(airlock, a_and) is True
    a_imp = parse_pattern(
        "(present Ventil after (Open1 | Open2) within [0,9]) => "
        "(present Ventil after (Open1 | Open2) within [0,10])")
    assert _verdict(airlock, a_imp) is True
    checked += 2
    assert checked >= 10
    report(f"A7 PASS: composite semantics verified on {checked} "
           f"model/pattern combinations including the two-absence "
           f"implication shape")


# ---------------------------------------------------------------------------
# A8  Scalability smoke

def test_a8_scalability_smoke():
    for n in range(2, 6):
        model = n_door_airlock(n)
        doors = " | ".join(f"Open{i}" for i in range(1, n + 1))
        pattern = parse_pattern(f"present Ventil after ({doors}) within [0,10]")
        t0 = time.perf_counter()
        inst = compose(model, synthesize(pattern))
        g = cg.build_graph(inst.model)
        res = check(g, inst.formula)
        dt = time.perf_counter() - t0
        assert res.passed and res.used_fast_path
        assert dt < 10.0, f"N={n} took {dt:.1f}s"
        report(f"A8 N={n}: {g.node_count} classes, checked in {dt:.2f}s")
    report("A8 PASS: all instances within the 10 s budget")


# ---------------------------------------------------------------------------
# A9  LTL engine self-test

def _a9_formulas():
    a, b = EventAtom(Name("a")), EventAtom(Name("b"))
    c = StateAtom(Name("c"))
    return [
        LAlways(LNot(a)),
        LEventually(a),
        LAlways(LImplies(a, LEventually(b))),
        LUntil(a, b),
        LRelease(a, b),
        LRelease(LAnd(b, LUntil(TT(), a)), LOr(LAnd(b, LUntil(TT(), a)), LNot(b))),
        LImplies(LEventually(b), LEventually(a)),
        LAlways(LImplies(a, LAlways(b))),
        LAlways(LAlways(a)),
        LAnd(LAlways(LEventually(a)), LAlways(LEventually(b))),
        LOr(LAlways(a), LAlways(b)),
        LImplies(LEventually(a), LNot(LEventually(LAnd(b, c)))),
        LUntil(LNot(a), LAnd(a, LUntil(LNot(b), b))),
        LAlways(LImplies(c, LUntil(c, a))),
        LEventually(LAlways(a)),
        LAlways(LEventually(LAnd(a, LEventually(b)))),
        LRelease(FF(), LImplies(a, LEventually(b))),
        LRelease(b, LOr(b, a)),
        LImplies(LAlways(LEventually(a)), LAlways(LEventually(b))),
        LNot(LUntil(a, LAnd(b, LAlways(a)))),
    ]


def test_a9_ltl_engine_self_test():
    rng = random.Random(2024)
    formulas = _a9_formulas()
    assert len(formulas) == 20
    a, b = EventAtom(Name("a")), EventAtom(Name("b"))
    c = StateAtom(Name("c"))
    atoms = [a, b, c]
    words = 0
    for f in formulas:
        ba = ltl_to_buchi(f)
        for _ in range(200):
            stem = [{at: rng.random() < 0.5 for at in atoms}
                    for _ in range(rng.randint(0, 4))]
            cycle = [{at: rng.random() < 0.5 for at in atoms}
                     for _ in range(rng.randint(1, 4))]
            assert buchi_accepts(ba, stem, cycle) == eval_on_lasso(f, stem, cycle)
            words += 1
    # seeded liveness violations: an a-free cycle violates <>a; the search
    # must find the lasso every time, and lose it when the seed is repaired
    ba_viol = ltl_to_buchi(LNot(LEventually(a)))
    found = 0
    for _ in range(100):
        stem = [{a: False, b: rng.random() < 0.5, c: False}
                for _ in range(rng.randint(0, 4))]
        cycle = [{a: False, b: rng.random() < 0.5, c: False}
                 for _ in range(rng.randint(1, 4))]
        assert buchi_accepts(ba_viol, stem, cycle)
        found += 1
        fixed = [dict(x) for x in cycle]
        fixed[rng.randrange(len(fixed))][a] = True
        assert not buchi_accepts(ba_viol, stem, fixed)
    report(f"A9 PASS: tableau agrees with direct evaluation on 20 formulas "
           f"x {words // 20} words; {found}/100 seeded liveness violations "
           f"found as lassos")
