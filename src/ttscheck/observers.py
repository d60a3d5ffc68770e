"""Observer nets for the pattern catalog, and their composition with a system.

For each pattern the synthesizer produces a net fragment (fresh variables and
watcher transitions with punctual firing windows), a set of instrumentation
hooks (actions appended to every system transition matching an event
predicate), priority edges that pin down behavior at window boundaries, and
an LTL formula over the composed model.  Checking the formula on the composed
state-class graph decides the pattern.

Boundary discipline: a closed bound lets an occurrence exactly at the bound
count, an open bound does not.  This is realized purely through priorities
between the watcher transitions and the hooked system transitions, so
switching a bracket only flips the direction of one priority edge.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from .expr import (Assign, Binary, Chain, Expr, Lit, Name, Unary, chain, free_names,
                   parse_actions, parse_expr)
from .model import (
    EventPredicate,
    ExplorationError,
    StepMemo,
    TimeBound,
    TimeInterval,
    Transition,
    TtsModel,
    VarDecl,
    closed_interval,
    matching_transitions,
    residual_predicate,
    validate_model,
)
from .ltl import (
    EventAtom,
    LAlways,
    LAnd,
    LEventually,
    LImplies,
    LNot,
    LOr,
    LtlFormula,
    StateAtom,
    children,
    formula_atoms,
    lasso_program,
    nnf,
    run_lasso_program,
    run_letter,
)
from .oracle import TraceVerdict, Verdict
from .patterns import (
    AbsentAfterInterval,
    AbsentBeforeDuration,
    AndPattern,
    BeforeScope,
    GlobalScope,
    ImpliesPattern,
    LeadstoFirstWithin,
    Pattern,
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
)
from .records import record
from .traces import Run, TickedTrace, TimedTrace


class ObserverError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Observer structure

@record
class Hook:
    """Instrumentation of system transitions matching an event predicate.

    Actions are appended to every matching transition, in the order hooks are
    listed in the fragment; for a partially matching predicate the actions
    run under the predicate's state-residual, evaluated after the firing.
    """

    role: str  # "E1" | "E2" | "E3"
    predicate: EventPredicate
    actions: tuple


# a priority side: ("obs", transition name) | ("hook", role) | ("allsys",)
PrioSide = tuple


@record
class Fragment:
    prefix: str
    vars: tuple = ()
    transitions: tuple = ()
    hooks: tuple = ()
    priorities: tuple = ()  # pairs (higher: PrioSide, lower: PrioSide)


@record
class ObserverSpec:
    fragments: tuple
    formula: LtlFormula


@record
class InstrumentedModel:
    """A composed model.  The cached properties are what every replay of it
    reads; each is computed on first use, and all but `step_memo`, which
    the replays fill, never change afterwards."""

    model: TtsModel
    provenance: dict  # element name -> "system" | "observer" | "hooked"
    formula: LtlFormula  # spec formula with event atoms pinned to system events

    @cached_property
    def observer_transitions(self) -> frozenset:
        return frozenset(n for n, k in self.provenance.items()
                         if k == "observer" and n in self.model.transitions)

    @cached_property
    def atoms(self) -> tuple:
        """`ltl.formula_atoms` of the formula: the atoms of the automaton
        `ltl_to_buchi` makes of its negation, in the same order.  Replay's
        letters are `run_letter` tuples of them."""
        return formula_atoms(self.formula)

    @cached_property
    def lasso_program(self) -> tuple:
        """`ltl.lasso_program` of the formula's negation normal form."""
        return lasso_program(nnf(self.formula), self.atoms)

    @cached_property
    def step_memo(self) -> StepMemo:
        """Replay's `model.StepMemo`: the watchers tracked, and a step's
        payload is its `run_letter` tuple."""
        return StepMemo(self.model, self.observer_transitions, partial(run_letter, self.atoms))


# ---------------------------------------------------------------------------
# Synthesis

def _bools(prefix: str, *names: str) -> tuple:
    return tuple(VarDecl(prefix + n, "bool", False) for n in names)


def _acts(prefix: str, text: str) -> tuple:
    """Parse actions, prefixing every observer identifier occurrence."""
    acts = parse_actions(text)
    return tuple(Assign(prefix + a.target, _prefix_expr(a.expr, prefix),
                        None if a.cond is None else _prefix_expr(a.cond, prefix))
                 for a in acts)


def _prefix_expr(e: Expr, prefix: str) -> Expr:
    if isinstance(e, Name):
        return Name(prefix + e.ident) if not e.ident.startswith(prefix) else e
    if isinstance(e, Unary):
        return Unary(e.op, _prefix_expr(e.operand, prefix))
    if isinstance(e, Chain):
        return Chain(e.op, tuple(_prefix_expr(x, prefix) for x in e.operands))
    if isinstance(e, Binary):
        return Binary(e.op, _prefix_expr(e.left, prefix), _prefix_expr(e.right, prefix))
    return e


def _guard(prefix: str, text: str) -> Expr:
    return _prefix_expr(parse_expr(text), prefix)


def _punctual(c: Fraction) -> TimeInterval:
    return closed_interval(c, c)


def _state(prefix: str, text: str) -> LtlFormula:
    return StateAtom(_guard(prefix, text))


def synthesize(p: Pattern, system: Optional[TtsModel] = None) -> ObserverSpec:
    """Observer net and LTL formula deciding the pattern on any system.

    Observers are named `ob1_`, `ob2_`, ... in turn; with `system`, a prefix
    that one of its places, variables or transitions starts with is skipped,
    so no observer name can clash with the system's."""
    declared = () if system is None else \
        (*system.places, *system.vars, *system.transitions)
    counter = [0]

    def fresh_prefix() -> str:
        while True:
            counter[0] += 1
            prefix = f"ob{counter[0]}_"
            if not any(n.startswith(prefix) for n in declared):
                return prefix

    fragments, formula = _synth(p, fresh_prefix)
    return ObserverSpec(tuple(fragments), formula)


def _synth(p: Pattern, fresh_prefix):
    if isinstance(p, AndPattern):
        fl, phi1 = _synth(p.left, fresh_prefix)
        fr, phi2 = _synth(p.right, fresh_prefix)
        return fl + fr, LAnd(phi1, phi2)
    if isinstance(p, ImpliesPattern):
        fl, phi1 = _synth(p.left, fresh_prefix)
        fr, phi2 = _synth(p.right, fresh_prefix)
        return fl + fr, LImplies(phi1, phi2)
    px = fresh_prefix()
    if isinstance(p, (PresentAfterWithin, AbsentAfterInterval)):
        # the window opens d1 after the first B; an A counts only inside it
        hooks = (Hook("E1", p.a, _acts(px, "if flag then foundA := true")),
                 Hook("E2", p.b, _acts(px, "foundB := true")))
        formula = (_formula_present_after if isinstance(p, PresentAfterWithin)
                   else _formula_absent_after)(px, p)
        return [_synth_window(px, "foundB", "foundA", "E1", p.interval, hooks)], formula
    if isinstance(p, PresentFirstBeforeWithin):
        # the window opens d1 after the first A; the first B must land inside
        hooks = (Hook("E1", p.a, _acts(px, "foundA := true")),
                 Hook("E2", p.b, _acts(px, "foundB := true")))
        return [_synth_window(px, "foundA", "foundB", "E2", p.interval, hooks)], \
            _formula_first_before(px, p)
    if isinstance(p, PresentLasting):
        return [_synth_lasting(px, p)], \
            LAnd(LAlways(LNot(EventAtom(Name(px + "Error")))),
                 LEventually(_state(px, "foundA")))
    if isinstance(p, AbsentBeforeDuration):
        return [_synth_absent_before(px, p)], \
            LAlways(LNot(_state(px, "viol")))
    if isinstance(p, LeadstoFirstWithin):
        return [_synth_leadsto(px, p)], _formula_leadsto(px, p)
    raise AssertionError


def _boundary_prio(first: PrioSide, second: PrioSide, closed: bool) -> tuple:
    """Priority pair at a window bound: `first` wins when the bound is
    closed, `second` when it is open."""
    return (first, second) if closed else (second, first)


def _synth_window(px: str, trigger: str, target: str, role: str,
                  iv: TimeInterval, hooks: tuple) -> Fragment:
    """Window watcher: arms on the `trigger` latch, expects the `target` one.

    `Start` raises the window flag d1 after the trigger latch is set;
    `Error` trips d2 after it unless the target latch is set by then.  At
    both bounds the watcher is ordered against the `role` hook, which sets
    the target latch.  For an unbounded window there is no Error deadline
    and verdicts read the latches directly.
    """
    d1, d2 = iv.lower, iv.upper
    hook = ("hook", role)
    transitions = [
        Transition(px + "Start", guard=_guard(px, f"{trigger} & !flag"),
                   action=_acts(px, "flag := true"), timing=_punctual(d1.value)),
    ]
    prios = [_boundary_prio(("obs", px + "Start"), hook, not d1.strict)]
    varnames = ["foundA", "foundB", "flag"]
    if not d2.is_infinite:
        varnames.append("errored")
        transitions.append(
            Transition(px + "Error", guard=_guard(px, f"{trigger} & !{target} & !errored"),
                       action=_acts(px, "errored := true"), timing=_punctual(d2.value)))
        prios.append(_boundary_prio(hook, ("obs", px + "Error"), not d2.strict))
    return Fragment(
        prefix=px,
        vars=_bools(px, *varnames),
        transitions=tuple(transitions),
        hooks=hooks,
        priorities=tuple(prios),
    )


def _rearm_pair(px: str, stem: str, d: Fraction) -> tuple:
    """Two countdowns of delay d that clear `bad`.  Each arming flips `ping`,
    so the countdown it starts is always a newly enabled one: re-arming
    restarts the clock."""
    return tuple(
        Transition(px + stem + side, guard=_guard(px, f"bad & {ping}"),
                   action=_acts(px, "bad := false"), timing=_punctual(d))
        for side, ping in (("P", "ping"), ("Q", "!ping")))


def _formula_present_after(px: str, p: PresentAfterWithin) -> LtlFormula:
    if p.interval.upper.is_infinite:
        return LImplies(LEventually(EventAtom(p.b)), LEventually(_state(px, "foundA")))
    return LAlways(LNot(EventAtom(Name(px + "Error"))))


def _formula_absent_after(px: str, p: AbsentAfterInterval) -> LtlFormula:
    if p.interval.upper.is_infinite:
        return LAlways(LNot(_state(px, "foundA")))
    return LImplies(LEventually(EventAtom(p.b)),
                    LEventually(EventAtom(Name(px + "Error"))))


def _formula_first_before(px: str, p: PresentFirstBeforeWithin) -> LtlFormula:
    early = _state(px, "foundB & !flag")
    if p.interval.upper.is_infinite:
        bad = early
    else:
        bad = LOr(EventAtom(Name(px + "Error")), early)
    return LImplies(LEventually(EventAtom(p.b)), LNot(LEventually(bad)))


def _synth_lasting(px: str, p: PresentLasting) -> Fragment:
    # the state condition appears verbatim in watcher guards; no hooks needed
    poll_guard = Chain("&", (p.a, Unary("!", Name(px + "foundA"))))
    ok_guard = Chain("&", (p.a, Unary("!", Name(px + "win"))))
    err_guard = _guard(px, "foundA & !win & !errored")
    return Fragment(
        prefix=px,
        vars=_bools(px, "foundA", "win", "errored"),
        transitions=(
            Transition(px + "Poll", guard=poll_guard,
                       action=_acts(px, "foundA := true"), timing=_punctual(Fraction(0))),
            Transition(px + "OK", guard=ok_guard,
                       action=_acts(px, "win := true"), timing=_punctual(p.d)),
            Transition(px + "Error", guard=err_guard,
                       action=_acts(px, "errored := true"), timing=_punctual(p.d)),
        ),
        hooks=(),
        priorities=(
            (("obs", px + "OK"), ("obs", px + "Error")),
            (("obs", px + "Poll"), ("allsys",)),
            (("obs", px + "OK"), ("allsys",)),
        ),
    )


def _synth_absent_before(px: str, p: AbsentBeforeDuration) -> Fragment:
    return Fragment(
        prefix=px,
        vars=_bools(px, "bad", "done", "viol", "ping"),
        transitions=_rearm_pair(px, "Reset", p.d),
        hooks=(
            # check-then-arm: the trigger hook must see the state before an
            # occurrence at the very same event arms the watcher again
            Hook("E2", p.b, _acts(px, "if bad & !done then viol := true; done := true")),
            Hook("E1", p.a, _acts(px, "bad := true; ping := !ping")),
        ),
        priorities=(),
    )


def _synth_leadsto(px: str, p: LeadstoFirstWithin) -> Fragment:
    d1, d2 = p.interval.lower, p.interval.upper
    scope = p.scope
    if isinstance(scope, GlobalScope):
        e1_cond, e2_cond = "", ""
    elif isinstance(scope, BeforeScope):
        e1_cond = e2_cond = "if !foundR then "
    else:
        e1_cond = e2_cond = "if foundR then "

    e1 = _acts(px, f"{e1_cond}foundA := true; {e1_cond}bad := true;"
                   f" {e1_cond}ping := !ping")
    e2 = _acts(px, f"{e2_cond}foundA := false")

    transitions = list(_rearm_pair(px, "Start", d1.value))
    prios = [_boundary_prio(("obs", t.name), ("hook", "E2"), not d1.strict)
             for t in transitions]
    vars_ = ["foundA", "bad", "ping"]
    if not d2.is_infinite:
        vars_.append("errored")
        err_guard = _guard(px, "foundA & !errored")
        err_act = _acts(px, "errored := true")
        if d2.strict or isinstance(scope, GlobalScope):
            # punctual deadline; at the boundary the response hook wins for a
            # closed bound, the error transition wins for an open one
            transitions.append(Transition(px + "Error", guard=err_guard,
                                          action=err_act, timing=_punctual(d2.value)))
            prios.append(_boundary_prio(("hook", "E2"), ("obs", px + "Error"),
                                        not d2.strict))
        else:
            # scoped closed bound: an open-ended error window starting just
            # past the deadline; a response exactly at the bound disarms it
            transitions.append(Transition(
                px + "Error", guard=err_guard, action=err_act,
                timing=TimeInterval(TimeBound(d2.value, strict=True), TimeBound(None))))
    hooks = [Hook("E2", p.b, e2), Hook("E1", p.a, e1)]
    if not isinstance(scope, GlobalScope):
        vars_.append("foundR")
        e3 = Hook("E3", scope.r, _acts(px, "foundR := true"))
        if isinstance(scope, BeforeScope):
            hooks = [e3] + hooks  # scope closes before the event's other roles
        else:
            hooks = hooks + [e3]  # scope opens only after the event itself
    return Fragment(
        prefix=px,
        vars=_bools(px, *vars_),
        transitions=tuple(transitions),
        hooks=tuple(hooks),
        priorities=tuple(prios),
    )


def _formula_leadsto(px: str, p: LeadstoFirstWithin) -> LtlFormula:
    miss = LAnd(EventAtom(p.b), _state(px, "bad"))
    parts: LtlFormula = LAlways(LNot(miss))
    if p.interval.upper.is_infinite:
        served = LAlways(LImplies(_state(px, "foundA"),
                                  LEventually(LNot(_state(px, "foundA")))))
        parts = LAnd(parts, served)
    else:
        parts = LAnd(LAlways(LNot(EventAtom(Name(px + "Error")))), parts)
    if isinstance(p.scope, GlobalScope):
        return parts
    return LImplies(LEventually(EventAtom(p.scope.r)), parts)


# ---------------------------------------------------------------------------
# Composition

def compose(system: TtsModel, spec: ObserverSpec) -> InstrumentedModel:
    """Instrument the system: append hook actions, add watcher transitions.

    System structure is preserved: no guard, arc, interval or initialization
    of the system changes; only actions are appended and priorities added.
    """
    provenance: dict = {}
    for n in list(system.places) + list(system.vars) + list(system.transitions):
        provenance[n] = "system"

    vars_ = dict(system.vars)
    for frag in spec.fragments:
        for decl in frag.vars:
            if decl.name in provenance:
                raise ObserverError(f"name clash on {decl.name!r}")
            vars_[decl.name] = decl
            provenance[decl.name] = "observer"

    # hook matching per fragment, in fragment hook order
    matches: dict = {}  # (prefix, role) -> set of system transition names
    appended: dict = {t: [] for t in system.transitions}
    for frag in spec.fragments:
        for hook in frag.hooks:
            names = matching_transitions(hook.predicate, system)
            matches[(frag.prefix, hook.role)] = names
            for tname in sorted(names):
                residual = residual_predicate(hook.predicate, tname, system)
                for act in hook.actions:
                    cond = act.cond
                    if not (isinstance(residual, Lit) and residual.value is True):
                        cond = residual if cond is None else Chain("&", (residual, cond))
                    appended[tname].append(Assign(act.target, act.expr, cond))

    transitions: dict = {}
    for t in system.transitions.values():
        extra = appended[t.name]
        if extra:
            provenance[t.name] = "hooked"
            transitions[t.name] = Transition(
                t.name, t.guard, t.action + tuple(extra), t.timing,
                t.pre, t.post, t.read)
        else:
            transitions[t.name] = t
    for frag in spec.fragments:
        for ot in frag.transitions:
            if ot.name in provenance:
                raise ObserverError(f"name clash on {ot.name!r}")
            transitions[ot.name] = ot
            provenance[ot.name] = "observer"

    priority = list(system.priority)
    for frag in spec.fragments:
        for (hi, lo) in frag.priorities:
            for hiname in _prio_side_names(hi, frag, matches, system):
                for loname in _prio_side_names(lo, frag, matches, system):
                    if hiname != loname and (hiname, loname) not in priority:
                        priority.append((hiname, loname))

    model = TtsModel(system.name + "+obs", dict(system.places), vars_, transitions,
                     tuple(priority))
    diags = validate_model(model)
    if diags:
        raise ObserverError("composed model invalid: "
                            + "; ".join(str(d) for d in diags))
    formula = _restrict_event_atoms(spec.formula, system)
    return InstrumentedModel(model, provenance, formula)


def _restrict_event_atoms(f: LtlFormula, system: TtsModel) -> LtlFormula:
    """Pin pattern event atoms to system transitions, so observer firings in
    the composition can never satisfy them through their state parts."""
    if isinstance(f, StateAtom):
        return f
    if not isinstance(f, EventAtom):
        return type(f)(*(_restrict_event_atoms(g, system) for g in children(f)))
    names = free_names(f.pred)
    if any(n not in system.places and n not in system.vars
           and n not in system.transitions for n in names):
        return f  # references observer elements: already specific
    if all(n in system.transitions for n in names):
        return f  # pure transition predicate cannot match observer steps
    matches = [Name(n) for n in sorted(matching_transitions(f.pred, system))]
    if not matches:
        return EventAtom(Lit(False))
    return EventAtom(Chain("&", (chain("|", matches), f.pred)))


def _prio_side_names(side: PrioSide, frag: Fragment, matches: dict,
                     system: TtsModel) -> list:
    if side[0] == "obs":
        return [side[1]]
    if side[0] == "hook":
        return sorted(matches[(frag.prefix, side[1])])
    if side[0] == "allsys":
        return list(system.transitions)
    raise AssertionError(side)


# ---------------------------------------------------------------------------
# Instrumented replay: run a recorded system trace through the composition

# Most watcher firings between two system events, or over the idle tail:
# synthesized watchers latch, so more means a watcher that never settles.
MAX_WATCHER_FIRINGS = 10_000


class _ReplayState(Run):
    """Discrete-event execution of the composed net with exogenous system
    events.  Each step is recorded as the letter the model checker reads
    off it: a `run_letter` tuple, in the order of the model's `atoms`.

    One ordering rule (`_next`) decides what fires before a system event at
    time t: first an open-ended watcher that is already ripe; else one whose
    lower bound comes before the next deadline and before t, fired midway;
    else the watcher with the earliest deadline d <= t, where at d == t only
    watchers with priority over the event fire.  A watcher never fires while
    a higher-priority watcher is due at the same instant; ties go by name.

    Observers are non-intrusive, so replay follows only the watchers'
    clocks, those the composed model's `step_memo` tracks, and a system
    event the composed net cannot fire still raises in `model.fire`.
    `until` is the next system event's tick.
    """

    def __init__(self, inst: InstrumentedModel, scale: int):
        super().__init__(inst.model, inst.step_memo, scale)
        self.until: Optional[int] = None
        self.letters: list = []

    def double(self):
        super().double()
        if self.until is not None:
            self.until *= 2

    def _fire(self, name: str):
        self.letters.append(self.fire(name)[1])

    def _ripe(self) -> Optional[str]:
        """An open-ended watcher whose firing window is open by now."""
        for name in sorted(self.windows):
            w = self.windows[name]
            if w.latest is None and (w.earliest < self.now
                                     or (w.earliest == self.now and not w.earliest_strict)):
                return name
        return None

    def _next(self, sys: Optional[str]) -> Optional[str]:
        """The watcher that fires next before system event `sys` at time
        `until`, with the current instant moved to its firing; None if none
        does."""
        t = self.until
        if t is not None:
            # `now` <= `t`, so no watcher is ripe, fired midway or due when
            # every window's next instant is past `t`: its deadline, or an
            # open-ended one's lower bound
            for w in self.windows.values():
                if (w.earliest if w.latest is None else w.latest) <= t:
                    break
            else:
                return None
        ripe = self._ripe()
        if ripe is not None:
            return ripe
        d = min((w.latest for w in self.windows.values() if w.latest is not None),
                default=None)
        lows = [w.earliest for w in self.windows.values() if w.latest is None]
        if lows:
            # strictly past the lower bound, never past a deadline or `t`
            base = max(min(lows), self.now)
            cap = min(x for x in (base + 2 * self.scale, d, t) if x is not None)
            if base < cap:
                if (base + cap) % 2:
                    self.double()
                    base, cap = 2 * base, 2 * cap
                self.now = (base + cap) // 2
                return self._ripe()
        if d is None or (t is not None and d > t):
            return None
        due = sorted(n for n, w in self.windows.items() if w.latest == d)
        higher = self.model.higher
        for name in due:
            if d == t and sys is not None and name not in higher[sys]:
                continue
            if not higher[name].isdisjoint(due):
                continue
            self.now = d
            return name
        return None

    def play_until(self, t: Optional[int], sys: Optional[str] = None):
        """Fire every watcher that precedes system event `sys` at tick `t`,
        then move time to `t`; with `t` None, play out the idle tail."""
        self.until = t
        for _ in range(MAX_WATCHER_FIRINGS):
            name = self._next(sys)
            if name is None:
                break
            self._fire(name)
        else:
            raise ExplorationError(
                f"more than {MAX_WATCHER_FIRINGS} watcher firings without a system event")
        if self.until is not None:
            self.now = self.until


def replay_instrumented(inst: InstrumentedModel, trace) -> TraceVerdict:
    """Feed a recorded system trace through the instrumented model and read
    the observer formula on the composed run, as the model checker reads a
    path that ends in a deadlock: the final state stutters forever.  The
    formula is read by running the model's `lasso_program` on the run's
    letters.

    `trace` is a `TickedTrace`, such as a simulated run or its cut, or a
    `TimedTrace`, which is put in ticks first (`TickedTrace.of`).  Replay
    counts in ticks of the LCM of the model's `time_scale`, the trace's
    scale and the end's denominator, halved as the run needs."""
    if isinstance(trace, TimedTrace):
        trace = TickedTrace.of(trace)
    base, end = trace.scale, trace.trace.end
    st = _ReplayState(inst, math.lcm(inst.model.time_scale, base, end.denominator))
    for tick, (_, ev) in zip(trace.ticks, trace.trace.timed):
        st.play_until(tick * (st.scale // base), ev.transition)
        st._fire(ev.transition)
        # recorded post-state must agree on the system projection
        store = st.store
        for k, v in ev.store.items():
            if store.get(k) != v:
                raise ExplorationError(f"replay diverged on variable {k!r}")
    st.play_until(max(end.numerator * (st.scale // end.denominator), st.now))
    # play out remaining watcher deadlines over an idle tail: decisive oracle
    # verdicts are stable under every continuation, including this one
    st.play_until(None)
    final = run_letter(inst.atoms, st.marking, st.store, None, None, None)
    holds = run_lasso_program(inst.lasso_program, st.letters, [final])
    return TraceVerdict(Verdict.HOLDS if holds else Verdict.FAILS)
