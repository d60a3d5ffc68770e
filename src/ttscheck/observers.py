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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import classgraph as cg
from .expr import Assign, Binary, Expr, Lit, Name, Unary, free_names, parse_actions, parse_expr
from .model import (
    EventPredicate,
    ExplorationError,
    TimeBound,
    TimeInterval,
    Transition,
    TtsModel,
    VarDecl,
    closed_interval,
    enabled,
    matching_transitions,
    residual_predicate,
    step,
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
    eval_on_lasso,
    formula_atoms,
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
from .traces import TimedTrace, _window, duration


class ObserverError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Observer structure

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Fragment:
    prefix: str
    vars: tuple = ()
    places: tuple = ()
    transitions: tuple = ()
    hooks: tuple = ()
    priorities: tuple = ()  # pairs (higher: PrioSide, lower: PrioSide)


@dataclass(frozen=True)
class ObserverSpec:
    fragments: tuple
    formula: LtlFormula


@dataclass(frozen=True)
class InstrumentedModel:
    model: TtsModel
    provenance: dict  # element name -> "system" | "observer" | "hooked"
    formula: LtlFormula  # spec formula with event atoms pinned to system events

    @property
    def observer_transitions(self) -> set:
        return {n for n, k in self.provenance.items()
                if k == "observer" and n in self.model.transitions}


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
    if isinstance(e, Binary):
        return Binary(e.op, _prefix_expr(e.left, prefix), _prefix_expr(e.right, prefix))
    return e


def _guard(prefix: str, text: str) -> Expr:
    return _prefix_expr(parse_expr(text), prefix)


def _punctual(c: Fraction) -> TimeInterval:
    return closed_interval(c, c)


def _state(prefix: str, text: str) -> LtlFormula:
    return StateAtom(_guard(prefix, text))


def synthesize(p: Pattern) -> ObserverSpec:
    """Observer net and LTL formula deciding the pattern on any system."""
    counter = [0]

    def fresh_prefix() -> str:
        counter[0] += 1
        return f"ob{counter[0]}_"

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
    if isinstance(p, PresentAfterWithin):
        return [_synth_window_watcher(px, p.a, p.b, p.interval)], \
            _formula_present_after(px, p)
    if isinstance(p, AbsentAfterInterval):
        return [_synth_window_watcher(px, p.a, p.b, p.interval)], \
            _formula_absent_after(px, p)
    if isinstance(p, PresentFirstBeforeWithin):
        return [_synth_first_before(px, p)], _formula_first_before(px, p)
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


def _boundary_prio(closed_pair: tuple, open_pair: tuple, closed: bool) -> tuple:
    return closed_pair if closed else open_pair


def _synth_window_watcher(px: str, a: EventPredicate, b: EventPredicate,
                          iv: TimeInterval) -> Fragment:
    """Shared watcher: arms on the first B, latches an A inside the window.

    `Start` opens the window d1 after the first B; an A occurrence is latched
    only while the window flag is up; `Error` trips d2 after the first B
    unless an in-window A was latched.  For an unbounded window there is no
    Error deadline and verdicts read the latch directly.
    """
    d1, d2 = iv.lower, iv.upper
    transitions = [
        Transition(px + "Start", guard=_guard(px, "foundB & !flag"),
                   action=_acts(px, "flag := true"), timing=_punctual(d1.value)),
    ]
    prios = [_boundary_prio((("obs", px + "Start"), ("hook", "E1")),
                            (("hook", "E1"), ("obs", px + "Start")),
                            not d1.strict)]
    varnames = ["foundA", "foundB", "flag"]
    if not d2.is_infinite:
        varnames.append("errored")
        transitions.append(
            Transition(px + "Error", guard=_guard(px, "foundB & !foundA & !errored"),
                       action=_acts(px, "errored := true"), timing=_punctual(d2.value)))
        prios.append(_boundary_prio((("hook", "E1"), ("obs", px + "Error")),
                                    (("obs", px + "Error"), ("hook", "E1")),
                                    not d2.strict))
    return Fragment(
        prefix=px,
        vars=_bools(px, *varnames),
        transitions=tuple(transitions),
        hooks=(
            Hook("E1", a, _acts(px, "if flag then foundA := true")),
            Hook("E2", b, _acts(px, "foundB := true")),
        ),
        priorities=tuple(prios),
    )


def _formula_present_after(px: str, p: PresentAfterWithin) -> LtlFormula:
    if p.interval.upper.is_infinite:
        return LImplies(LEventually(EventAtom(p.b)), LEventually(_state(px, "foundA")))
    return LAlways(LNot(EventAtom(Name(px + "Error"))))


def _formula_absent_after(px: str, p: AbsentAfterInterval) -> LtlFormula:
    if p.interval.upper.is_infinite:
        return LAlways(LNot(_state(px, "foundA")))
    return LImplies(LEventually(EventAtom(p.b)),
                    LEventually(EventAtom(Name(px + "Error"))))


def _synth_first_before(px: str, p: PresentFirstBeforeWithin) -> Fragment:
    d1, d2 = p.interval.lower, p.interval.upper
    transitions = [
        Transition(px + "Start", guard=_guard(px, "foundA & !flag"),
                   action=_acts(px, "flag := true"), timing=_punctual(d1.value)),
    ]
    prios = [_boundary_prio((("obs", px + "Start"), ("hook", "E2")),
                            (("hook", "E2"), ("obs", px + "Start")),
                            not d1.strict)]
    varnames = ["foundA", "foundB", "flag"]
    if not d2.is_infinite:
        varnames.append("errored")
        transitions.append(
            Transition(px + "Error", guard=_guard(px, "foundA & !foundB & !errored"),
                       action=_acts(px, "errored := true"), timing=_punctual(d2.value)))
        prios.append(_boundary_prio((("hook", "E2"), ("obs", px + "Error")),
                                    (("obs", px + "Error"), ("hook", "E2")),
                                    not d2.strict))
    return Fragment(
        prefix=px,
        vars=_bools(px, *varnames),
        transitions=tuple(transitions),
        hooks=(
            Hook("E1", p.a, _acts(px, "foundA := true")),
            Hook("E2", p.b, _acts(px, "foundB := true")),
        ),
        priorities=tuple(prios),
    )


def _formula_first_before(px: str, p: PresentFirstBeforeWithin) -> LtlFormula:
    early = _state(px, "foundB & !flag")
    if p.interval.upper.is_infinite:
        bad = early
    else:
        bad = LOr(EventAtom(Name(px + "Error")), early)
    return LImplies(LEventually(EventAtom(p.b)), LNot(LEventually(bad)))


def _synth_lasting(px: str, p: PresentLasting) -> Fragment:
    # the state condition appears verbatim in watcher guards; no hooks needed
    poll_guard = Binary("&", p.a, Unary("!", Name(px + "foundA")))
    ok_guard = Binary("&", p.a, Unary("!", Name(px + "win")))
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
        transitions=(
            Transition(px + "ResetP", guard=_guard(px, "bad & ping"),
                       action=_acts(px, "bad := false"), timing=_punctual(p.d)),
            Transition(px + "ResetQ", guard=_guard(px, "bad & !ping"),
                       action=_acts(px, "bad := false"), timing=_punctual(p.d)),
        ),
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

    transitions = [
        Transition(px + "StartP", guard=_guard(px, "bad & ping"),
                   action=_acts(px, "bad := false"), timing=_punctual(d1.value)),
        Transition(px + "StartQ", guard=_guard(px, "bad & !ping"),
                   action=_acts(px, "bad := false"), timing=_punctual(d1.value)),
    ]
    prios = []
    for start in ("StartP", "StartQ"):
        prios.append(_boundary_prio((("obs", px + start), ("hook", "E2")),
                                    (("hook", "E2"), ("obs", px + start)),
                                    not d1.strict))
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
            prios.append(_boundary_prio((("hook", "E2"), ("obs", px + "Error")),
                                        (("obs", px + "Error"), ("hook", "E2")),
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

    places = dict(system.places)
    vars_ = dict(system.vars)
    for frag in spec.fragments:
        for decl in frag.vars:
            if decl.name in provenance:
                raise ObserverError(f"name clash on {decl.name!r}")
            vars_[decl.name] = decl
            provenance[decl.name] = "observer"
        for pdecl in frag.places:
            if pdecl.name in provenance:
                raise ObserverError(f"name clash on {pdecl.name!r}")
            places[pdecl.name] = pdecl
            provenance[pdecl.name] = "observer"

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
                        cond = residual if cond is None else Binary("&", residual, cond)
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

    model = TtsModel(system.name + "+obs", places, vars_, transitions,
                     tuple(priority))
    diags = validate_model(model)
    if diags:
        raise ObserverError("composed model invalid: "
                            + "; ".join(str(d) for d in diags))
    formula = _restrict_event_atoms(spec.formula, system, set(provenance))
    return InstrumentedModel(model, provenance, formula)


def _restrict_event_atoms(f: LtlFormula, system: TtsModel, taken: set) -> LtlFormula:
    """Pin pattern event atoms to system transitions, so observer firings in
    the composition can never satisfy them through their state parts."""
    def restrict(a: EventAtom) -> EventAtom:
        names = free_names(a.pred)
        if any(n not in system.places and n not in system.vars
               and n not in system.transitions for n in names):
            return a  # references observer elements: already specific
        if all(n in system.transitions for n in names):
            return a  # pure transition predicate cannot match observer steps
        matches = sorted(matching_transitions(a.pred, system))
        disj: Expr = Lit(False)
        for n in matches:
            disj = Name(n) if isinstance(disj, Lit) else Binary("|", disj, Name(n))
        return EventAtom(Binary("&", disj, a.pred)
                         if not isinstance(disj, Lit) else disj)

    def walk(g):
        if isinstance(g, EventAtom):
            return restrict(g)
        if isinstance(g, StateAtom):
            return g
        return type(g)(*map(walk, children(g)))

    return walk(f)


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

class _ReplayState:
    """Discrete-event execution of the composed net with exogenous system
    events; watcher transitions fire at their deadlines, ordered at shared
    instants by the declared priorities with system events first otherwise.
    Each step is recorded as the letter the model checker reads off it."""

    def __init__(self, inst: InstrumentedModel):
        self.model = inst.model
        self.obs_names = inst.observer_transitions
        self.atoms = formula_atoms(inst.formula)
        self.marking = self.model.initial_marking()
        self.store = self.model.initial_store()
        self.now = Fraction(0)
        self.watches: dict = {}
        self.letters: list = []
        for name in sorted(enabled(self.model, self.marking, self.store)):
            if name in self.obs_names:
                self.watches[name] = _window(self.model, name, Fraction(0))

    def _fire(self, name: str):
        prev_m, prev_s = self.marking, self.store
        self.marking, self.store, event, live, fresh = step(
            self.model, self.marking, self.store, name)
        self.letters.append(run_letter(self.atoms, prev_m, prev_s, event))
        for gone in [n for n in self.watches if n not in live]:
            del self.watches[gone]
        for n in sorted(live):
            if n in self.obs_names and (n in fresh or n not in self.watches):
                self.watches[n] = _window(self.model, n, self.now)

    def due_observers(self) -> list:
        """Watchers that must fire at the current instant (deadline hit)."""
        out = []
        for name, w in self.watches.items():
            if w.latest is not None and w.latest == self.now:
                out.append(name)
        return sorted(out)

    def next_deadline(self) -> Optional[Fraction]:
        ds = [w.latest for w in self.watches.values() if w.latest is not None]
        return min(ds) if ds else None

    def ripe_open_watcher(self) -> Optional[str]:
        """An open-ended watcher whose firing window has opened strictly
        before the current instant (or at it, for a non-strict bound)."""
        for name in sorted(self.watches):
            w = self.watches[name]
            if w.latest is None and (w.earliest < self.now
                                     or (w.earliest == self.now and not w.earliest_strict)):
                return name
        return None

    def next_open_lower(self) -> Optional[Fraction]:
        lows = [w.earliest for w in self.watches.values() if w.latest is None]
        return min(lows) if lows else None

    def obs_precedes(self, obs: str, sys_name: str) -> bool:
        return (obs, sys_name) in self.model.priority

    def fire_due(self, before_sys: Optional[str]) -> bool:
        """Fire watchers whose deadline is the current instant; restricted to
        those prioritized above the given system transition, if any.  Tells
        whether any fired."""
        fired_any = False
        for _ in range(200):
            fired = False
            for name in self.due_observers():
                if before_sys is not None and not self.obs_precedes(name, before_sys):
                    continue
                if self._blocked_by_higher(name):
                    continue
                self._fire(name)
                fired = fired_any = True
                break
            if not fired:
                return fired_any
        raise ExplorationError("observer firing loop exceeded bound")

    def fire_before(self, sys_name: Optional[str]):
        """Fire what precedes a system event at the current instant: a ripe
        open-ended watcher, then the due watchers prioritized above the
        event (every due watcher when there is no event)."""
        ripe = self.ripe_open_watcher()
        if ripe is not None:
            self._fire(ripe)
        self.fire_due(sys_name)

    def _blocked_by_higher(self, name: str) -> bool:
        """A due watcher yields to a higher-priority watcher also due now."""
        for h in self.model.higher_than(name):
            if h in self.watches:
                w = self.watches[h]
                if w.latest is not None and w.latest == self.now:
                    return True
        return False

    def advance_to(self, t: Optional[Fraction] = None):
        """Move time to t, playing out watcher firings due strictly before.

        An open-ended watcher fires eagerly, at an instant strictly past its
        lower bound but never beyond a pending deadline or the target time.
        With no target time, this is an idle tail after the last system
        event: every watcher deadline plays out until a step fires nothing
        (bounded: watcher state spaces are tiny and latched, so refirings
        change nothing new).
        """
        for _ in range(64 if t is None else 10_000):
            ripe = self.ripe_open_watcher()
            if ripe is not None:
                self._fire(ripe)
                continue
            d = self.next_deadline()
            lo = self.next_open_lower()
            if lo is not None:
                base = max(lo, self.now)
                cap = min(x for x in (base + 2, d, t) if x is not None)
                if base < cap:
                    self.now = (base + cap) / 2
                    continue
            if d is None or d < self.now or (t is not None and d >= t):
                break
            self.now = d
            if not self.fire_due(None) and self.ripe_open_watcher() is None:
                break
        else:
            if t is not None:
                raise ExplorationError("watcher scheduling did not settle")
        if t is not None:
            d = self.next_deadline()
            if d is not None and d < t:
                raise ExplorationError("watcher deadline missed during replay")
            self.now = t


def replay_instrumented(inst: InstrumentedModel, trace: TimedTrace) -> TraceVerdict:
    """Feed a recorded system trace through the instrumented model and read
    the observer formula on the composed run, as the model checker reads a
    path that ends in a deadlock: the final state stutters forever."""
    st = _ReplayState(inst)
    for (t, ev) in trace.event_times():
        st.advance_to(t)
        st.fire_before(ev.transition)
        st._fire(ev.transition)
        # recorded post-state must agree on the system projection
        for k, v in ev.store.items():
            if st.store.get(k) != v:
                raise ExplorationError(f"replay diverged on variable {k!r}")
    st.advance_to(max(duration(trace), st.now))
    st.fire_before(None)
    # play out remaining watcher deadlines over an idle tail: decisive oracle
    # verdicts are stable under every continuation, including this one
    st.advance_to()
    final = run_letter(st.atoms, st.marking, st.store, None)
    holds = eval_on_lasso(inst.formula, st.letters, [final])
    return TraceVerdict(Verdict.HOLDS if holds else Verdict.FAILS)


# ---------------------------------------------------------------------------
# Non-intrusiveness

def non_intrusiveness_check(system: TtsModel, inst: InstrumentedModel,
                            max_classes: int = 200_000) -> bool:
    """The composition must not disturb the system underneath.

    Compares the system's class graph with the composed one projected onto
    system components: same reachable (marking, store) set, same
    system-transition steps between projected states, and every observer
    step leaves the system components untouched.
    """
    g_sys = cg.build_graph(system, max_classes)
    g_comp = cg.build_graph(inst.model, max_classes)
    sys_places = set(system.places)
    sys_vars = set(system.vars)
    sys_trans = set(system.transitions)

    def proj(c) -> tuple:
        m = tuple(sorted((p, n) for p, n in c.marking.items()
                         if p in sys_places and n))
        s = tuple(sorted((k, v) for k, v in c.store.items() if k in sys_vars))
        return m, s

    sys_nodes = {proj(c) for c in g_sys.nodes}
    sys_edges = {(proj(g_sys.nodes[a]), t, proj(g_sys.nodes[b]))
                 for (a, t, b) in g_sys.edges}

    comp_nodes = {proj(c) for c in g_comp.nodes}
    comp_edges = set()
    for (a, t, b) in g_comp.edges:
        pa, pb = proj(g_comp.nodes[a]), proj(g_comp.nodes[b])
        if t in sys_trans:
            comp_edges.add((pa, t, pb))
        elif pa != pb:
            return False  # an observer step moved system state
    return sys_nodes == comp_nodes and sys_edges == comp_edges
