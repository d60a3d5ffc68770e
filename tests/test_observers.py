import copy
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ttscheck import classgraph as cg
from ttscheck import observers
from ttscheck.expr import eval_expr, format_expr
from ttscheck.ltl import (
    TT,
    EventAtom,
    LAlways,
    LAnd,
    LEventually,
    LImplies,
    LNot,
    LOr,
    StateAtom,
    check,
    formula_atoms,
)
from ttscheck.model import Event, ExplorationError, Transition, closed_interval, eval_predicate
from ttscheck.observers import (
    Fragment,
    ObserverError,
    ObserverSpec,
    compose,
    replay_instrumented,
    synthesize,
)
from ttscheck.oracle import Verdict, fott_holds
from ttscheck.patterns import parse_pattern, pattern_constants
from ttscheck.traces import Run, serialize_trace, simulate, simulate_ticked, truncate
from ttscheck.expr import Name

from conftest import guarded_nets, xcheck_catalog
from reference import (
    FractionReplayState,
    FullReplayState,
    eval_letter,
    eval_on_lasso,
    format_actions,
    fraction_replay_instrumented,
    higher_by_scan,
    non_intrusiveness_check,
)


# ---------------------------------------------------------------------------
# synthesis shapes

def test_window_watcher_fragment_shape():
    p = parse_pattern("present a after b within [1,4]")
    spec = synthesize(p)
    (frag,) = spec.fragments
    names = {t.name: t for t in frag.transitions}
    start, error = names["ob1_Start"], names["ob1_Error"]
    assert str(start.timing) == "[1,1]"
    assert str(error.timing) == "[4,4]"
    assert format_expr(start.guard) == "ob1_foundB & !ob1_flag"
    assert "ob1_foundB & !ob1_foundA" in format_expr(error.guard)
    roles = [h.role for h in frag.hooks]
    assert roles == ["E1", "E2"]
    assert format_actions(frag.hooks[0].actions) \
        == "if ob1_flag then ob1_foundA := true"
    # closed brackets: watcher opens before the occurrence hook, which in
    # turn beats the error deadline
    assert (("obs", "ob1_Start"), ("hook", "E1")) in frag.priorities
    assert (("hook", "E1"), ("obs", "ob1_Error")) in frag.priorities


@pytest.mark.parametrize("text,role,closed", [
    ("present a after b within [1,4]", "E1", True),
    ("present a after b within ]1,4[", "E1", False),
    ("present first a before b within [1,4]", "E2", True),
    ("present first a before b within ]1,4[", "E2", False),
], ids=["after-closed", "after-open", "first-closed", "first-open"])
def test_open_brackets_flip_priorities(text, role, closed):
    (frag,) = synthesize(parse_pattern(text)).fragments
    hook, start, error = ("hook", role), ("obs", "ob1_Start"), ("obs", "ob1_Error")
    if closed:
        assert set(frag.priorities) == {(start, hook), (hook, error)}
    else:
        assert set(frag.priorities) == {(hook, start), (error, hook)}


@pytest.mark.parametrize("text,stem,delay", [
    ("a leadsto first b within [2,5]", "Start", "[2,2]"),
    ("absent a before b for duration 3", "Reset", "[3,3]"),
], ids=["leadsto-start", "absent-before-reset"])
def test_rearm_pair_shape(text, stem, delay):
    (frag,) = synthesize(parse_pattern(text)).fragments
    names = {t.name: t for t in frag.transitions}
    p, q = names[f"ob1_{stem}P"], names[f"ob1_{stem}Q"]
    assert format_expr(p.guard) == "ob1_bad & ob1_ping"
    assert format_expr(q.guard) == "ob1_bad & !ob1_ping"
    for t in (p, q):
        assert str(t.timing) == delay
        assert format_actions(t.action) == "ob1_bad := false"
    # each arming flips ping, handing the countdown to the other transition
    (arm,) = [h for h in frag.hooks if h.role == "E1"]
    assert format_actions(arm.actions).endswith("ob1_bad := true; ob1_ping := !ob1_ping")


def test_lasting_fragment_gives_ok_priority_over_error():
    p = parse_pattern("present Refresh lasting 6")
    (frag,) = synthesize(p).fragments
    assert (("obs", "ob1_OK"), ("obs", "ob1_Error")) in frag.priorities
    assert (("obs", "ob1_Error"), ("obs", "ob1_OK")) not in frag.priorities


def test_unbounded_window_has_no_error_transition():
    p = parse_pattern("present a after b within [2,oo[")
    (frag,) = synthesize(p).fragments
    assert all("Error" not in t.name for t in frag.transitions)


def test_composite_uses_disjoint_fragments():
    p = parse_pattern("(present a after b within [0,1]) and (present b after a within [0,2])")
    spec = synthesize(p)
    assert len(spec.fragments) == 2
    names0 = {t.name for t in spec.fragments[0].transitions}
    names1 = {t.name for t in spec.fragments[1].transitions}
    assert not names0 & names1


# ---------------------------------------------------------------------------
# composition

def test_compose_appends_hook_actions(airlock):
    p = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")
    inst = compose(airlock, synthesize(p))
    open1 = inst.model.transitions["Open1"]
    assert any(a.target == "ob1_foundB" for a in open1.action)
    ventil = inst.model.transitions["Ventil"]
    assert any(a.target == "ob1_foundA" for a in ventil.action)
    buttons = inst.model.transitions["Button1"]
    assert all(not a.target.startswith("ob1_") for a in buttons.action)


def test_compose_preserves_system_structure(airlock):
    p = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")
    inst = compose(airlock, synthesize(p))
    for name, t in airlock.transitions.items():
        t2 = inst.model.transitions[name]
        assert t2.guard == t.guard
        assert t2.timing == t.timing
        assert (t2.pre, t2.post, t2.read) == (t.pre, t.post, t.read)
        assert t2.action[:len(t.action)] == t.action
    for name, decl in airlock.places.items():
        assert inst.model.places[name] == decl
    for name, decl in airlock.vars.items():
        assert inst.model.vars[name] == decl
    assert set(airlock.priority) <= set(inst.model.priority)


def test_compose_state_predicate_hooks_are_conditional(airlock):
    # matches Button2 events only when the post-state has req2
    p = parse_pattern("present Ventil after (Open2 | req2) within [0,10]")
    inst = compose(airlock, synthesize(p))
    b2 = inst.model.transitions["Button2"]
    hook = [a for a in b2.action if a.target == "ob1_foundB"]
    assert hook and hook[0].cond is not None
    assert "req2" in format_expr(hook[0].cond)
    open2 = inst.model.transitions["Open2"]
    hook2 = [a for a in open2.action if a.target == "ob1_foundB"]
    assert hook2 and hook2[0].cond is None  # transition atom matches outright


def test_compose_rejects_name_clash(airlock):
    p = parse_pattern("present Ventil after Open1 within [0,10]")
    spec = synthesize(p)
    frag = spec.fragments[0]
    clashing = Fragment(frag.prefix, frag.vars,
                        frag.transitions + (Transition("Ventil"),),
                        frag.hooks, frag.priorities)
    with pytest.raises(ObserverError):
        compose(airlock, ObserverSpec((clashing,), spec.formula))


@settings(max_examples=30, deadline=None)
@given(guarded_nets(), st.sets(st.integers(1, 3)), st.data())
def test_observer_prefixes_skip_the_names_a_model_declares(text, taken, data):
    # declared ob<k>_ names the system never reads: each observer takes the
    # next free prefix, and the verdict is the one of the net without them;
    # a net whose composed graph outgrows the class budget is dropped
    from ttscheck.model import parse_tts

    plain = parse_tts(text)
    names = sorted(plain.transitions)
    t1, t2 = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
    pk = data.draw(st.sampled_from(sorted(plain.places)))
    p = parse_pattern(f"(present {pk} lasting 2) and ({t1} leadsto first {t2} within [0,3])")
    decls = " ".join(f"ob{k}_foundA=false" for k in sorted(taken))
    model = parse_tts(text + (f"\nvars {decls}" if decls else ""))
    spec = synthesize(p, model)
    assert synthesize(p, plain) == synthesize(p)  # no clash: the same observers
    for frag in spec.fragments:
        assert not any(n.startswith(frag.prefix) for n in model.vars)
    inst = compose(model, spec)
    plain_inst = compose(plain, synthesize(p))
    try:
        g, plain_g = cg.build_graph(inst.model, 2_000), cg.build_graph(plain_inst.model, 2_000)
    except cg.ClassBudgetExceeded:
        reject()
    assert check(g, inst.formula).passed == check(plain_g, plain_inst.formula).passed


def test_compose_with_unmatched_predicate_is_vacuous(airlock):
    p = parse_pattern("present (Open1 & Open2) after (Open1 & Open2) within [0,1]")
    inst = compose(airlock, synthesize(p))
    for name, t in airlock.transitions.items():
        assert inst.model.transitions[name].action == t.action
    g = cg.build_graph(inst.model)
    assert check(g, inst.formula).passed  # no trigger can ever occur


# ---------------------------------------------------------------------------
# observer variables stay write-only from the system's point of view

def test_observer_variables_not_read_by_system_guards(airlock):
    p = parse_pattern("Button2 leadsto first Open2 within [0,10] before Shutdown")
    inst = compose(airlock, synthesize(p))
    from ttscheck.expr import free_names

    obs_vars = {n for n, k in inst.provenance.items()
                if k == "observer" and n in inst.model.vars}
    for name in airlock.transitions:
        t = inst.model.transitions[name]
        if t.guard is not None:
            assert not (free_names(t.guard) & obs_vars)


# ---------------------------------------------------------------------------
# replay cross-validation (the heavyweight version is acceptance A3)

def test_replay_agrees_with_oracle_smoke(airlock):
    pats = [
        "present Ventil after (Open1 | Open2) within [0,10]",
        "present Ventil after (Open1 | Open2) within [0,9]",
        "absent Open1 before Close1 for duration 3",
        "Button2 leadsto first Open2 within [0,10] before Shutdown",
    ]
    for text in pats:
        p = parse_pattern(text)
        inst = compose(airlock, synthesize(p))
        for seed in range(25):
            t = simulate(airlock, Fraction(36), seed)
            fv = fott_holds(p, t)
            if fv.value is Verdict.INCONCLUSIVE:
                continue
            rv = replay_instrumented(inst, t)
            assert rv.value is fv.value, (text, seed)


def test_replay_detects_boundary_exactly(airlock):
    # Ventil occurs exactly 10 u.t. after the first Open: closed in, open out
    closed = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")
    open_ = parse_pattern("present Ventil after (Open1 | Open2) within [0,10[")
    t = simulate(airlock, Fraction(24), 1)
    assert any(e.transition.startswith("Open") for e in t.events)
    inst_c = compose(airlock, synthesize(closed))
    inst_o = compose(airlock, synthesize(open_))
    fc, fo = fott_holds(closed, t), fott_holds(open_, t)
    if fc.decisive:
        assert replay_instrumented(inst_c, t).value is fc.value
    if fo.decisive:
        assert replay_instrumented(inst_o, t).value is fo.value


def test_replay_reads_steps_as_the_model_checker_does():
    # state atoms read a step's source state, event atoms the fired event and
    # its post-state, and the final state stutters forever
    from ttscheck.model import parse_tts

    m = parse_tts("vars done=false\ntrans go pre {!done} in [1,1] act {done := true}\n",
                  name="once")
    t = simulate(m, Fraction(3), 0)
    assert [e.transition for e in t.events] == ["go"]
    go, done = EventAtom(Name("go")), StateAtom(Name("done"))
    for formula, holds in ((LEventually(LAnd(go, LNot(done))), True),
                           (LEventually(LAnd(go, done)), False),
                           (LEventually(LAnd(go, EventAtom(Name("done")))), True),
                           (LEventually(done), True),
                           (LAlways(LNot(done)), False),
                           (LEventually(LAnd(done, LNot(go))), True)):
        inst = compose(m, ObserverSpec((), formula))
        assert (replay_instrumented(inst, t).value is Verdict.HOLDS) is holds, formula
        assert check(cg.build_graph(inst.model), inst.formula).passed is holds, formula


def ref_run_eval(f, run: list, final_state: tuple, i: int = 0) -> bool:
    """Weak finite-run LTL evaluation, independent of `run_letter`, of
    `eval_on_lasso` and of the lasso program: event atoms on events (post-state), state atoms on the
    source state of the step; one virtual final position carries the
    terminal state.  `run` holds (pre_marking, pre_store, Event) steps."""
    n = len(run) + 1  # positions 0..len(run)-1 are steps, n-1 is the end

    def atom(g, j: int) -> bool:
        if isinstance(g, EventAtom):
            if j >= len(run):
                return False
            return eval_predicate(g.pred, run[j][2])
        if isinstance(g, StateAtom):
            m, s = final_state if j >= len(run) else run[j][:2]
            return bool(eval_expr(g.expr, m, s))
        raise AssertionError(g)

    def ev(g, j: int) -> bool:
        if isinstance(g, TT):
            return True
        if isinstance(g, (EventAtom, StateAtom)):
            return atom(g, j)
        if isinstance(g, LNot):
            return not ev(g.f, j)
        if isinstance(g, LAnd):
            return ev(g.left, j) and ev(g.right, j)
        if isinstance(g, LOr):
            return ev(g.left, j) or ev(g.right, j)
        if isinstance(g, LImplies):
            return (not ev(g.left, j)) or ev(g.right, j)
        if isinstance(g, LAlways):
            return all(ev(g.f, k) for k in range(j, n))
        if isinstance(g, LEventually):
            return any(ev(g.f, k) for k in range(j, n))
        raise AssertionError(f"unsupported observer formula node {g!r}")

    return ev(f, i)


def test_lasso_reading_agrees_with_weak_run_evaluation(monkeypatch, airlock, relay, chain):
    # every replayed run of the catalogs, inconclusive-oracle runs included:
    # the final state stuttering forever reads like the weak finite reading.
    # Each step is recorded where every firing passes, `_ReplayState._fire`,
    # whether or not the step memo already held it; the final stutter
    # letter where the lasso program reads it
    steps = []
    replays = []
    lasso_program_run = observers.run_lasso_program

    class Recording(observers._ReplayState):
        def __init__(self, *args):
            super().__init__(*args)
            replays.append(self)

        def _fire(self, name):
            m, s = self.marking, self.store
            super()._fire(name)
            steps.append((m, s, Event(name, self.marking, self.store), self.letters[-1]))

    def reading(program, stem, cycle):
        (st,) = replays
        assert stem is st.letters and len(cycle) == 1
        steps.append((st.marking, st.store, None, cycle[0]))
        return lasso_program_run(program, stem, cycle)

    monkeypatch.setattr(observers, "_ReplayState", Recording)
    monkeypatch.setattr(observers, "run_lasso_program", reading)
    compared = holds = 0
    for model in (airlock, relay, chain):
        patterns = [parse_pattern(t) for t in xcheck_catalog(model.name)]
        horizon = 3 * max(c for p in patterns for c in pattern_constants(p))
        traces = [simulate(model, Fraction(horizon), seed) for seed in range(100)]
        for p in patterns:
            inst = compose(model, synthesize(p))
            atoms = formula_atoms(inst.formula)
            for seed, t in enumerate(traces):
                steps.clear()
                replays.clear()
                rv = replay_instrumented(inst, t)
                *run, (m, s, last, _) = steps
                assert last is None and all(e is not None for (_, _, e, _) in run)
                expected = ref_run_eval(inst.formula, run, (m, s))
                letters = [eval_letter(atoms, *step[:3]) for step in steps]
                assert [dict(zip(inst.atoms, step[3])) for step in steps] == letters
                assert eval_on_lasso(inst.formula, letters[:-1], letters[-1:]) is expected
                assert (rv.value is Verdict.HOLDS) is expected, (model.name, p, seed)
                compared += 1
                holds += expected
    assert compared == 3 * 8 * 100
    assert 0 < holds < compared


# ---------------------------------------------------------------------------
# replay scheduling: the one ordering rule against the three-loop scheduler

class RefReplayState(FullReplayState):
    """Reference scheduler: what fires before a system event is decided by
    three loops, `advance_to` (deadlines and open-ended watchers strictly
    before the event), `fire_before` (a ripe watcher, then the due watchers
    prioritized above the event) and `fire_due`, each with its own bound.
    Enabledness is tracked over every transition (`FullReplayState`)."""

    def due_observers(self) -> list:
        return sorted(n for n, w in self.windows.items()
                      if w.latest is not None and w.latest == self.now)

    def next_deadline(self):
        ds = [w.latest for w in self.windows.values() if w.latest is not None]
        return min(ds) if ds else None

    def ripe_open_watcher(self):
        for name in sorted(self.windows):
            w = self.windows[name]
            if w.latest is None and (w.earliest < self.now
                                     or (w.earliest == self.now and not w.earliest_strict)):
                return name
        return None

    def next_open_lower(self):
        lows = [w.earliest for w in self.windows.values() if w.latest is None]
        return min(lows) if lows else None

    def fire_due(self, before_sys) -> bool:
        fired_any = False
        for _ in range(200):
            fired = False
            for name in self.due_observers():
                if before_sys is not None and (name, before_sys) not in self.model.priority:
                    continue
                if self._blocked_by_higher(name):
                    continue
                self._fire(name)
                fired = fired_any = True
                break
            if not fired:
                return fired_any
        raise ExplorationError("observer firing loop exceeded bound")

    def fire_before(self, sys_name):
        ripe = self.ripe_open_watcher()
        if ripe is not None:
            self._fire(ripe)
        self.fire_due(sys_name)

    def _blocked_by_higher(self, name: str) -> bool:
        for h in higher_by_scan(self.model, name):
            w = self.windows.get(h)
            if w is not None and w.latest is not None and w.latest == self.now:
                return True
        return False

    def advance_to(self, t=None):
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


def ref_replay_instrumented(inst, trace, state_cls=RefReplayState):
    st = state_cls(inst)
    for (t, ev) in trace.timed:
        st.advance_to(t)
        st.fire_before(ev.transition)
        st._fire(ev.transition)
    st.advance_to(max(trace.end, st.now))
    st.fire_before(None)
    st.advance_to()
    final = eval_letter(st.atoms, st.marking, st.store, None)
    holds = eval_on_lasso(inst.formula, st.letters, [final])
    return Verdict.HOLDS if holds else Verdict.FAILS


def scheduling_cases(model) -> tuple:
    """The model's catalog plus one `and` and one `=>` composite, and the
    horizons H/3, H and 5H, H being three times the largest constant."""
    cat = xcheck_catalog(model.name)
    texts = cat + [f"({cat[2]}) and ({cat[4]})", f"({cat[6]}) => ({cat[0]})"]
    patterns = [parse_pattern(t) for t in texts]
    h = 3 * max([Fraction(1)] + [c for p in patterns for c in pattern_constants(p)
                                 if c is not None])
    return patterns, (h / 3, h, 5 * h)


def rational_clock(state) -> tuple:
    """A run's instant and its live windows, as rationals: a `traces.Run`
    keeps ticks of 1/`scale`, the reference replays `Fraction`s."""
    scale = getattr(state, "scale", 1)

    def at(x):
        return None if x is None else Fraction(x, scale)

    return at(state.now), {n: (at(w.earliest), w.earliest_strict, at(w.latest), w.latest_strict)
                           for n, w in state.windows.items()}


def test_replay_scheduling_matches_reference(monkeypatch, airlock, relay, chain):
    # same composed run: every firing, the instant it happens, the window of
    # every live watcher after it, and the verdict
    logs = []

    def recording(cls):
        class Recording(cls):
            def __init__(self, *args):
                super().__init__(*args)
                self.log = [(None,) + rational_clock(self)]
                logs.append(self.log)

            def _fire(self, name):
                super()._fire(name)
                self.log.append((name,) + rational_clock(self))
        return Recording

    ref_state = recording(RefReplayState)
    monkeypatch.setattr(observers, "_ReplayState", recording(observers._ReplayState))
    compared = watcher_firings = 0
    for model in (airlock, relay, chain):
        patterns, horizons = scheduling_cases(model)
        insts = [compose(model, synthesize(p)) for p in patterns]
        for h in horizons:
            for seed in range(40):
                trace = simulate(model, h, seed)
                for p, inst in zip(patterns, insts):
                    logs.clear()
                    ref = ref_replay_instrumented(inst, trace, ref_state)
                    got = replay_instrumented(inst, trace).value
                    ref_log, log = logs
                    assert (log, got) == (ref_log, ref), (model.name, p, h, seed)
                    compared += 1
                    watcher_firings += sum(n in inst.observer_transitions
                                           for (n, _, _) in log)
    assert compared == 3 * 10 * 3 * 40
    assert watcher_firings > 0


# ---------------------------------------------------------------------------
# replay tracks only the watchers' clocks: against full enabledness tracking

def logged_replay(inst, trace, reference=None) -> tuple:
    """`replay_instrumented`, or with `reference` the `Fraction` replay
    through that state class: the firing log (each firing, its instant and
    the live watchers' windows after it, as rationals), the letters as
    dicts keyed by atom, the verdict or the message of the error that ended
    it, and the state."""
    states = []

    class Logged(observers._ReplayState if reference is None else reference):
        def __init__(self, *args):
            super().__init__(*args)
            self.log = [(None,) + rational_clock(self)]
            states.append(self)

        def _fire(self, name):
            super()._fire(name)
            self.log.append((name,) + rational_clock(self))

    try:
        if reference is None:
            with mock.patch.object(observers, "_ReplayState", Logged):
                outcome = replay_instrumented(inst, trace).value
        else:
            outcome = fraction_replay_instrumented(inst, trace, Logged).value
    except ExplorationError as exc:
        outcome = str(exc)
    (state,) = states
    letters = state.letters
    if reference is None:  # tuples in the order of the model's atoms
        letters = [dict(zip(inst.atoms, letter)) for letter in letters]
    return state.log, letters, outcome, state


def assert_watcher_tracking_matches_full(inst, trace, where):
    start = copy.deepcopy(inst.step_memo.start)
    got = logged_replay(inst, trace)[:3]
    assert got == logged_replay(inst, trace, FullReplayState)[:3], where
    assert inst.step_memo.start == start, where  # shared by every replay, never changed


def test_watcher_tracking_matches_full_enabledness_on_the_catalogs(airlock, relay, chain):
    compared = 0
    for model in (airlock, relay, chain):
        patterns, horizons = scheduling_cases(model)
        insts = [compose(model, synthesize(p)) for p in patterns]
        for h in horizons:
            for seed in range(10):
                trace = simulate(model, h, seed)
                for p, inst in zip(patterns, insts):
                    assert_watcher_tracking_matches_full(inst, trace, (model.name, p, h, seed))
                    compared += 1
    assert compared == 3 * 3 * 10 * 10


def test_int_replay_matches_fraction_replay_on_the_catalogs(airlock, relay, chain):
    # ticks against `Fraction` time: same log, letters and verdict or error,
    # and the one replay start left as it was
    compared = halved = 0
    for model in (airlock, relay, chain):
        patterns, horizons = scheduling_cases(model)
        insts = [compose(model, synthesize(p)) for p in patterns]
        for h in horizons:
            for seed in range(40, 70):
                trace = simulate(model, h, seed)
                for p, inst in zip(patterns, insts):
                    start = copy.deepcopy(inst.step_memo.start)
                    *got, state = logged_replay(inst, trace)
                    *ref, _ = logged_replay(inst, trace, FractionReplayState)
                    assert got == ref, (model.name, p, h, seed)
                    assert inst.step_memo.start == start
                    scale = math.lcm(inst.model.time_scale, trace.end.denominator,
                                     *(t.denominator for t, _ in trace.timed))
                    halved += state.scale > scale
                    compared += 1
    assert compared == 3 * 3 * 30 * 10
    assert halved > 0  # some midpoint fell between two ticks


def test_replay_of_the_tick_cut_matches_fraction_replay_on_the_catalogs(
        airlock, relay, chain):
    # `xcheck`'s handoff: a run simulated in ticks to the longest horizon and
    # cut at each pattern's own replays with the log, letters and verdict or
    # error of the `Fraction` replay of the cut's trace
    compared = 0
    for model in (airlock, relay, chain):
        patterns = [parse_pattern(t) for t in xcheck_catalog(model.name)]
        insts = [compose(model, synthesize(p)) for p in patterns]
        horizons = [3 * max([Fraction(1)] + pattern_constants(p)) for p in patterns]
        for seed in range(200):
            run = simulate_ticked(model, max(horizons), seed)
            for p, inst, h in zip(patterns, insts, horizons):
                cut = truncate(run, h)
                assert logged_replay(inst, cut)[:3] == \
                    logged_replay(inst, cut.trace, FractionReplayState)[:3], (model.name, p, seed)
                compared += 1
    assert compared == 3 * 8 * 200


@settings(max_examples=100, deadline=None)
@given(guarded_nets(), st.data())
def test_replay_of_the_tick_cut_matches_fraction_replay_with_open_ended_watchers(text, data):
    # a scoped `leadsto` with a closed upper bound has an open-ended Error
    # window, which replay fires midway between its lower bound and the next
    # deadline or system event
    from ttscheck.model import parse_tts

    model = parse_tts(text)
    names = st.sampled_from(sorted(model.transitions))
    a, b, r = data.draw(names), data.draw(names), data.draw(names)

    def rationals(most):
        return st.builds(Fraction, st.integers(0, most), st.integers(1, 3))

    lo, width = data.draw(rationals(12)), data.draw(rationals(12))
    h, longer = data.draw(rationals(60)), data.draw(rationals(30))
    try:
        run = simulate_ticked(model, h + longer, data.draw(st.integers(0, 1000)))
    except ExplorationError:  # a zero-delay cycle
        return
    cut = truncate(run, h)
    for scope in ("before", "after"):
        p = parse_pattern(f"{a} leadsto first {b} within [{lo},{lo + width}] {scope} {r}")
        inst = compose(model, synthesize(p))
        assert any(inst.model.transitions[n].timing.upper.is_infinite
                   for n in inst.observer_transitions)
        assert logged_replay(inst, cut)[:3] == \
            logged_replay(inst, cut.trace, FractionReplayState)[:3], p


def run_along(model, trace, halve_after=None) -> list:
    """A `traces.Run` of the simulator's memo firing the trace's events at
    their times, its tick halved after firing number `halve_after`: its
    clock at the start, then each firing's result and clock."""
    run = Run(model, model.step_memo,
              math.lcm(model.time_scale, *(t.denominator for t, _ in trace.timed)))
    out = [rational_clock(run)]
    for k, (t, ev) in enumerate(trace.timed):
        run.now = t.numerator * (run.scale // t.denominator)
        out.append((run.fire(ev.transition), rational_clock(run)))
        if k == halve_after:
            scale = run.scale
            run.double()
            assert (run.scale, rational_clock(run)) == (2 * scale, out[-1][1])
    return out


def test_halving_the_tick_after_any_firing_moves_no_time(monkeypatch, relay, chain):
    # a run halves its tick only when a time falls between two ticks; doing
    # so after any firing besides must leave its clock, as rationals, and
    # every later firing as they were: along simulated runs, and in
    # instrumented replay, whose `until` halves with the run
    replays = []
    for model in (relay, chain):
        patterns, horizons = scheduling_cases(model)
        insts = [compose(model, synthesize(p)) for p in patterns]
        for seed in range(8):
            trace = simulate(model, horizons[1], seed)
            expected = run_along(model, trace)
            assert len(expected) > 5
            for k in range(len(trace.timed)):
                assert run_along(model, trace, k) == expected, (model.name, seed, k)
            replays.append((trace, insts, [logged_replay(i, trace)[:3] for i in insts]))
    fire = Run.fire

    def halving(run, name):
        out = fire(run, name)
        run.double()
        return out

    monkeypatch.setattr(Run, "fire", halving)
    for trace, insts, logs in replays:
        for inst, log in zip(insts, logs):
            assert logged_replay(inst, trace)[:3] == log, inst.formula


@settings(max_examples=60, deadline=None)
@given(guarded_nets(), st.data())
def test_watcher_tracking_matches_full_enabledness_on_guarded_nets(text, data):
    # the watchers' guards read places that system firings consume
    from ttscheck.model import parse_tts

    model = parse_tts(text)
    places = st.sampled_from(sorted(model.places))
    pk, pi, pj = data.draw(places), data.draw(places), data.draw(places)
    d = Fraction(data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4)))
    try:
        trace = simulate(model, Fraction(20), data.draw(st.integers(0, 1000)))
    except ExplorationError:  # a zero-delay cycle
        return
    for p in (f"present {pk} lasting {d}", f"absent {pi} before {pj} for duration {d}"):
        inst = compose(model, synthesize(parse_pattern(p)))
        assert_watcher_tracking_matches_full(inst, trace, p)


def test_idle_tail_that_never_settles_is_an_exploration_error():
    from ttscheck.model import parse_tts

    m = parse_tts("places P=1\ntrans go consume {P}\n", name="once")
    tick = Transition("ob_Tick", timing=closed_interval(Fraction(1), Fraction(1)))
    inst = compose(m, ObserverSpec((Fragment("ob_", transitions=(tick,)),),
                                   LAlways(LNot(EventAtom(Name("ob_Tick"))))))
    trace = simulate(m, Fraction(3), 0)
    with pytest.raises(ExplorationError, match="watcher firings"):
        replay_instrumented(inst, trace)


# ---------------------------------------------------------------------------
# non-intrusiveness

def test_non_intrusive_for_sampled_observers(airlock):
    for text in ("present Refresh lasting 6",
                 "absent Open1 before Close1 for duration 3",
                 "Button2 leadsto first Open2 within [0,10]"):
        inst = compose(airlock, synthesize(parse_pattern(text)))
        assert non_intrusiveness_check(airlock, inst)


def test_token_stealing_rogue_is_detected(airlock):
    rogue = ObserverSpec(
        (Fragment("rg_", transitions=(
            Transition("rg_Steal", timing=closed_interval(Fraction(1), Fraction(1)),
                       pre=("Idle",)),)),),
        LAlways(LNot(EventAtom(Name("rg_Steal")))))
    inst = compose(airlock, rogue)
    assert not non_intrusiveness_check(airlock, inst)


def test_empty_observer_is_non_intrusive(airlock):
    from ttscheck.ltl import TT

    empty = ObserverSpec((), TT())
    inst = compose(airlock, empty)
    assert non_intrusiveness_check(airlock, inst)


def test_replay_composite_mixed_watcher_windows(chain):
    # one fragment carries an open-ended error window, the other punctual
    # deadlines at fractional offsets: no deadline may be silently skipped
    p = parse_pattern(
        "(Step2 leadsto first Reset within [4,5] before Exit) and "
        "(present A3 lasting 11/2)")
    inst = compose(chain, synthesize(p))
    for seed in range(40):
        t = simulate(chain, Fraction(30), seed)
        fv = fott_holds(p, t)
        if fv.value is Verdict.INCONCLUSIVE:
            continue
        rv = replay_instrumented(inst, t)
        assert rv.value is fv.value, seed


def test_absence_vacuity_when_trigger_never_occurs():
    # the expected-error formula is implication-guarded: it must pass on a
    # system whose trigger cannot occur, where the error never fires either
    from ttscheck.model import parse_tts

    m = parse_tts("""
places P=1
vars go=false
trans A in [1,2] read {P}
trans B pre {go} in [0,5] consume {P}
""", name="nob")
    p = parse_pattern("absent A after B for interval [0,3]")
    inst = compose(m, synthesize(p))
    g = cg.build_graph(inst.model)
    assert check(g, inst.formula).passed
    error_edges = [e for e in g.edges if "Error" in e[1]]
    assert not error_edges
