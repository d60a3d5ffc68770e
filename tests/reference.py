"""Test-only references that the product code does not call.

Each is an independent reading that a test compares the product against:
Büchi membership of a lasso word, the product search as it read dict
letters and re-scanned graph steps for a lasso's labels
(`ref_check_buchi`), the direct recursive evaluation of a
formula on a lasso of dict letters (`eval_on_lasso`, which
`ltl.run_lasso_program` replaced in replay), the `eval_expr` dict reader of
a step's atoms (`eval_letter`, which the tuple reader `ltl.run_letter`
replaced), the non-intrusiveness of an observer composition, the text form
of an action list, the simulator and instrumented replay with `Fraction`
time, a replay that tracks every transition's enabledness, and the
character-scanning readers of `.tts` transition lines and `.pat` lines that
the token-level ones replaced, the Fraction zones built on
`zone.canonicalize` with the readers that decode a `zone.Domain` to them,
the per-class method source that `records` compiled before it compiled
one template per record shape (`record_methods`), and the untimed language
of a closed-bound net read off its runs at integer times
(`integer_language`), which the class graph must give.
No module under `src/ttscheck` imports this one.
"""

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ttscheck import classgraph as cg
from ttscheck import zone
from ttscheck.expr import (
    Assign,
    ExprError,
    Token,
    _Parser,
    eval_expr,
    format_expr,
    format_rational,
    parse_rational,
    tokenize,
)
from ttscheck.ltl import (
    FF,
    STUTTER,
    TT,
    BuchiAutomaton,
    CheckResult,
    Counterexample,
    EventAtom,
    LAnd,
    LNot,
    LOr,
    LRelease,
    LtlFormula,
    LUntil,
    StateAtom,
    _nested_dfs,
    formula_atoms,
    graph_steps,
    ltl_to_buchi,
    nnf,
    subformulas,
    truth,
)
from ttscheck.model import (
    DEFAULT_INTERVAL,
    Event,
    ExplorationError,
    ModelError,
    TimeBound,
    TimeInterval,
    Transition,
    TtsModel,
    enabled,
    read_interval,
    step,
)
from ttscheck.observers import MAX_WATCHER_FIRINGS, InstrumentedModel
from ttscheck.oracle import TraceVerdict, Verdict
from ttscheck.patterns import (
    AbsentAfterInterval,
    AbsentBeforeDuration,
    AfterScope,
    AndPattern,
    BeforeScope,
    GlobalScope,
    ImpliesPattern,
    LeadstoFirstWithin,
    PatternError,
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
)
from ttscheck.traces import (
    ENDPOINT_BIAS,
    MAX_FIRINGS_AT_ONE_INSTANT,
    TimedTrace,
)


def buchi_accepts(ba: BuchiAutomaton, stem: list, cycle: list) -> bool:
    """Membership of an ultimately periodic word in the automaton language.
    A letter is a dict keyed by atoms, where a missing atom is false, or a
    tuple in `ba.atoms` order."""
    assert cycle
    word = stem + cycle
    n = len(word)
    loop = len(stem)

    def compatible(state_idx: int, a) -> bool:
        req = ba.states[state_idx]
        if isinstance(a, tuple):  # a `run_letter` tuple, in `ba.atoms` order
            return a == req
        return all(a.get(atom, False) == v for atom, v in zip(ba.atoms, req))

    # product of the lasso word with the automaton; nested DFS over it
    def word_next(i: int) -> int:
        return i + 1 if i + 1 < n else loop

    succ: dict = {}

    def product_succ(node):
        if node in succ:
            return succ[node]
        (i, q) = node
        out = []
        if compatible(q, word[i]):
            out = [(word_next(i), r) for r in ba.succ[q]]
        succ[node] = out
        return out

    initial = [(0, q) for q in ba.initial]
    return _nested_dfs(initial, product_succ, lambda node: ba.accepting[node[1]]) is not None


def ref_ltl_to_buchi(f: LtlFormula) -> BuchiAutomaton:
    """The tableau of `ltl.ltl_to_buchi` as it tested every pair of raw
    states with `step_ok`, reading both states' slots on each call."""
    g = nnf(f)
    cl = set(subformulas(g))
    atoms = formula_atoms(g)
    temporals = tuple(sorted((x for x in cl if isinstance(x, (LUntil, LRelease))),
                             key=str))
    choices = atoms + temporals

    # enumerate candidate states: an assignment to atoms and temporal formulas
    raw_states: list = []
    for bits in itertools.product((False, True), repeat=len(choices)):
        chosen = dict(zip(choices, bits))
        # local expansion constraints restrict untils/releases
        ok = True
        for t in temporals:
            if isinstance(t, LUntil):
                lv, rv = truth(t.left, chosen), truth(t.right, chosen)
                if chosen[t] and not (rv or lv):
                    ok = False
                    break
                if not chosen[t] and rv:
                    ok = False
                    break
            elif chosen[t] and not truth(t.right, chosen):
                ok = False
                break
        if ok:
            raw_states.append(chosen)

    def step_ok(s: dict, t: dict) -> bool:
        for x in temporals:
            if isinstance(x, LUntil):
                want = truth(x.right, s) or (truth(x.left, s) and t[x])
            else:
                want = truth(x.right, s) and (truth(x.left, s) or t[x])
            if s[x] != want:
                return False
        return True

    untils = [x for x in temporals if isinstance(x, LUntil)]
    k = len(untils)

    # degeneralized product with a cyclic acceptance counter
    base_succ: dict = {}
    for i, s in enumerate(raw_states):
        base_succ[i] = [j for j, t in enumerate(raw_states) if step_ok(s, t)]

    def sat_acc(i: int, a: int) -> bool:
        u = untils[a]
        return (not raw_states[i][u]) or truth(u.right, raw_states[i])

    states: list = []
    index: dict = {}
    succ: list = []
    accepting: list = []

    def intern(i: int, cnt: int) -> int:
        idx = len(states)
        index[(i, cnt)] = idx
        states.append(tuple([raw_states[i][a] for a in atoms]))
        succ.append([])
        accepting.append(False)
        return idx

    initial = []
    pendingq = []
    for i, s in enumerate(raw_states):
        if truth(g, s):
            initial.append(intern(i, 0))
            pendingq.append((i, 0))
    while pendingq:
        (i, cnt) = pendingq.pop()
        idx = index[(i, cnt)]
        if k == 0:
            accepting[idx] = True
            nxt_cnt = 0
        else:
            accepting[idx] = cnt == 0 and sat_acc(i, 0)
            nxt_cnt = (cnt + 1) % k if sat_acc(i, cnt) else cnt
        for j in base_succ[i]:
            key = (j, nxt_cnt)
            tgt = index.get(key)
            if tgt is None:
                tgt = intern(j, nxt_cnt)
                pendingq.append(key)
            succ[idx].append(tgt)
    return BuchiAutomaton(atoms, states, initial, succ, accepting)


def ref_check_buchi(g, f: LtlFormula) -> CheckResult:
    """The product search of `ltl._check_buchi` with dict letters: each graph
    step's letter is read by `eval_letter` and compared with the automaton's
    required letter keyed by atom, and each lasso step's label is found
    again by re-scanning its source's graph steps."""
    ba = ltl_to_buchi(LNot(f))
    atoms = ba.atoms
    required = [dict(zip(atoms, req)) for req in ba.states]
    letter_cache: dict = {}

    def step_letter(node: int, label, dst: int) -> dict:
        key = (node, label, dst)
        if key not in letter_cache:
            src, post = g.nodes[node], g.nodes[dst]
            event = None if label is STUTTER else Event(label, post.marking, post.store)
            letter_cache[key] = eval_letter(atoms, src.marking, src.store, event)
        return letter_cache[key]

    succ_cache: dict = {}

    def successors(prod):
        if prod in succ_cache:
            return succ_cache[prod]
        (node, q) = prod
        out = []
        for (label, dst) in graph_steps(g, node):
            if step_letter(node, label, dst) == required[q]:
                for r in ba.succ[q]:
                    out.append((dst, r))
        succ_cache[prod] = out
        return out

    initial = [(g.initial, q) for q in ba.initial]
    hit = _nested_dfs(initial, successors, lambda prod: ba.accepting[prod[1]])
    if hit is None:
        return CheckResult(True, None, len(succ_cache), False)
    stem_nodes, cycle_nodes = hit

    def project(seq) -> list:
        """Product node sequence -> graph steps (src, label, dst)."""
        steps = []
        for (na, nb) in zip(seq, seq[1:]):
            (ga, qa), (gb, qb) = na, nb
            for (label, dst) in graph_steps(g, ga):
                if dst == gb and qb in ba.succ[qa] \
                        and step_letter(ga, label, dst) == required[qa]:
                    steps.append((ga, label, gb))
                    break
            else:
                raise AssertionError("lasso step lost during projection")
        return steps

    return CheckResult(False,
                       Counterexample(tuple(project(stem_nodes)),
                                      tuple(project(cycle_nodes))),
                       len(succ_cache), False)


def eval_letter(atoms, marking, store, event: Optional[Event]) -> dict:
    """Atom assignment of one step of a run, read by `eval_expr`.

    State atoms read the step's source state; event atoms read the fired
    event, that is its transition and post-state.  `event=None` is the
    stutter step, on which no event atom holds.
    """
    out = {}
    for a in atoms:
        if isinstance(a, EventAtom):
            out[a] = event is not None and bool(
                eval_expr(a.pred, event.marking, event.store, event.transition))
        else:
            out[a] = bool(eval_expr(a.expr, marking, store))
    return out


def eval_on_lasso(f: LtlFormula, stem: list, cycle: list) -> bool:
    """Truth of `f` on the infinite word stem . cycle^w of atom assignments."""
    return eval_nnf_on_lasso(nnf(f), stem, cycle)


def eval_nnf_on_lasso(g: LtlFormula, stem: list, cycle: list) -> bool:
    """`eval_on_lasso` of a formula already in negation normal form: each
    subformula's values at every position, recursively, with untils and
    releases iterated to their fixpoints over the whole word."""
    assert cycle, "lasso needs a nonempty cycle"
    word = stem + cycle
    n = len(word)
    loop = len(stem)  # successor of the last position

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else loop

    def values(formula) -> list:
        if isinstance(formula, TT):
            v = [True] * n
        elif isinstance(formula, FF):
            v = [False] * n
        elif isinstance(formula, (EventAtom, StateAtom)):
            v = [word[i].get(formula, False) for i in range(n)]
        elif isinstance(formula, LNot):
            v = [not x for x in values(formula.f)]
        elif isinstance(formula, LAnd):
            l, r = values(formula.left), values(formula.right)
            v = [a and b for a, b in zip(l, r)]
        elif isinstance(formula, LOr):
            l, r = values(formula.left), values(formula.right)
            v = [a or b for a, b in zip(l, r)]
        elif isinstance(formula, LUntil):
            l, r = values(formula.left), values(formula.right)
            v = [False] * n  # least fixpoint
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    w = r[i] or (l[i] and v[nxt(i)])
                    if w != v[i]:
                        v[i] = w
                        changed = True
        elif isinstance(formula, LRelease):
            l, r = values(formula.left), values(formula.right)
            v = [True] * n  # greatest fixpoint
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    w = r[i] and (l[i] or v[nxt(i)])
                    if w != v[i]:
                        v[i] = w
                        changed = True
        else:
            raise AssertionError(f"unhandled formula {formula!r}")
        return v

    return values(g)[0]


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


def format_actions(acts: tuple[Assign, ...]) -> str:
    parts = []
    for a in acts:
        if a.cond is not None:
            parts.append(f"if {format_expr(a.cond)} then {a.target} := {format_expr(a.expr)}")
        else:
            parts.append(f"{a.target} := {format_expr(a.expr)}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# The run engines with `Fraction` time: the simulator and instrumented replay
# as they were before both moved to int ticks

@dataclass
class FractionPending:
    """Firing window of an enabled transition, in absolute time."""

    earliest: Fraction
    earliest_strict: bool
    latest: Optional[Fraction]
    latest_strict: bool


def fraction_window(model: TtsModel, name: str, now: Fraction) -> FractionPending:
    iv = model.transitions[name].timing
    latest = None if iv.upper.is_infinite else now + iv.upper.value
    return FractionPending(now + iv.lower.value, iv.lower.strict, latest, iv.upper.strict)


def fraction_sample_in(rng: random.Random, lo: Fraction, lo_strict: bool, hi: Fraction,
               hi_strict: bool, q: int) -> Optional[Fraction]:
    """Pick a rational in the window, biased toward its endpoints."""
    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        return None
    if lo == hi:
        return lo
    endpoints = []
    if not lo_strict:
        endpoints.append(lo)
    if not hi_strict:
        endpoints.append(hi)
    if endpoints and rng.random() < ENDPOINT_BIAS:
        return rng.choice(endpoints)
    # grid of q-ths strictly inside, falling back to the midpoint
    first = (lo * q).__floor__() + 1
    last = (hi * q).__ceil__() - 1
    if first > last:
        mid = (lo + hi) / 2
        return mid
    k = rng.randint(first, last)
    return Fraction(k, q)


def fraction_simulate(model: TtsModel, horizon: Fraction, seed: int,
             denominator: int = 8) -> TimedTrace:
    """Random timed run of the model up to `horizon` or deadlock.

    Delays favor a window's closed endpoints (see `ENDPOINT_BIAS`) and
    otherwise fall on the 1/denominator grid strictly inside the window, or
    on its midpoint when no grid point is inside.

    Tracks exact enabling times; a transition may be picked to fire at time
    tau only if tau lies in its own window, no enabled transition's deadline
    has passed, and every strictly-higher-priority enabled transition can
    still fire strictly later than tau.

    Random choices do not depend on `horizon` until the first firing past
    it, so a run to a smaller horizon is this run cut there (`truncate`).
    More than `MAX_FIRINGS_AT_ONE_INSTANT` firings in a row at one instant
    raise `ExplorationError`.
    """
    rng = random.Random(seed)
    horizon = Fraction(horizon)
    marking = model.initial_marking()
    store = model.initial_store()
    now = Fraction(0)
    pending: dict = {}
    for name in sorted(enabled(model, marking, store)):
        pending[name] = fraction_window(model, name, now)
    timed: list = []
    deadlocked = False
    at_instant = 0  # firings so far at time `now`

    while True:
        if not pending:
            deadlocked = True
            break
        # global deadline: earliest latest-bound among enabled transitions
        deadline: Optional[Fraction] = None
        deadline_strict = False
        for w in pending.values():
            if w.latest is None:
                continue
            if deadline is None or w.latest < deadline or \
                    (w.latest == deadline and w.latest_strict and not deadline_strict):
                deadline, deadline_strict = w.latest, w.latest_strict
        candidates = []
        for name, w in pending.items():
            lo, lo_s = w.earliest, w.earliest_strict
            if lo < now:
                lo, lo_s = now, False
            hi, hi_s = deadline, deadline_strict
            for h in model.higher_than(name):
                hw = pending.get(h)
                if hw is None or hw.latest is None:
                    continue
                # must leave room for h to fire strictly later
                if hi is None or hw.latest < hi or (hw.latest == hi and not hi_s):
                    hi, hi_s = hw.latest, True
            if hi is None:
                hi, hi_s = max(lo, now + 1), False  # open-ended: cap arbitrarily
                if lo == hi and lo_s:
                    hi = lo + 1  # past a strict lower bound
            if lo > hi or (lo == hi and (lo_s or hi_s)):
                continue
            candidates.append((name, lo, lo_s, hi, hi_s))
        if not candidates:
            raise AssertionError("time-blocked state: some deadline is unreachable")
        name, lo, lo_s, hi, hi_s = candidates[rng.randrange(len(candidates))]
        tau = fraction_sample_in(rng, lo, lo_s, hi, hi_s, denominator)
        assert tau is not None
        if tau > horizon:
            now = horizon
            break
        at_instant = at_instant + 1 if tau == now else 1
        if at_instant > MAX_FIRINGS_AT_ONE_INSTANT:
            raise ExplorationError(
                f"more than {MAX_FIRINGS_AT_ONE_INSTANT} firings at time "
                f"{format_rational(tau)} without time passing")
        marking, store, now_enabled, fresh = step(model, marking, store, name, pending)
        timed.append((tau, Event(name, marking, store)))
        # strict-later obligation for higher-priority competitors we preempted
        for h in model.higher_than(name):
            if h in now_enabled and h not in fresh:
                w = pending[h]
                if w.earliest < tau or (w.earliest == tau and not w.earliest_strict):
                    w.earliest, w.earliest_strict = tau, True
        for gone in [n for n in pending if n not in now_enabled]:
            del pending[gone]
        for n in sorted(fresh):
            pending[n] = fraction_window(model, n, tau)
        now = tau

    return TimedTrace(tuple(timed), now,
                      (model.initial_marking(), model.initial_store()), deadlocked)


class FractionReplayState:
    """Discrete-event execution of the composed net with exogenous system
    events.  Each step is recorded as the letter the model checker reads
    off it.

    One ordering rule (`_next`) decides what fires before a system event at
    time t: first an open-ended watcher that is already ripe; else one whose
    lower bound comes before the next deadline and before t, fired midway;
    else the watcher with the earliest deadline d <= t, where at d == t only
    watchers with priority over the event fire.  A watcher never fires while
    a higher-priority watcher is due at the same instant; ties go by name.

    Observers are non-intrusive, so the only clocks replay follows are the
    watchers': `watches` holds the enabled watchers' windows only, and a
    system event the composed net cannot fire still raises in `model.fire`.
    """

    def __init__(self, inst: InstrumentedModel):
        self.model = inst.model
        self.obs_names = inst.observer_transitions
        self.atoms = inst.atoms
        self.marking = self.model.initial_marking()
        self.store = self.model.initial_store()
        self.now = Fraction(0)
        live = enabled(self.model, self.marking, self.store, self.obs_names)
        self.watches: dict = {n: fraction_window(self.model, n, Fraction(0))
                              for n in sorted(live)}
        self.letters: list = []

    def _fire(self, name: str):
        prev_m, prev_s = self.marking, self.store
        self.marking, self.store, live, fresh = step(
            self.model, self.marking, self.store, name, self.watches, self.obs_names)
        self.letters.append(eval_letter(self.atoms, prev_m, prev_s,
                                        Event(name, self.marking, self.store)))
        for gone in [n for n in self.watches if n not in live]:
            del self.watches[gone]
        for n in sorted(fresh):
            self.watches[n] = fraction_window(self.model, n, self.now)

    def _ripe(self) -> Optional[str]:
        """An open-ended watcher whose firing window is open by now."""
        for name in sorted(self.watches):
            w = self.watches[name]
            if w.latest is None and (w.earliest < self.now
                                     or (w.earliest == self.now and not w.earliest_strict)):
                return name
        return None

    def _next(self, t: Optional[Fraction], sys: Optional[str]) -> Optional[str]:
        """The watcher that fires next before system event `sys` at time `t`,
        with the current instant moved to its firing; None if none does."""
        ripe = self._ripe()
        if ripe is not None:
            return ripe
        d = min((w.latest for w in self.watches.values() if w.latest is not None),
                default=None)
        lows = [w.earliest for w in self.watches.values() if w.latest is None]
        if lows:
            # strictly past the lower bound, never past a deadline or `t`
            base = max(min(lows), self.now)
            cap = min(x for x in (base + 2, d, t) if x is not None)
            if base < cap:
                self.now = (base + cap) / 2
                return self._ripe()
        if d is None or (t is not None and d > t):
            return None
        due = sorted(n for n, w in self.watches.items() if w.latest == d)
        for name in due:
            if d == t and sys is not None and (name, sys) not in self.model.priority:
                continue
            if any(h in due for h in self.model.higher_than(name)):
                continue
            self.now = d
            return name
        return None

    def play_until(self, t: Optional[Fraction], sys: Optional[str] = None):
        """Fire every watcher that precedes system event `sys` at time `t`,
        then move time to `t`; with `t` None, play out the idle tail."""
        for _ in range(MAX_WATCHER_FIRINGS):
            name = self._next(t, sys)
            if name is None:
                break
            self._fire(name)
        else:
            raise ExplorationError(
                f"more than {MAX_WATCHER_FIRINGS} watcher firings without a system event")
        if t is not None:
            self.now = t


def fraction_replay_instrumented(inst: InstrumentedModel, trace: TimedTrace,
                                 state_cls=None) -> TraceVerdict:
    """Feed a recorded system trace through the instrumented model and read
    the observer formula on the composed run, as the model checker reads a
    path that ends in a deadlock: the final state stutters forever.  The
    run goes through `state_cls`, a `FractionReplayState` by default."""
    st = (state_cls or FractionReplayState)(inst)
    for (t, ev) in trace.timed:
        st.play_until(t, ev.transition)
        st._fire(ev.transition)
        # recorded post-state must agree on the system projection
        for k, v in ev.store.items():
            if st.store.get(k) != v:
                raise ExplorationError(f"replay diverged on variable {k!r}")
    st.play_until(max(trace.end, st.now))
    # play out remaining watcher deadlines over an idle tail: decisive oracle
    # verdicts are stable under every continuation, including this one
    st.play_until(None)
    final = eval_letter(st.atoms, st.marking, st.store, None)
    holds = eval_on_lasso(inst.formula, st.letters, [final])
    return TraceVerdict(Verdict.HOLDS if holds else Verdict.FAILS)


class FullReplayState(FractionReplayState):
    """Instrumented replay that re-tests every transition of the composed net
    after every firing, and computes the start state afresh for each run.

    It keeps the scheduler (`_next`, `play_until`); only the enabledness
    tracking differs from `FractionReplayState`, which follows the
    observer's watchers alone."""

    def __init__(self, inst: InstrumentedModel):
        super().__init__(inst)
        self.obs_names = {n for n, k in inst.provenance.items()
                          if k == "observer" and n in self.model.transitions}
        self.atoms = formula_atoms(inst.formula)
        self.marking = self.model.initial_marking()
        self.store = self.model.initial_store()
        self.enabled = enabled(self.model, self.marking, self.store)
        self.watches = {}
        for name in sorted(self.enabled):
            if name in self.obs_names:
                self.watches[name] = fraction_window(self.model, name, Fraction(0))

    def _fire(self, name: str):
        prev_m, prev_s = self.marking, self.store
        self.marking, self.store, self.enabled, fresh = step(
            self.model, self.marking, self.store, name, self.enabled)
        self.letters.append(eval_letter(self.atoms, prev_m, prev_s,
                                        Event(name, self.marking, self.store)))
        for gone in [n for n in self.watches if n not in self.enabled]:
            del self.watches[gone]
        for n in sorted(fresh):
            if n in self.obs_names:
                self.watches[n] = fraction_window(self.model, n, self.now)


# ---------------------------------------------------------------------------
# Character-scanning readers of `.tts` transition lines and `.pat` lines,
# over the ASCII-only tokenizer they used

_ASCII_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+|\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<=|>=|!=|=>|<|>|=|\+|-|!|&|\||\(|\)|\[|\]|\{|\}|,|;)
    """,
    re.VERBOSE,
)


def ascii_tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        m = _ASCII_TOKEN_RE.match(text, i)
        if not m:
            raise ExprError(f"unexpected character {text[i]!r} at column {i + 1}")
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup or "op", m.group(), i))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _parse_whole(text: str, what: str):
    p = _Parser(ascii_tokenize(text))
    out = p.parse_expr() if what == "expr" else p.parse_actions()
    p.expect_end()
    return out


def parse_interval_text(text: str) -> TimeInterval:
    """The text-level interval reader: brackets, then `Fraction` on each side
    of the first comma."""
    text = text.strip()
    if len(text) < 2 or text[0] not in "[]" or text[-1] not in "[]":
        raise ModelError(f"bad interval {text!r}")
    lower_strict = text[0] == "]"
    upper_strict = text[-1] == "["
    body = text[1:-1]
    if "," not in body:
        raise ModelError(f"bad interval {text!r}: missing comma")
    lo_text, hi_text = body.split(",", 1)
    try:
        lo = parse_rational(lo_text)
    except ExprError as exc:
        raise ModelError(str(exc)) from exc
    hi_text = hi_text.strip()
    if hi_text == "oo":
        hi: Optional[Fraction] = None
        if not upper_strict:
            raise ModelError(f"bad interval {text!r}: infinite upper bound must be open")
    else:
        try:
            hi = parse_rational(hi_text)
        except ExprError as exc:
            raise ModelError(str(exc)) from exc
    iv = TimeInterval(TimeBound(lo, lower_strict), TimeBound(hi, upper_strict))
    err = iv.check()
    if err:
        raise ModelError(f"bad interval {text!r}: {err}")
    return iv


_TRANS_KEYS = ("pre", "in", "consume", "produce", "read", "act")


def parse_trans_scanning(rest: str) -> Transition:
    """A `trans` line after its keyword, read by walking characters: `{`
    fields end at the first `}`, and `in` ends at the second bracket."""
    parts = rest.split(None, 1)
    if not parts:
        raise ModelError("transition needs a name")
    name = parts[0]
    if not name.isidentifier():
        raise ModelError(f"bad transition name {name!r}")
    body = parts[1] if len(parts) > 1 else ""

    fields: dict = {}
    i = 0
    while i < len(body):
        if body[i].isspace():
            i += 1
            continue
        for key in _TRANS_KEYS:
            if body.startswith(key, i) and (i + len(key) == len(body)
                                            or not body[i + len(key)].isidentifier()):
                i += len(key)
                break
        else:
            raise ModelError(f"unexpected text {body[i:].split()[0]!r} in transition {name!r}")
        while i < len(body) and body[i].isspace():
            i += 1
        if key in fields:
            raise ModelError(f"duplicate field {key!r} in transition {name!r}")
        if key == "in":
            j = i
            depth = 0
            while j < len(body):
                if body[j] in "[]":
                    depth += 1
                if depth == 2:
                    j += 1
                    break
                j += 1
            if depth < 2:
                raise ModelError(f"unterminated interval in transition {name!r}")
            fields["in"] = body[i:j]
            i = j
        else:
            if i >= len(body) or body[i] != "{":
                raise ModelError(f"expected '{{' after {key!r} in transition {name!r}")
            j = body.find("}", i)
            if j < 0:
                raise ModelError(f"unterminated '{{' after {key!r} in transition {name!r}")
            fields[key] = body[i + 1:j]
            i = j + 1

    def place_list(key: str) -> tuple:
        raw = fields.get(key, "")
        return tuple(s.strip() for s in raw.replace(",", " ").split())

    return Transition(
        name=name,
        guard=_parse_whole(fields["pre"], "expr") if "pre" in fields else None,
        action=_parse_whole(fields["act"], "actions") if "act" in fields else (),
        timing=parse_interval_text(fields["in"]) if "in" in fields else DEFAULT_INTERVAL,
        pre=place_list("consume"),
        post=place_list("produce"),
        read=frozenset(place_list("read")),
    )


# `between` and `until` name no scope, but they still end a predicate
PATTERN_KEYWORDS = {
    "present", "absent", "first", "after", "before", "within", "lasting",
    "for", "interval", "duration", "leadsto", "and", "between", "until",
}


class _SpanPatternParser(_Parser):
    """Predicates end where a keyword, `=>` or an unmatched `)` appears
    outside parentheses; each span is then parsed on its own."""

    def take_keyword(self, *words: str) -> None:
        for w in words:
            tok = self.next()
            if tok.text != w:
                raise PatternError(
                    f"expected {w!r} but found {tok.text!r} at column {tok.pos + 1}")

    def at_keyword(self, *words: str) -> bool:
        return self.peek().kind == "name" and self.peek().text in words

    def parse_predicate(self):
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
            elif depth == 0 and ((tok.kind == "name" and tok.text in PATTERN_KEYWORDS)
                                 or tok.text == "=>"):
                break
            j += 1
        if j == start:
            raise PatternError(f"expected a predicate at column {self.peek().pos + 1}")
        sub = _Parser(self.tokens[start:j] + [Token("end", "", self.tokens[j].pos)])
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
        """Glue the tokens up to the closing bracket back into text."""
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
        try:
            return parse_interval_text(text)
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

    def parse_pattern(self):
        left = self.parse_and_pattern()
        if self.peek().text == "=>":
            self.next()
            return ImpliesPattern(left, self.parse_pattern())
        return left

    def parse_and_pattern(self):
        left = self.parse_atom_pattern()
        while self.at_keyword("and"):
            self.next()
            left = AndPattern(left, self.parse_atom_pattern())
        return left

    def parse_atom_pattern(self):
        if self.peek().text == "(":
            save = self.i
            self.next()
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

    def parse_present(self):
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

    def parse_absent(self):
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

    def parse_leadsto(self):
        a = self.parse_predicate()
        self.take_keyword("leadsto", "first")
        b = self.parse_predicate()
        self.take_keyword("within")
        interval = self.parse_interval_tok()
        scope = GlobalScope()
        if self.at_keyword("before"):
            self.next()
            scope = BeforeScope(self.parse_predicate())
        elif self.at_keyword("after"):
            self.next()
            scope = AfterScope(self.parse_predicate())
        return LeadstoFirstWithin(a, b, interval, scope)


def parse_pattern_scanning(text: str):
    try:
        p = _SpanPatternParser(ascii_tokenize(text))
    except ExprError as exc:
        raise PatternError(str(exc)) from exc
    out = p.parse_pattern()
    if not p.at_end():
        tok = p.peek()
        raise PatternError(f"trailing input {tok.text!r} at column {tok.pos + 1}")
    return out


# ---------------------------------------------------------------------------
# Fraction zones: `zone.Dbm` built from constraints and static intervals, a
# point test, and the readers that give a `zone.Dbm` or an integer
# `zone.Domain` back as `(value, strict)` bounds, None for +infinity


def _freeze(names: tuple, rows: list) -> zone.Dbm:
    return zone.Dbm(names, tuple(tuple(row) for row in rows))


def trivial() -> zone.Dbm:
    """The zone with no variables (valid deadlock domain)."""
    return zone.Dbm((), ((zone.LE_ZERO,),))


def from_constraints(names: tuple, constraints: dict) -> Optional[zone.Dbm]:
    """Build and canonicalize a zone from {(i, j): Bound} raw constraints."""
    size = len(names) + 1
    rows = [[None if i != j else zone.LE_ZERO for j in range(size)] for i in range(size)]
    for (i, j), b in constraints.items():
        rows[i][j] = zone.bound_min(rows[i][j], b)
    return zone.canonicalize(_freeze(tuple(names), rows))


def constrain_many(d: zone.Dbm, items) -> Optional[zone.Dbm]:
    rows = [list(row) for row in d.m]
    changed = False
    for (i, j, b) in items:
        if not zone.bound_le(rows[i][j], b):
            rows[i][j] = b
            changed = True
    if not changed:
        return d
    return zone.canonicalize(_freeze(d.names, rows))


def interval_bounds(interval: TimeInterval) -> tuple:
    """Static interval as (upper Bound on th, upper Bound on -th)."""
    up = None if interval.upper.is_infinite else (interval.upper.value, interval.upper.strict)
    return up, (-interval.lower.value, interval.lower.strict)


def add_variable(d: zone.Dbm, name: str, interval: TimeInterval) -> Optional[zone.Dbm]:
    """Insert a fresh variable constrained to its static interval only."""
    if name in d.names:
        raise ValueError(f"variable {name!r} already present")
    names = tuple(sorted(d.names + (name,)))
    up, lo = interval_bounds(interval)
    old = [0] + [None if n == name else index(d, n) for n in names]
    rows = []
    for oa in old:
        row = []
        for ob in old:
            if oa is None and ob is None:
                row.append(zone.LE_ZERO)
            elif oa is None:
                row.append(up if ob == 0 else None)
            elif ob is None:
                row.append(lo if oa == 0 else None)
            else:
                row.append(d.m[oa][ob])
        rows.append(row)
    return zone.canonicalize(_freeze(names, rows))


def satisfies(d: zone.Dbm, point: dict) -> bool:
    """Check a concrete rational valuation against all matrix constraints."""
    vals = [Fraction(0)] + [Fraction(point[n]) for n in d.names]
    for i in range(d.size):
        for j in range(d.size):
            b = d.m[i][j]
            if b is None:
                continue
            diff = vals[i] - vals[j]
            if diff > b[0] or (diff == b[0] and b[1]):
                return False
    return True


def decode(e, scale: int):
    """An encoded `zone.Domain` bound as a `(value, strict)` pair."""
    if e == zone.INF:
        return None
    return (Fraction(e >> 1, scale), not e & 1)


def _bound(d, e):
    return decode(e, d.scale) if isinstance(d, zone.Domain) else e


def index(d, name: str) -> int:
    """Row of a variable of a `Dbm` or `Domain`; "0" is the constant zero."""
    return 0 if name == "0" else d.names.index(name) + 1


def bounds_of(d, name: str) -> tuple:
    """(lower, upper) of a variable of a `Dbm` or `Domain`.

    The lower bound is the raw (0 - th) entry: value -c with strictness s
    encodes th >= c (strict if s).
    """
    i = index(d, name)
    return _bound(d, d.m[0][i]), _bound(d, d.m[i][0])


def entry(d, a: str, b: str):
    """Bound on th_a - th_b of a `Dbm` or `Domain`."""
    return _bound(d, d.m[index(d, a)][index(d, b)])


def format_bound(b) -> str:
    if b is None:
        return "inf"
    op = "<" if b[1] else "<="
    return f"{op}{format_rational(b[0])}"


def dump(d) -> str:
    """Matrix of `<v` / `<=v` / `inf` entries, the same text for a `Dbm` and
    a `Domain` of one zone."""
    labels = ("0",) + d.names
    return "\n".join(
        f"{labels[i]}: " + "  ".join(format_bound(_bound(d, e)) for e in row)
        for i, row in enumerate(d.m))


def parse_interval(text: str) -> TimeInterval:
    """A whole text as one interval, read by the model's `read_interval`."""
    p = _Parser(tokenize(text))
    try:
        iv = read_interval(p)
        p.expect_end()
    except ExprError as exc:
        raise ModelError(str(exc)) from exc
    return iv


# ---------------------------------------------------------------------------
# Record methods compiled from a source of their own class


def record_methods(cls) -> dict:
    """name -> function of each method `records.record` generates for the
    undecorated class `cls`, compiled as one `exec` of a source that spells
    out the class's field names and defaults."""
    own = dict(cls.__dict__)
    names = tuple(own.get("__annotations__", {}))
    defaults = {n: own[n] for n in names if n in own}
    free = {"_object": object}  # what the methods read, as closure cells
    params, lines = ["self"], []
    for name in names:
        if name not in defaults:
            params.append(name)
        else:
            free[f"_dflt_{name}"] = defaults[name]
            params.append(f"{name}=_dflt_{name}")
        lines.append(f"_object.__setattr__(self,{name!r},{name})")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    this = "".join(f"self.{n}," for n in names)
    that = "".join(f"other.{n}," for n in names)
    source = {
        "__init__": f"def __init__({','.join(params)}):\n"
                    + "".join(f" {line}\n" for line in lines or ["pass"]),
        "__eq__": "def __eq__(self, other):\n"
                  " if other.__class__ is self.__class__:\n"
                  f"  return ({this})==({that})\n"
                  " return NotImplemented\n",
        "__hash__": f"def __hash__(self):\n return hash(({this}))\n",
    }
    made = [m for m in source if m not in own]
    ns = {"__name__": cls.__module__}
    exec(f"def __create__({','.join(free)}):\n"
         + "".join(f" {line}\n" for m in made for line in source[m].splitlines())
         + f" return [{','.join(made)}]\n", ns)
    return dict(zip(made, ns["__create__"](**free)))


# ---------------------------------------------------------------------------
# The untimed language of a closed-bound net, from runs at integer times


class IntegerStatesExceeded(Exception):
    """`integer_language` met more states at one depth than it may keep."""


def integer_language(model: TtsModel, depth: int, grid: int,
                     max_states: Optional[int] = None) -> set:
    """Every firing sequence of at most `depth` transitions that a run of
    `model` firing only at multiples of 1/`grid` takes, as tuples of
    transition names.  Every bound must be closed and `grid` a multiple of
    `model.time_scale`.  More than `max_states` (sequence, state) pairs at
    one depth raise `IntegerStatesExceeded`.

    A breadth-first search over integer-time states, with no zone code.  A
    state holds the marking, the store, an integer clock per enabled
    transition (ticks since its enabling, capped at its lower bound when its
    upper bound is infinite, since a larger clock changes nothing) and the
    higher-priority transitions that a firing at the current instant
    preempted: each of them must fire strictly later.  The untimed step,
    with the post-state's enabled set and the clocks it restarts, is
    `model.step`'s.  The timing rules are `traces.simulate`'s: after a delay
    of d ticks, which no clock may take past its upper bound, t fires when
    its clock has reached its lower bound, it is not preempted (a delay of a
    tick or more ends every preemption) and every enabled higher-priority
    transition with a finite upper bound can still fire strictly later.
    """
    assert grid % model.time_scale == 0, (grid, model.time_scale)
    factor = grid // model.time_scale
    lo, hi = {}, {}
    for name, (lower, lower_strict, upper, upper_strict) in model.ticks.items():
        assert not lower_strict and (upper is None or not upper_strict), \
            f"{name}: bounds must be closed"
        lo[name] = lower * factor
        hi[name] = None if upper is None else upper * factor
    higher = {name: model.higher_than(name) for name in model.transitions}
    steps = {}  # (marking, store, t) -> model.step's result, as tuples

    def successors(marking, store, clocks, preempted):
        """(t, state) for every firing after every delay."""
        now = dict(clocks)
        deadlines = [hi[u] - c for u, c in clocks if hi[u] is not None]
        # past the first deadline time stops; with none, past the last lower
        # bound every clock is capped and only a preemption can end
        longest = min(deadlines) if deadlines else \
            max([lo[u] - c for u, c in clocks] + [int(bool(preempted))])
        for t, c in clocks:
            first = max(lo[t] - c, int(t in preempted))
            last = min([longest] + [hi[h] - now[h] - 1 for h in higher[t]
                                    if h in now and hi[h] is not None])
            if first > last:
                continue
            if (marking, store, t) not in steps:
                m, s, after, fresh = step(model, dict(marking), dict(store), t, set(now))
                steps[marking, store, t] = (tuple(m.items()), tuple(s.items()),
                                            sorted(after), fresh)
            m, s, after, fresh = steps[marking, store, t]
            persistent = set(after) - fresh
            held = frozenset(persistent.intersection(higher[t]))
            if all(hi[u] is None for u in persistent):
                # past this delay every clock is capped: later ones give the same state
                last = min(last, max([first, 1] + [lo[u] - now[u] for u in persistent]))
            for d in range(first, last + 1):
                yield t, (m, s, tuple(
                    (u, 0 if u in fresh else
                     now[u] + d if hi[u] is not None else min(now[u] + d, lo[u]))
                    for u in after), held | (preempted & persistent) if d == 0 else held)

    marking, store = model.initial_marking(), model.initial_store()
    start = (tuple(marking.items()), tuple(store.items()),
             tuple((n, 0) for n in sorted(enabled(model, marking, store))), frozenset())
    language = {()}
    layer = {((), start)}
    for k in range(depth):
        nxt = set()
        for seq, state in layer:
            nxt.update((seq + (t,), after) for t, after in successors(*state))
            if max_states is not None and len(nxt) > max_states:
                raise IntegerStatesExceeded(f"over {max_states} states at depth {k + 1}")
        language.update(seq for seq, _ in nxt)
        layer = nxt
    return language
