"""Time transition systems: time Petri nets with priorities and data variables.

A model is a set of places (1-safe by default, opt-in larger capacity), a set
of boolean / bounded-integer variables, and transitions carrying a static
firing interval, a guard over store and marking (`pre`), a sequential action
over the store (`act`), pre/post/read arcs and a priority relation.

Untimed semantics live here: enabledness, firing, and `step`, the only code
that decides which clocks restart after a firing; the dense-time abstraction
is built on top in `classgraph`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Collection, Optional, Union

from .expr import (
    Assign,
    Binary,
    Chain,
    Expr,
    ExprError,
    Lit,
    Name,
    Unary,
    _Parser,
    chain,
    eval_expr,
    format_rational,
    free_names,
    parse_rational,
    tokenize,
)
from .records import record

Marking = dict  # place name -> token count
Store = dict  # variable name -> bool | int
Value = Union[bool, int]


class ModelError(ValueError):
    """Malformed model text or violated model contract."""


class ExplorationError(RuntimeError):
    """State-space exploration left the declared bounds (capacity, ranges)."""


class CapacityExceeded(ExplorationError):
    """Firing a transition put more tokens in a place than its capacity."""


# ---------------------------------------------------------------------------
# Time bounds and intervals

@record
class TimeBound:
    """A bound value with strictness; value None means +infinity."""

    value: Optional[Fraction]
    strict: bool = False

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@record
class TimeInterval:
    """Static firing interval; lower is finite and >= 0, upper may be infinite."""

    lower: TimeBound
    upper: TimeBound

    def check(self) -> Optional[str]:
        if self.lower.is_infinite:
            return "interval lower bound must be finite"
        if self.lower.value < 0:
            return "interval lower bound must be non-negative"
        if not self.upper.is_infinite:
            if self.lower.value > self.upper.value:
                return "empty interval (lower > upper)"
            if self.lower.value == self.upper.value and (self.lower.strict or self.upper.strict):
                return "empty interval (point with strict bound)"
        return None

    def contains(self, delta: Fraction) -> bool:
        lo = self.lower
        if delta < lo.value or (delta == lo.value and lo.strict):
            return False
        up = self.upper
        if up.is_infinite:
            return True
        return delta < up.value or (delta == up.value and not up.strict)

    def __str__(self) -> str:
        lo = "]" if self.lower.strict else "["
        lv = format_rational(self.lower.value)
        if self.upper.is_infinite:
            return f"{lo}{lv},oo["
        up = "[" if self.upper.strict else "]"
        return f"{lo}{lv},{format_rational(self.upper.value)}{up}"


def closed_interval(lo: Fraction, hi: Optional[Fraction]) -> TimeInterval:
    return TimeInterval(TimeBound(Fraction(lo)), TimeBound(None if hi is None else Fraction(hi)))


DEFAULT_INTERVAL = closed_interval(Fraction(0), None)


def read_interval(p: _Parser) -> TimeInterval:
    """Read `[`/`]`, a rational, `,`, a rational or `oo`, `[`/`]` from a token
    stream: the interval syntax of `.tts` and `.pat` files."""
    tokens = [p.next() for _ in range(5)]
    lo_b, lo, comma, hi, hi_b = tokens
    shape = (lo_b.text in ("[", "]"), lo.kind == "num", comma.text == ",",
             hi.kind == "num" or hi.text == "oo", hi_b.text in ("[", "]"))
    if not all(shape):
        tok = tokens[shape.index(False)]
        raise ExprError(f"expected an interval such as [0,4] but found {tok.text!r} "
                        f"at column {tok.pos + 1}")
    text = "".join(t.text for t in tokens)
    if hi.text == "oo" and hi_b.text == "]":
        raise ExprError(f"bad interval {text!r}: infinite upper bound must be open")
    iv = TimeInterval(
        TimeBound(parse_rational(lo.text), lo_b.text == "]"),
        TimeBound(None if hi.text == "oo" else parse_rational(hi.text), hi_b.text == "["))
    err = iv.check()
    if err:
        raise ExprError(f"bad interval {text!r}: {err}")
    return iv


# ---------------------------------------------------------------------------
# Declarations

@record
class PlaceDecl:
    name: str
    initial: int = 0
    capacity: int = 1


@record
class VarDecl:
    name: str
    kind: str  # "bool" | "int"
    initial: Value = False
    lo: int = 0
    hi: int = 0

    def in_range(self, v: Value) -> bool:
        if self.kind == "bool":
            return isinstance(v, bool)
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi


@record
class Transition:
    name: str
    guard: Optional[Expr] = None
    action: tuple[Assign, ...] = ()
    timing: TimeInterval = DEFAULT_INTERVAL
    pre: tuple[str, ...] = ()  # consumed places, with multiplicity
    post: tuple[str, ...] = ()  # produced places, with multiplicity
    read: frozenset = frozenset()  # tested places (not consumed)


@record
class TtsModel:
    """A complete net.  Treated as immutable once validated: firing produces
    fresh marking/store values; `higher` is the one priority table that
    every engine reads.  The one part that changes is `step_memo`, which
    `traces.simulate` fills without a lock, so a model can be shared
    across threads as long as no two of them simulate it at once."""

    name: str
    places: dict  # name -> PlaceDecl
    vars: dict  # name -> VarDecl
    transitions: dict  # name -> Transition (insertion order is significant)
    priority: tuple  # pairs (higher, lower) of transition names

    def initial_marking(self) -> Marking:
        return {p.name: p.initial for p in self.places.values()}

    def initial_store(self) -> Store:
        return {v.name: v.initial for v in self.vars.values()}

    @cached_property
    def higher(self) -> dict:
        """Transition name -> the frozenset of transitions with priority over it."""
        out: dict = {name: set() for name in self.transitions}
        for h, lo in self.priority:
            out[lo].add(h)
        return {name: frozenset(hs) for name, hs in out.items()}

    @cached_property
    def time_scale(self) -> int:
        """LCM of the denominators of the transitions' finite bounds: every
        bound is a whole number of 1/time_scale units."""
        dens = [1]
        for t in self.transitions.values():
            dens.append(t.timing.lower.value.denominator)
            if not t.timing.upper.is_infinite:
                dens.append(t.timing.upper.value.denominator)
        return math.lcm(*dens)

    @cached_property
    def ticks(self) -> dict:
        """Transition name -> (lower, lower strict, upper, upper strict), its
        static interval in 1/time_scale units; upper None is infinity."""
        out = {}
        for name, t in self.transitions.items():
            lo, up = t.timing.lower, t.timing.upper
            out[name] = (int(lo.value * self.time_scale), lo.strict,
                         None if up.is_infinite else int(up.value * self.time_scale),
                         up.strict)
        return out

    @cached_property
    def dependents(self) -> dict:
        """Transition name -> the transitions whose enabledness firing it may
        change: itself, and each one whose consumed or read places or guard
        name a place it consumes or produces, or a variable its actions may
        assign.  Any other transition has the same enabledness before the
        firing, in its intermediate marking and after it, so `step` need not
        re-test it (passing this set as `among`)."""
        readers: dict = {}  # place or variable -> transitions it may enable
        for name, t in self.transitions.items():
            read = set(t.pre) | set(t.read)
            if t.guard is not None:
                read |= free_names(t.guard)
            for x in read:
                readers.setdefault(x, set()).add(name)
        out = {}
        for name, t in self.transitions.items():
            deps = {name}
            for x in set(t.pre) | set(t.post) | {a.target for a in t.action}:
                deps |= readers.get(x, set())
            out[name] = frozenset(deps)
        return out

    @cached_property
    def step_memo(self) -> "StepMemo":
        """The simulator's `StepMemo`: every transition tracked, firing one
        re-tests its `dependents`, and a step's payload is its `Event`."""
        return StepMemo(self, frozenset(self.transitions), _step_event)


@record
class Event:
    """A fired transition together with the state immediately after it.

    Markings are stored in compact form (zero-count places dropped), which
    makes events canonical under serialization round-trips; place atoms on
    absent entries evaluate to false.
    """

    transition: str
    marking: Marking
    store: Store

    def __post_init__(self):
        object.__setattr__(self, "marking", {p: n for p, n in self.marking.items() if n})
        object.__setattr__(self, "store", dict(self.store))


EventPredicate = Expr  # boolean combination of transition/variable/place atoms


# ---------------------------------------------------------------------------
# Validation

@record
class Diagnostic:
    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.element}: {self.message}"


def _expr_kind(e: Expr, model: TtsModel, diags: list, where: str,
               allow_transitions: bool) -> Optional[str]:
    """Infer 'bool'/'int' and report scoping/typing problems."""
    if isinstance(e, Lit):
        return "bool" if isinstance(e.value, bool) else "int"
    if isinstance(e, Name):
        if e.ident in model.vars:
            return "bool" if model.vars[e.ident].kind == "bool" else "int"
        if e.ident in model.places:
            return "bool"
        if e.ident in model.transitions:
            if not allow_transitions:
                diags.append(Diagnostic(where, f"transition name {e.ident!r} not allowed here"))
                return None
            return "bool"
        diags.append(Diagnostic(where, f"undeclared name {e.ident!r}"))
        return None
    if isinstance(e, Unary):
        k = _expr_kind(e.operand, model, diags, where, allow_transitions)
        want = "bool" if e.op == "!" else "int"
        if k is not None and k != want:
            diags.append(Diagnostic(where, f"operator {e.op!r} applied to {k} operand"))
        return want
    if isinstance(e, Chain):
        for x in e.operands:
            k = _expr_kind(x, model, diags, where, allow_transitions)
            if k is not None and k != "bool":
                diags.append(Diagnostic(where, f"operator {e.op!r} applied to {k} operand"))
        return "bool"
    if isinstance(e, Binary):
        lk = _expr_kind(e.left, model, diags, where, allow_transitions)
        rk = _expr_kind(e.right, model, diags, where, allow_transitions)
        if e.op in ("+", "-"):
            for k in (lk, rk):
                if k is not None and k != "int":
                    diags.append(Diagnostic(where, f"operator {e.op!r} applied to {k} operand"))
            return "int"
        if lk is not None and rk is not None and lk != rk:
            diags.append(Diagnostic(where, f"comparison {e.op!r} between {lk} and {rk}"))
        return "bool"
    raise AssertionError


def check_expr(e: Expr, model: TtsModel, where: str, *, allow_transitions: bool = False,
               want: Optional[str] = "bool") -> list:
    """Scoping and typing diagnostics of `e`; `want=None` accepts either type."""
    diags: list = []
    k = _expr_kind(e, model, diags, where, allow_transitions)
    if k is not None and want is not None and k != want:
        diags.append(Diagnostic(where, f"expression has type {k}, expected {want}"))
    return diags


def validate_model(model: TtsModel) -> list:
    """Return a list of diagnostics; empty iff the model is well formed."""
    diags: list = []
    seen: set = set()
    for name in list(model.places) + list(model.vars) + list(model.transitions):
        if name in seen:
            diags.append(Diagnostic(name, "duplicate name"))
        seen.add(name)

    for p in model.places.values():
        if p.initial < 0:
            diags.append(Diagnostic(p.name, "negative initial marking"))
        if p.capacity < 1:
            diags.append(Diagnostic(p.name, "capacity must be at least 1"))
        if p.initial > p.capacity:
            diags.append(Diagnostic(p.name, "initial marking exceeds capacity"))

    for v in model.vars.values():
        if v.kind == "int" and v.lo > v.hi:
            diags.append(Diagnostic(v.name, "empty integer range"))
        if not v.in_range(v.initial):
            diags.append(Diagnostic(v.name, "initial value out of range"))

    for t in model.transitions.values():
        err = t.timing.check()
        if err:
            diags.append(Diagnostic(t.name, err))
        for arc in list(t.pre) + list(t.post) + list(t.read):
            if arc not in model.places:
                diags.append(Diagnostic(t.name, f"arc references undeclared place {arc!r}"))
        if t.guard is not None:
            diags.extend(check_expr(t.guard, model, t.name))
        for a in t.action:
            target = model.vars.get(a.target)
            if target is None:
                diags.append(Diagnostic(t.name, f"action assigns undeclared variable {a.target!r}"))
            diags.extend(check_expr(a.expr, model, t.name,
                                    want=target.kind if target is not None else None))
            if a.cond is not None:
                diags.extend(check_expr(a.cond, model, t.name))

    for (hi, lo) in model.priority:
        if hi == lo:
            diags.append(Diagnostic(hi, "reflexive priority"))
        for n in (hi, lo):
            if n not in model.transitions:
                diags.append(Diagnostic(n, "priority references undeclared transition"))
    # acyclicity of the priority relation; an explicit stack, since a
    # priority chain may be longer than the interpreter's recursion limit
    adj: dict = {}
    for (hi, lo) in model.priority:
        adj.setdefault(hi, []).append(lo)
    state: dict = {}

    def acyclic_from(root: str) -> bool:
        state[root] = 1
        stack = [(root, iter(adj.get(root, ())))]
        while stack:
            n, succs = stack[-1]
            for nxt in succs:
                if state.get(nxt) == 1:
                    return False
                if state.get(nxt) is None:
                    state[nxt] = 1
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    break
            else:
                state[n] = 2
                stack.pop()
        return True

    for n in adj:
        if state.get(n) is None and not acyclic_from(n):
            diags.append(Diagnostic(n, "cyclic priority relation"))
            break
    return diags


# ---------------------------------------------------------------------------
# Untimed semantics

def _arcs_covered(t: Transition, marking: Marking) -> bool:
    need: dict = {}
    for p in t.pre:
        need[p] = need.get(p, 0) + 1
    for p, n in need.items():
        if marking.get(p, 0) < n:
            return False
    for p in t.read:
        if marking.get(p, 0) < 1:
            return False
    return True


def is_enabled(model: TtsModel, t: Transition, marking: Marking, store: Store) -> bool:
    return _arcs_covered(t, marking) and (
        t.guard is None or bool(eval_expr(t.guard, marking, store)))


def enabled(model: TtsModel, marking: Marking, store: Store,
            among: Optional[Collection[str]] = None) -> set:
    """Transitions with covered arcs and true guards; priorities do not apply here.

    With `among`, only the transitions it names are tested: the result is the
    full enabled set restricted to them."""
    ts = model.transitions
    return {n for n in (ts if among is None else among)
            if is_enabled(model, ts[n], marking, store)}


def exec_actions(model: TtsModel, acts: tuple[Assign, ...], marking: Marking,
                 store: Store) -> Store:
    """Run an action sequence left to right on a copy of the store."""
    new_store = dict(store)
    for a in acts:
        if a.cond is not None and not eval_expr(a.cond, marking, new_store):
            continue
        v = eval_expr(a.expr, marking, new_store)
        decl = model.vars[a.target]
        if not decl.in_range(v):
            raise ExplorationError(
                f"assignment {a.target} := {v!r} leaves declared range of {decl.name}")
        new_store[a.target] = v
    return new_store


def fire(model: TtsModel, marking: Marking, store: Store, name: str):
    """Fire an enabled transition; returns (marking, store)."""
    t = model.transitions[name]
    if not is_enabled(model, t, marking, store):
        raise ExplorationError(f"transition {name!r} fired while disabled")
    new_marking = dict(marking)
    for p in t.pre:
        new_marking[p] -= 1
    for p in t.post:
        new_marking[p] = new_marking.get(p, 0) + 1
        if new_marking[p] > model.places[p].capacity:
            raise CapacityExceeded(f"place {p!r} exceeds capacity "
                                   f"{model.places[p].capacity} when {name} fires")
    return new_marking, exec_actions(model, t.action, new_marking, store)


def step(model: TtsModel, marking: Marking, store: Store, name: str,
         before: Collection[str], among: Optional[Collection[str]] = None):
    """Fire `name`; returns (marking, store, enabled, fresh).

    `before` is the pre-state's enabled set, `enabled` the post-state's and
    `fresh` the part of it whose clocks restart.  With `among`, a caller that
    tracks only some transitions' clocks passes their names and `before`
    restricted to them, and gets `enabled` and `fresh` restricted to them;
    `name` itself need not be among them.  Intermediate-marking
    semantics: a clock restarts when its transition fires, or when the
    transition was disabled before the firing or in the intermediate state
    (the pre-state with the fired transition's input tokens removed,
    original store).  So a guard flipping from false to true also restarts.
    """
    new_marking, new_store = fire(model, marking, store, name)
    now_enabled = enabled(model, new_marking, new_store, among)
    mid_marking = dict(marking)
    for p in model.transitions[name].pre:
        mid_marking[p] -= 1
    fresh = {u for u in now_enabled
             if u == name or u not in before
             or not is_enabled(model, model.transitions[u], mid_marking, store)}
    return new_marking, new_store, now_enabled, fresh


class StepMemo:
    """The `step`s of one run engine on one model, each taken once.

    A state, the marking's and the store's values in the model's place and
    variable order, is interned to an int id; `states[id]` holds the first
    marking and store seen with those values.  `steps` maps (state id,
    transition) to (successor id, the tracked transitions the firing
    disables, the transitions whose clocks restart, sorted, payload), where
    the payload is `payload(marking, store, transition, post marking, post
    store)`.  A miss calls `step` unchanged, and nothing is stored unless it
    returns, so a firing that `step` rejects raises again on every visit.

    The engine tracks the transitions in `tracked`: `among` maps each one
    to its `dependents` among them, which `step` re-tests, and `start`, the
    start of every run, is the initial state's id and the tracked
    transitions enabled there, sorted.

    A step's result depends only on the pre-state, the transition, `among`
    and `before`.  `among` is fixed per transition here, and an engine may
    use the memo only if the `before` it passes is the pre-state's enabled
    set among the transitions it tracks, so that the state id is a
    sufficient key.  The memo holds no reference to its model: each call
    passes it."""

    __slots__ = ("among", "payload", "ids", "states", "steps", "start")

    def __init__(self, model: TtsModel, tracked: frozenset, payload):
        self.among = {n: deps & tracked for n, deps in model.dependents.items()}
        self.payload = payload
        self.ids: dict = {}  # state values -> state id
        self.states: list = []  # state id -> (marking, store)
        self.steps: dict = {}  # (state id, transition) -> step result
        marking, store = model.initial_marking(), model.initial_store()
        self.start = (self.intern(model, marking, store),
                      tuple(sorted(enabled(model, marking, store, tracked))))

    def intern(self, model: TtsModel, marking: Marking, store: Store) -> int:
        key = (*map(marking.__getitem__, model.places), *map(store.__getitem__, model.vars))
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.states)
            self.states.append((marking, store))
        return sid

    def step(self, model: TtsModel, sid: int, name: str, before: Collection[str]) -> tuple:
        """Fire `name` in state `sid`, whose tracked enabled set is `before`."""
        key = (sid, name)
        hit = self.steps.get(key)
        if hit is None:
            marking, store = self.states[sid]
            among = self.among[name]
            post_m, post_s, live, fresh = step(model, marking, store, name, before, among)
            payload = self.payload(marking, store, name, post_m, post_s)
            hit = self.steps[key] = (
                self.intern(model, post_m, post_s),
                tuple(n for n in among if n in before and n not in live),
                tuple(sorted(fresh)), payload)
        return hit


def _step_event(marking: Marking, store: Store, name: str, post_marking: Marking,
                post_store: Store) -> Event:
    return Event(name, post_marking, post_store)


def eval_predicate(p: EventPredicate, e: Event) -> bool:
    """Evaluate an event predicate on an event's transition and post-state."""
    return bool(eval_expr(p, e.marking, e.store, e.transition))


def check_predicate(p: EventPredicate, model: TtsModel, where: str = "predicate") -> list:
    return check_expr(p, model, where, allow_transitions=True)


def predicate_is_state_only(p: EventPredicate, model: TtsModel) -> bool:
    return all(n not in model.transitions for n in free_names(p))


def matching_transitions(p: EventPredicate, model: TtsModel) -> set:
    """Transitions that could produce an event satisfying `p`.

    Conservative: a transition is excluded only when fixing the transition
    atoms alone already makes the predicate false for every store/marking.
    """
    out = set()
    for name in model.transitions:
        r = residual_predicate(p, name, model)
        if not (isinstance(r, Lit) and r.value is False):
            out.add(name)
    return out


def residual_predicate(p: EventPredicate, transition: str, model: TtsModel) -> Expr:
    """Specialize a predicate to a fixed transition, keeping state atoms.

    Transition-name atoms become literals; the result is simplified, so a
    predicate that cannot match the transition collapses to `false` and a
    purely transition-based match collapses to `true`.
    """
    if isinstance(p, Name) and p.ident in model.transitions:
        return Lit(p.ident == transition)
    if isinstance(p, Unary):
        inner = residual_predicate(p.operand, transition, model)
        if isinstance(inner, Lit) and isinstance(inner.value, bool) and p.op == "!":
            return Lit(not inner.value)
        return Unary(p.op, inner)
    if isinstance(p, Chain):
        # a literal `decides` settles the chain; its negation drops out
        decides = p.op == "|"
        kept = []
        for x in p.operands:
            r = residual_predicate(x, transition, model)
            if isinstance(r, Lit) and r.value is decides:
                return r
            if not (isinstance(r, Lit) and r.value is (not decides)):
                kept.append(r)
        return chain(p.op, kept) if kept else Lit(not decides)
    if isinstance(p, Binary):
        return Binary(p.op, residual_predicate(p.left, transition, model),
                      residual_predicate(p.right, transition, model))
    return p


# ---------------------------------------------------------------------------
# Textual model format (.tts)

def parse_tts(text: str, name: str = "model") -> TtsModel:
    places: dict = {}
    vars_: dict = {}
    transitions: dict = {}
    priority: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        try:
            head = line.split(None, 1)[0]
            rest = line[len(head):]
            if head == "places":
                for spec in rest.split():
                    _parse_place(spec, places)
            elif head == "vars":
                for spec in rest.split():
                    _parse_var(spec, vars_)
            elif head == "trans":
                t = _parse_trans(code)
                if t.name in transitions:
                    raise ModelError(f"duplicate transition {t.name!r}")
                transitions[t.name] = t
            elif head == "prio":
                m = rest.split(">")
                if len(m) != 2:
                    raise ModelError(f"bad priority line {line!r}")
                priority.append((m[0].strip(), m[1].strip()))
            else:
                raise ModelError(f"unknown section {head!r}")
        except (ModelError, ExprError) as exc:
            raise ModelError(f"line {lineno}: {exc}") from exc

    model = TtsModel(name, places, vars_, transitions, tuple(priority))
    diags = validate_model(model)
    if diags:
        raise ModelError("invalid model: " + "; ".join(str(d) for d in diags))
    return model


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ModelError(f"bad {what} {text!r}") from exc


def _parse_place(spec: str, places: dict) -> None:
    capacity = 1
    if "/" in spec:
        spec, cap_text = spec.split("/", 1)
        capacity = _parse_int(cap_text, "place capacity")
    initial = 0
    if "=" in spec:
        spec, init_text = spec.split("=", 1)
        initial = _parse_int(init_text, "initial marking")
    if not spec.isidentifier():
        raise ModelError(f"bad place name {spec!r}")
    if spec in places:
        raise ModelError(f"duplicate place {spec!r}")
    places[spec] = PlaceDecl(spec, initial, capacity)


def _parse_var(spec: str, vars_: dict) -> None:
    if "=" not in spec:
        raise ModelError(f"variable {spec!r} needs an initializer")
    decl_text, init_text = spec.split("=", 1)
    if ":" in decl_text:
        name, range_text = decl_text.split(":", 1)
        if ".." not in range_text:
            raise ModelError(f"bad integer range in {spec!r}")
        lo_text, hi_text = range_text.split("..", 1)
        decl = VarDecl(name, "int", _parse_int(init_text, "initializer"),
                       _parse_int(lo_text, "range bound"),
                       _parse_int(hi_text, "range bound"))
    else:
        name = decl_text
        if init_text not in ("true", "false"):
            raise ModelError(f"boolean variable {name!r} must be initialized true/false")
        decl = VarDecl(name, "bool", init_text == "true")
    if not name.isidentifier():
        raise ModelError(f"bad variable name {name!r}")
    if name in vars_:
        raise ModelError(f"duplicate variable {name!r}")
    vars_[name] = decl


def _parse_trans(line: str) -> Transition:
    """`trans NAME field*`; each field at most once, in any order.  Columns
    in errors count from the start of the line."""
    p = _Parser(tokenize(line))
    p.next()  # `trans`
    tok = p.next()
    if tok.kind != "name":
        raise ModelError(f"expected a transition name at column {tok.pos + 1}")
    name = tok.text
    fields: dict = {}
    while not p.at_end():
        key = p.next()
        if key.kind != "name" or key.text not in ("pre", "in", "consume", "produce", "read", "act"):
            raise ModelError(f"unexpected {key.text!r} in transition {name!r} "
                             f"at column {key.pos + 1}")
        if key.text in fields:
            raise ModelError(f"duplicate field {key.text!r} in transition {name!r}")
        if key.text == "in":
            fields["in"] = read_interval(p)
            continue
        p.expect("{")
        if key.text == "pre":
            fields["pre"] = p.parse_expr()
        elif key.text == "act":
            fields["act"] = p.parse_actions()
        else:  # place names; commas are optional
            places = []
            while p.peek().text != "}":
                tok = p.next()
                if tok.kind == "name":
                    places.append(tok.text)
                elif tok.text != ",":
                    raise ModelError(f"expected a place name but found {tok.text!r} "
                                     f"at column {tok.pos + 1}")
            fields[key.text] = tuple(places)
        p.expect("}")

    return Transition(
        name=name,
        guard=fields.get("pre"),
        action=fields.get("act", ()),
        timing=fields.get("in", DEFAULT_INTERVAL),
        pre=fields.get("consume", ()),
        post=fields.get("produce", ()),
        read=frozenset(fields.get("read", ())),
    )


def load_tts(path) -> TtsModel:
    from pathlib import Path

    p = Path(path)
    return parse_tts(p.read_text(encoding="utf-8"), name=p.stem)
