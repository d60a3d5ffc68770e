"""Time transition systems: time Petri nets with priorities and data variables.

A model is a set of places (1-safe by default, opt-in larger capacity), a set
of boolean / bounded-integer variables, and transitions carrying a static
firing interval, a guard over store and marking (`pre`), a sequential action
over the store (`act`), pre/post/read arcs and a priority relation.

Untimed semantics live here (enabledness, firing, newly-enabled computation);
the dense-time abstraction is built on top in `classgraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .expr import (
    Assign,
    Binary,
    EvalContext,
    Expr,
    ExprError,
    Lit,
    Name,
    Unary,
    action_names,
    eval_expr,
    format_actions,
    format_expr,
    format_rational,
    free_names,
    parse_actions,
    parse_expr,
    parse_rational,
)

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

@dataclass(frozen=True)
class TimeBound:
    """A bound value with strictness; value None means +infinity."""

    value: Optional[Fraction]
    strict: bool = False

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
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

    @property
    def is_punctual(self) -> bool:
        return (not self.upper.is_infinite and self.lower.value == self.upper.value
                and not self.lower.strict and not self.upper.strict)

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


def parse_interval(text: str) -> TimeInterval:
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


# ---------------------------------------------------------------------------
# Declarations

@dataclass(frozen=True)
class PlaceDecl:
    name: str
    initial: int = 0
    capacity: int = 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Transition:
    name: str
    guard: Optional[Expr] = None
    action: tuple[Assign, ...] = ()
    timing: TimeInterval = DEFAULT_INTERVAL
    pre: tuple[str, ...] = ()  # consumed places, with multiplicity
    post: tuple[str, ...] = ()  # produced places, with multiplicity
    read: frozenset = frozenset()  # tested places (not consumed)


@dataclass(frozen=True)
class TtsModel:
    """A complete net.  Treated as immutable once validated: firing produces
    fresh marking/store values, so a model can be shared across threads."""

    name: str
    places: dict  # name -> PlaceDecl
    vars: dict  # name -> VarDecl
    transitions: dict  # name -> Transition (insertion order is significant)
    priority: tuple  # pairs (higher, lower) of transition names

    def initial_marking(self) -> Marking:
        return {p.name: p.initial for p in self.places.values()}

    def initial_store(self) -> Store:
        return {v.name: v.initial for v in self.vars.values()}

    def higher_than(self, lower: str) -> tuple[str, ...]:
        return tuple(h for (h, l) in self.priority if l == lower)


@dataclass(frozen=True)
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

@dataclass(frozen=True)
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
    if isinstance(e, Binary):
        lk = _expr_kind(e.left, model, diags, where, allow_transitions)
        rk = _expr_kind(e.right, model, diags, where, allow_transitions)
        if e.op in ("&", "|"):
            for k in (lk, rk):
                if k is not None and k != "bool":
                    diags.append(Diagnostic(where, f"operator {e.op!r} applied to {k} operand"))
            return "bool"
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
               want: str = "bool") -> list:
    diags: list = []
    k = _expr_kind(e, model, diags, where, allow_transitions)
    if k is not None and k != want:
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
            for ident in free_names(t.guard):
                if ident in model.transitions:
                    diags.append(Diagnostic(t.name, f"guard references transition {ident!r}"))
        for a in t.action:
            if a.target not in model.vars:
                diags.append(Diagnostic(t.name, f"action assigns undeclared variable {a.target!r}"))
            else:
                want = model.vars[a.target].kind
                diags.extend(check_expr(a.expr, model, t.name, want=want))
            if a.cond is not None:
                diags.extend(check_expr(a.cond, model, t.name))
            read, _ = action_names((a,))
            for ident in read:
                if ident in model.transitions:
                    diags.append(Diagnostic(t.name, f"action references transition {ident!r}"))

    for (hi, lo) in model.priority:
        if hi == lo:
            diags.append(Diagnostic(hi, "reflexive priority"))
        for n in (hi, lo):
            if n not in model.transitions:
                diags.append(Diagnostic(n, "priority references undeclared transition"))
    # acyclicity of the priority relation
    adj: dict = {}
    for (hi, lo) in model.priority:
        adj.setdefault(hi, []).append(lo)
    state: dict = {}

    def visit(n: str) -> bool:
        state[n] = 1
        for nxt in adj.get(n, ()):
            if state.get(nxt) == 1:
                return False
            if state.get(nxt) is None and not visit(nxt):
                return False
        state[n] = 2
        return True

    for n in adj:
        if state.get(n) is None and not visit(n):
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


def _guard_holds(t: Transition, marking: Marking, store: Store) -> bool:
    if t.guard is None:
        return True
    return bool(eval_expr(t.guard, EvalContext(marking, store)))


def is_enabled(model: TtsModel, t: Transition, marking: Marking, store: Store) -> bool:
    return _arcs_covered(t, marking) and _guard_holds(t, marking, store)


def enabled(model: TtsModel, marking: Marking, store: Store) -> set:
    """Transitions with covered arcs and true guards; priorities do not apply here."""
    return {t.name for t in model.transitions.values() if is_enabled(model, t, marking, store)}


def exec_actions(model: TtsModel, acts: tuple[Assign, ...], marking: Marking,
                 store: Store) -> Store:
    """Run an action sequence left to right on a copy of the store."""
    new_store = dict(store)
    for a in acts:
        ctx = EvalContext(marking, new_store)
        if a.cond is not None and not eval_expr(a.cond, ctx):
            continue
        v = eval_expr(a.expr, ctx)
        decl = model.vars[a.target]
        if not decl.in_range(v):
            raise ExplorationError(
                f"assignment {a.target} := {v!r} leaves declared range of {decl.name}")
        new_store[a.target] = v
    return new_store


def fire(model: TtsModel, marking: Marking, store: Store, name: str):
    """Fire an enabled transition; returns (marking, store, event)."""
    t = model.transitions[name]
    if not is_enabled(model, t, marking, store):
        raise ExplorationError(f"transition {name!r} fired while disabled")
    new_marking = dict(marking)
    for p in t.pre:
        new_marking[p] -= 1
    for p in t.post:
        new_marking[p] = new_marking.get(p, 0) + 1
        if new_marking[p] > model.places[p].capacity:
            raise CapacityExceeded(f"place {p!r} exceeds capacity {model.places[p].capacity}")
    new_store = exec_actions(model, t.action, new_marking, store)
    return new_marking, new_store, Event(name, new_marking, new_store)


def newly_enabled(model: TtsModel, pre_marking: Marking, pre_store: Store, name: str,
                  post_marking: Marking, post_store: Store) -> set:
    """Transitions whose clock restarts after firing `name`.

    Intermediate-marking semantics: a transition is newly enabled if it is
    enabled afterwards but was not enabled in the intermediate state (the
    pre-state with the fired transition's input tokens removed, original
    store).  The fired transition itself restarts whenever it is enabled
    afterwards; a guard flipping from false to true also restarts.
    """
    t = model.transitions[name]
    mid_marking = dict(pre_marking)
    for p in t.pre:
        mid_marking[p] -= 1
    out = set()
    for u in model.transitions.values():
        if not is_enabled(model, u, post_marking, post_store):
            continue
        if u.name == name:
            out.add(u.name)
            continue
        if not is_enabled(model, u, mid_marking, pre_store):
            out.add(u.name)
    return out


def eval_predicate(p: EventPredicate, e: Event) -> bool:
    """Evaluate an event predicate on an event's transition and post-state."""
    return bool(eval_expr(p, EvalContext(e.marking, e.store, e.transition)))


def parse_predicate(text: str) -> EventPredicate:
    return parse_expr(text)


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
    def walk(e: Expr) -> Expr:
        if isinstance(e, Name) and e.ident in model.transitions:
            return Lit(e.ident == transition)
        if isinstance(e, Unary):
            inner = walk(e.operand)
            if isinstance(inner, Lit) and isinstance(inner.value, bool) and e.op == "!":
                return Lit(not inner.value)
            return Unary(e.op, inner)
        if isinstance(e, Binary):
            l, r = walk(e.left), walk(e.right)
            if e.op == "&":
                if (isinstance(l, Lit) and l.value is False) or \
                        (isinstance(r, Lit) and r.value is False):
                    return Lit(False)
                if isinstance(l, Lit) and l.value is True:
                    return r
                if isinstance(r, Lit) and r.value is True:
                    return l
                return Binary("&", l, r)
            if e.op == "|":
                if (isinstance(l, Lit) and l.value is True) or \
                        (isinstance(r, Lit) and r.value is True):
                    return Lit(True)
                if isinstance(l, Lit) and l.value is False:
                    return r
                if isinstance(r, Lit) and r.value is False:
                    return l
                return Binary("|", l, r)
            return Binary(e.op, l, r)
        return e

    return walk(p)


# ---------------------------------------------------------------------------
# Textual model format (.tts)

def parse_tts(text: str, name: str = "model") -> TtsModel:
    places: dict = {}
    vars_: dict = {}
    transitions: dict = {}
    priority: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(" ")
            if head == "places":
                for spec in rest.split():
                    _parse_place(spec, places)
            elif head == "vars":
                for spec in rest.split():
                    _parse_var(spec, vars_)
            elif head == "trans":
                t = _parse_trans(rest)
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


_TRANS_KEYS = ("pre", "in", "consume", "produce", "read", "act")


def _parse_trans(rest: str) -> Transition:
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

    def place_list(key: str) -> tuple[str, ...]:
        raw = fields.get(key, "")
        items = [s.strip() for s in raw.replace(",", " ").split()]
        return tuple(items)

    return Transition(
        name=name,
        guard=parse_expr(fields["pre"]) if "pre" in fields else None,
        action=parse_actions(fields["act"]) if "act" in fields else (),
        timing=parse_interval(fields["in"]) if "in" in fields else DEFAULT_INTERVAL,
        pre=place_list("consume"),
        post=place_list("produce"),
        read=frozenset(place_list("read")),
    )


def serialize_tts(model: TtsModel) -> str:
    lines = []
    specs = []
    for p in model.places.values():
        s = p.name
        if p.initial:
            s += f"={p.initial}"
        if p.capacity != 1:
            s += f"/{p.capacity}"
        specs.append(s)
    if specs:
        lines.append("places " + " ".join(specs))
    specs = []
    for v in model.vars.values():
        if v.kind == "bool":
            specs.append(f"{v.name}={'true' if v.initial else 'false'}")
        else:
            specs.append(f"{v.name}:{v.lo}..{v.hi}={v.initial}")
    if specs:
        lines.append("vars " + " ".join(specs))
    for t in model.transitions.values():
        s = f"trans {t.name}"
        if t.guard is not None:
            s += f" pre {{{format_expr(t.guard)}}}"
        if t.timing != DEFAULT_INTERVAL:
            s += f" in {t.timing}"
        if t.pre:
            s += " consume {" + ",".join(t.pre) + "}"
        if t.post:
            s += " produce {" + ",".join(t.post) + "}"
        if t.read:
            s += " read {" + ",".join(sorted(t.read)) + "}"
        if t.action:
            s += f" act {{{format_actions(t.action)}}}"
        lines.append(s)
    for (hi, lo) in model.priority:
        lines.append(f"prio {hi} > {lo}")
    return "\n".join(lines) + "\n"


def load_tts(path) -> TtsModel:
    from pathlib import Path

    p = Path(path)
    return parse_tts(p.read_text(encoding="utf-8"), name=p.stem)
