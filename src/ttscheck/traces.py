"""Timed traces: alternating events and rational durations, plus a simulator.

A trace optionally records the state it starts from (needed to evaluate state
predicates before the first event) and whether it ended in a deadlock, in
which case the final state persists forever and verdicts on it are decisive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .expr import ExprError, format_rational, parse_rational
from .model import (
    Event,
    ExplorationError,
    Marking,
    Store,
    TtsModel,
    enabled,
    fire,
    step,
)


@dataclass(frozen=True)
class Duration:
    value: Fraction


Item = Union[Event, Duration]


class TraceError(ValueError):
    """Malformed trace text."""


@dataclass(frozen=True)
class TimedTrace:
    items: tuple = ()
    initial: Optional[tuple] = None  # (marking, store) before the first item
    deadlocked: bool = False

    @staticmethod
    def of(items, initial=None, deadlocked: bool = False) -> "TimedTrace":
        if initial is not None:
            marking, store = initial
            initial = ({p: n for p, n in marking.items() if n}, dict(store))
        return TimedTrace(normalize_items(items), initial, deadlocked)

    @property
    def events(self) -> tuple:
        return tuple(it for it in self.items if isinstance(it, Event))

    def event_times(self) -> list:
        """(time, event) pairs in sequence order."""
        out = []
        t = Fraction(0)
        for it in self.items:
            if isinstance(it, Duration):
                t += it.value
            else:
                out.append((t, it))
        return out

    def __len__(self) -> int:
        return len(self.items)


def normalize_items(items) -> tuple:
    """Drop zero durations and merge adjacent ones; idempotent."""
    out: list = []
    for it in items:
        if isinstance(it, Duration):
            if it.value == 0:
                continue
            if it.value < 0:
                raise TraceError("negative duration")
            if out and isinstance(out[-1], Duration):
                out[-1] = Duration(out[-1].value + it.value)
                continue
        out.append(it)
    return tuple(out)


def duration(s: TimedTrace) -> Fraction:
    """Total elapsed time of a trace."""
    total = Fraction(0)
    for it in s.items:
        if isinstance(it, Duration):
            total += it.value
    return total


# ---------------------------------------------------------------------------
# Simulation

# Probability of forcing an endpoint delay: strict / non-strict boundary
# behavior is where observers and oracles disagree first when one of them is
# wrong.
ENDPOINT_BIAS = 0.25


@dataclass
class _Pending:
    """Firing window of an enabled transition, in absolute time."""

    earliest: Fraction
    earliest_strict: bool
    latest: Optional[Fraction]
    latest_strict: bool


def _window(model: TtsModel, name: str, now: Fraction) -> _Pending:
    iv = model.transitions[name].timing
    latest = None if iv.upper.is_infinite else now + iv.upper.value
    return _Pending(now + iv.lower.value, iv.lower.strict, latest, iv.upper.strict)


def _sample_in(rng: random.Random, lo: Fraction, lo_strict: bool, hi: Fraction,
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


def simulate(model: TtsModel, horizon: Fraction, seed: int,
             denominator: int = 8) -> TimedTrace:
    """Random timed run of the model up to `horizon` or deadlock.

    Delays favor a window's closed endpoints (see `ENDPOINT_BIAS`) and
    otherwise fall on the 1/denominator grid strictly inside the window, or
    on its midpoint when no grid point is inside.

    Tracks exact enabling times; a transition may be picked to fire at time
    tau only if tau lies in its own window, no enabled transition's deadline
    has passed, and every strictly-higher-priority enabled transition can
    still fire strictly later than tau.
    """
    rng = random.Random(seed)
    horizon = Fraction(horizon)
    marking = model.initial_marking()
    store = model.initial_store()
    now = Fraction(0)
    pending: dict = {}
    for name in sorted(enabled(model, marking, store)):
        pending[name] = _window(model, name, now)
    items: list = []
    deadlocked = False

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
            if lo > hi or (lo == hi and (lo_s or hi_s)):
                continue
            candidates.append((name, lo, lo_s, hi, hi_s))
        if not candidates:
            raise AssertionError("time-blocked state: some deadline is unreachable")
        name, lo, lo_s, hi, hi_s = candidates[rng.randrange(len(candidates))]
        tau = _sample_in(rng, lo, lo_s, hi, hi_s, denominator)
        assert tau is not None
        if tau > horizon:
            items.append(Duration(horizon - now))
            now = horizon
            break
        items.append(Duration(tau - now))
        marking, store, event, now_enabled, fresh = step(model, marking, store, name)
        items.append(event)
        # strict-later obligation for higher-priority competitors we preempted
        for h in model.higher_than(name):
            w = pending.get(h)
            if w is not None and h in now_enabled and h not in fresh:
                if w.earliest < tau or (w.earliest == tau and not w.earliest_strict):
                    w.earliest, w.earliest_strict = tau, True
        for gone in [n for n in pending if n not in now_enabled]:
            del pending[gone]
        for n in sorted(now_enabled):
            if n in fresh or n not in pending:
                pending[n] = _window(model, n, tau)
        now = tau

    return TimedTrace.of(items, (model.initial_marking(), model.initial_store()),
                         deadlocked)


def replay(model: TtsModel, trace: TimedTrace) -> bool:
    """Re-fire the trace's events in order, checking recorded post-states."""
    marking = model.initial_marking()
    store = model.initial_store()
    if trace.initial is not None:
        compact = {p: n for p, n in marking.items() if n}
        if trace.initial[0] != compact or trace.initial[1] != store:
            return False
    for it in trace.items:
        if isinstance(it, Duration):
            continue
        try:
            marking, store, event = fire(model, marking, store, it.transition)
        except ExplorationError:
            return False
        if event.marking != it.marking or event.store != it.store:
            return False
    return True


# ---------------------------------------------------------------------------
# Text format: `@ <rational>` durations, `! <transition> | m:{..} | s:{..}` events

def _fmt_marking(m: Marking) -> str:
    return ",".join(f"{p}={n}" for p, n in sorted(m.items()) if n)


def _fmt_store(s: Store) -> str:
    return ",".join(f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                    for k, v in sorted(s.items()))


def serialize_trace(s: TimedTrace) -> str:
    lines = []
    if s.initial is not None:
        lines.append(f"= m:{{{_fmt_marking(s.initial[0])}}} | s:{{{_fmt_store(s.initial[1])}}}")
    for it in s.items:
        if isinstance(it, Duration):
            lines.append(f"@ {format_rational(it.value)}")
        else:
            lines.append(f"! {it.transition} | m:{{{_fmt_marking(it.marking)}}}"
                         f" | s:{{{_fmt_store(it.store)}}}")
    if s.deadlocked:
        lines.append("%deadlock")
    return "\n".join(lines) + "\n"


def _parse_map(text: str, lineno: int, into_marking: bool):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise TraceError(f"line {lineno}: expected {{..}} map, found {text!r}")
    out: dict = {}
    body = text[1:-1].strip()
    if not body:
        return out
    for pair in body.split(","):
        if "=" not in pair:
            raise TraceError(f"line {lineno}: bad map entry {pair!r}")
        k, v = pair.split("=", 1)
        k, v = k.strip(), v.strip()
        if not into_marking and v in ("true", "false"):
            out[k] = v == "true"
            continue
        try:
            out[k] = int(v)
        except ValueError as exc:
            raise TraceError(f"line {lineno}: bad map value {v!r} for {k!r}") from exc
        if into_marking and out[k] < 0:
            raise TraceError(f"line {lineno}: negative marking {v} for {k!r}")
    return out


def _parse_state(rest: str, lineno: int):
    parts = rest.split("|")
    marking: dict = {}
    store: dict = {}
    for part in parts:
        part = part.strip()
        if part.startswith("m:"):
            marking = _parse_map(part[2:], lineno, True)
        elif part.startswith("s:"):
            store = _parse_map(part[2:], lineno, False)
        elif part:
            raise TraceError(f"line {lineno}: unexpected field {part!r}")
    return marking, store


def parse_trace(text: str) -> TimedTrace:
    items: list = []
    initial = None
    deadlocked = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "%deadlock":
            deadlocked = True
            continue
        head, _, rest = line.partition(" ")
        if head == "@":
            try:
                value = parse_rational(rest)
            except ExprError as exc:
                raise TraceError(f"line {lineno}: {exc}") from exc
            if value < 0:
                raise TraceError(f"line {lineno}: negative duration")
            items.append(Duration(value))
        elif head == "!":
            name, _, staterest = rest.partition("|")
            name = name.strip()
            if not name:
                raise TraceError(f"line {lineno}: event needs a transition name")
            marking, store = _parse_state(staterest, lineno)
            items.append(Event(name, marking, store))
        elif head == "=":
            initial = _parse_state(rest, lineno)
        else:
            raise TraceError(f"line {lineno}: unknown item {head!r}")
    return TimedTrace.of(items, initial, deadlocked)
