"""Timed traces: events at absolute rational times, plus a simulator.

A trace optionally records the state it starts from (needed to evaluate state
predicates before the first event) and whether it ended in a deadlock, in
which case the final state persists forever and verdicts on it are decisive.
Durations exist only in the `.trace` text, between consecutive events.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .expr import ExprError, format_rational, parse_rational
from .model import (
    Event,
    ExplorationError,
    Marking,
    Store,
    TtsModel,
    enabled,
    fire,
)
from .records import record


@record(frozen=True)
class Duration:
    value: Fraction


class TraceError(ValueError):
    """Malformed trace text."""


@record(frozen=True)
class TimedTrace:
    """A run: `timed` holds (time, Event) pairs in firing order, at
    non-decreasing absolute times, and `end` is the run's total duration,
    never before the last event."""

    timed: tuple = ()
    end: Fraction = Fraction(0)
    initial: Optional[tuple] = None  # (marking, store) before the first event
    deadlocked: bool = False

    def __post_init__(self):
        if self.initial is not None:
            marking, store = self.initial
            object.__setattr__(self, "initial",
                               ({p: n for p, n in marking.items() if n}, dict(store)))

    @staticmethod
    def of(items, initial=None, deadlocked: bool = False) -> "TimedTrace":
        """The trace of alternating `Duration`s and `Event`s: each event
        fires at the sum of the durations before it."""
        timed = []
        now = Fraction(0)
        for it in items:
            if isinstance(it, Duration):
                if it.value < 0:
                    raise TraceError("negative duration")
                now += it.value
            else:
                timed.append((now, it))
        return TimedTrace(tuple(timed), now, initial, deadlocked)

    @property
    def events(self) -> tuple:
        return tuple(e for _, e in self.timed)


# ---------------------------------------------------------------------------
# Simulation

# Probability of forcing an endpoint delay: strict / non-strict boundary
# behavior is where observers and oracles disagree first when one of them is
# wrong.
ENDPOINT_BIAS = 0.25

# Consecutive firings at one instant before a run is given up: only a cycle
# of zero-delay transitions fires this often without letting time pass.
MAX_FIRINGS_AT_ONE_INSTANT = 10_000


@record(slots=True)
class _Pending:
    """Firing window of an enabled transition, in absolute time, in the
    ticks of the run that holds it."""

    earliest: int
    earliest_strict: bool
    latest: Optional[int]
    latest_strict: bool

    def double(self) -> None:
        """Rewrite the window in ticks half as long."""
        self.earliest *= 2
        if self.latest is not None:
            self.latest *= 2


def _window(model: TtsModel, name: str, now: int, factor: int) -> _Pending:
    """The window of `name` enabled at tick `now`, with `factor` ticks to a
    1/time_scale unit of the model."""
    lo, lo_strict, hi, hi_strict = model.ticks[name]
    return _Pending(now + lo * factor, lo_strict,
                    None if hi is None else now + hi * factor, hi_strict)


def _sample_in(rng: random.Random, lo: int, lo_strict: bool, hi: int,
               hi_strict: bool, grid: int) -> Optional[int]:
    """Pick a tick in the non-empty window, biased toward its endpoints;
    `grid` ticks make one 1/denominator step.  None when the pick is the
    window's midpoint and that falls between two ticks."""
    if lo == hi:
        return lo
    endpoints = []
    if not lo_strict:
        endpoints.append(lo)
    if not hi_strict:
        endpoints.append(hi)
    if endpoints and rng.random() < ENDPOINT_BIAS:
        return rng.choice(endpoints)
    # grid of 1/denominator steps strictly inside, falling back to the midpoint
    first = lo // grid + 1
    last = -(-hi // grid) - 1
    if first > last:
        return None if (lo + hi) % 2 else (lo + hi) // 2
    return rng.randint(first, last) * grid


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

    Times are ints, in ticks of 1/scale, an exact rescaling: the scale
    starts at the LCM of the model's `time_scale`, `denominator` and the
    horizon's denominator, and doubles, with every time the run holds,
    whenever a midpoint falls between two ticks.

    Each untimed step is read from the model's `step_memo`, so a step
    taken in an earlier run, or earlier in this one, is not taken again,
    and runs that take the same step share its `Event`.

    Random choices do not depend on `horizon` until the first firing past
    it, so a run to a smaller horizon is this run cut there (`truncate`).
    More than `MAX_FIRINGS_AT_ONE_INSTANT` firings in a row at one instant
    raise `ExplorationError`.
    """
    rng = random.Random(seed)
    horizon = Fraction(horizon)
    scale = math.lcm(model.time_scale, denominator, horizon.denominator)
    factor = scale // model.time_scale  # ticks per 1/time_scale unit
    grid = scale // denominator  # ticks per 1/denominator step
    end = horizon.numerator * (scale // horizon.denominator)
    higher = {n: model.higher_than(n) for n in model.transitions}
    memo = model.step_memo
    marking = model.initial_marking()
    store = model.initial_store()
    state = memo.intern(model, marking, store)
    now = 0
    pending: dict = {}
    for name in sorted(enabled(model, marking, store)):
        pending[name] = _window(model, name, now, factor)
    timed: list = []  # (tick, Event)
    deadlocked = False
    at_instant = 0  # firings so far at time `now`

    while True:
        if not pending:
            deadlocked = True
            break
        # global deadline: earliest latest-bound among enabled transitions
        deadline: Optional[int] = None
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
            for h in higher[name]:
                hw = pending.get(h)
                if hw is None or hw.latest is None:
                    continue
                # must leave room for h to fire strictly later
                if hi is None or hw.latest < hi or (hw.latest == hi and not hi_s):
                    hi, hi_s = hw.latest, True
            if hi is None:
                hi, hi_s = max(lo, now + scale), False  # open-ended: cap arbitrarily
                if lo == hi and lo_s:
                    hi = lo + scale  # past a strict lower bound
            if lo > hi or (lo == hi and (lo_s or hi_s)):
                continue
            candidates.append((name, lo, lo_s, hi, hi_s))
        if not candidates:
            raise AssertionError("time-blocked state: some deadline is unreachable")
        name, lo, lo_s, hi, hi_s = candidates[rng.randrange(len(candidates))]
        tau = _sample_in(rng, lo, lo_s, hi, hi_s, grid)
        if tau is None:  # the midpoint lies between two ticks: halve the tick
            scale, factor, grid, end, now = 2 * scale, 2 * factor, 2 * grid, 2 * end, 2 * now
            for w in pending.values():
                w.double()
            timed = [(2 * t, e) for t, e in timed]
            tau = lo + hi
        if tau > end:
            now = end
            break
        at_instant = at_instant + 1 if tau == now else 1
        if at_instant > MAX_FIRINGS_AT_ONE_INSTANT:
            raise ExplorationError(
                f"more than {MAX_FIRINGS_AT_ONE_INSTANT} firings at time "
                f"{format_rational(Fraction(tau, scale))} without time passing")
        state, gone, fresh, event = memo.step(model, state, name, pending)
        timed.append((tau, event))
        for n in gone:
            del pending[n]
        # strict-later obligation for higher-priority competitors we preempted
        for h in higher[name]:
            if h in pending and h not in fresh:
                w = pending[h]
                if w.earliest < tau or (w.earliest == tau and not w.earliest_strict):
                    w.earliest, w.earliest_strict = tau, True
        for n in fresh:
            pending[n] = _window(model, n, tau, factor)
        now = tau

    return TimedTrace(tuple((Fraction(t, scale), e) for t, e in timed), Fraction(now, scale),
                      (marking, store), deadlocked)


def truncate(trace: TimedTrace, horizon) -> TimedTrace:
    """The run cut at time `horizon`.

    A run that ends at or before `horizon` is returned unchanged.  A longer
    run keeps its events up to `horizon`, an event fired exactly at
    `horizon` included, ends at `horizon` and is not deadlocked.  For
    h <= H, `truncate(simulate(m, H, s), h)` is `simulate(m, h, s)`.
    """
    horizon = Fraction(horizon)
    if trace.end <= horizon:
        return trace
    return TimedTrace(tuple(p for p in trace.timed if p[0] <= horizon), horizon,
                      trace.initial, False)


def replay(model: TtsModel, trace: TimedTrace) -> bool:  # api: benchmarks/verify.py
    """Re-fire the trace's events in order, checking recorded post-states."""
    marking = model.initial_marking()
    store = model.initial_store()
    if trace.initial is not None:
        compact = {p: n for p, n in marking.items() if n}
        if trace.initial[0] != compact or trace.initial[1] != store:
            return False
    for it in trace.events:
        try:
            marking, store = fire(model, marking, store, it.transition)
        except ExplorationError:
            return False
        event = Event(it.transition, marking, store)
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
    """`.trace` text: one `@` line per positive gap between consecutive
    event times, and one for the time left after the last event."""
    lines = []
    if s.initial is not None:
        lines.append(f"= m:{{{_fmt_marking(s.initial[0])}}} | s:{{{_fmt_store(s.initial[1])}}}")
    now = Fraction(0)
    for t, e in s.timed:
        if t > now:
            lines.append(f"@ {format_rational(t - now)}")
        now = t
        lines.append(f"! {e.transition} | m:{{{_fmt_marking(e.marking)}}}"
                     f" | s:{{{_fmt_store(e.store)}}}")
    if s.end > now:
        lines.append(f"@ {format_rational(s.end - now)}")
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
    """`.trace` text as a trace: an `=` initial state may come first only,
    and nothing may follow `%deadlock`."""
    items: list = []
    initial = None
    deadlocked = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if deadlocked:
            raise TraceError(f"line {lineno}: nothing may follow %deadlock")
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
            if items or initial is not None:
                raise TraceError(f"line {lineno}: the '=' initial state must be the first item")
            initial = _parse_state(rest, lineno)
        else:
            raise TraceError(f"line {lineno}: unknown item {head!r}")
    return TimedTrace.of(items, initial, deadlocked)
