from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MODELS, guarded_nets, nets
from reference import fraction_simulate
from ttscheck.expr import format_rational
from ttscheck.model import Event, ExplorationError, load_tts, parse_tts
from ttscheck.traces import (
    MAX_FIRINGS_AT_ONE_INSTANT,
    Duration,
    TickedTrace,
    TimedTrace,
    TraceError,
    _fmt_marking,
    _fmt_store,
    parse_trace,
    replay,
    serialize_trace,
    simulate,
    simulate_ticked,
    truncate,
)


def ev(name, **store):
    return Event(name, {}, store)


def tr(*items, dl=False):
    return TimedTrace.of(items, ({}, {}), dl)


# ---------------------------------------------------------------------------
# duration / normalization

def test_duration_empty():
    assert tr().end == 0


def test_duration_sums():
    t = tr(Duration(Fraction(3, 2)), ev("e"), Duration(Fraction(5, 2)))
    assert t.end == 4


def test_normalize_merges_and_drops():
    t = tr(Duration(Fraction(0)), Duration(Fraction(1)), Duration(Fraction(2)),
           ev("e"), Duration(Fraction(0)))
    assert t == tr(Duration(Fraction(3)), ev("e"))
    assert serialize_trace(t) == "= m:{} | s:{}\n@ 3\n! e | m:{} | s:{}\n"
    assert parse_trace(serialize_trace(t)) == t


# ---------------------------------------------------------------------------
# simulation

def test_airlock_door_timing(airlock):
    for seed in (0, 3, 11):
        t = simulate(airlock, Fraction(60), seed)
        evs = t.timed
        opens = [(tt, e) for tt, e in evs if e.transition.startswith("Open")]
        closes = [(tt, e) for tt, e in evs if e.transition.startswith("Close")]
        assert len(opens) == len(closes) or len(opens) == len(closes) + 1
        for (to, eo), (tc, ec) in zip(opens, closes):
            assert tc - to == 4
            assert ec.transition[-1] == eo.transition[-1]


def test_forced_point_firing_then_deadlock():
    m = parse_tts("places P=1\ntrans t in [2,2] consume {P}\n")
    t = simulate(m, Fraction(10), seed=5)
    assert t.deadlocked
    assert t.timed == ((Fraction(2), t.events[0]),)
    assert t.end == 2
    assert t.events[0].transition == "t"


def test_open_ended_strict_lower_bound_fires():
    # a strict lower bound at or past now + 1 used to leave an empty window
    m = parse_tts("places P=1\ntrans t in ]1,oo[ consume {P} produce {P}\n")
    t = simulate(m, Fraction(5), seed=0)
    assert t.events
    first = t.timed[0][0]
    assert 1 < first <= 2


def test_zero_delay_cycle_is_an_exploration_error():
    m = parse_tts("places P=1 Q\ntrans a in [0,0] consume {P} produce {Q}\n"
                  "trans b in [0,0] consume {Q} produce {P}\n")
    with pytest.raises(ExplorationError,
                       match=f"more than {MAX_FIRINGS_AT_ONE_INSTANT} firings at time 0"):
        simulate(m, Fraction(5), seed=0)


def test_a_run_may_hold_exactly_the_event_budget(monkeypatch):
    # t fires at 1, 2, 3, ...: a run to horizon n holds n events
    monkeypatch.setattr("ttscheck.traces.MAX_RUN_EVENTS", 10)
    m = parse_tts("places P=1\ntrans t in [1,1] consume {P} produce {P}\n")
    assert len(simulate(m, Fraction(10), seed=0).events) == 10
    with pytest.raises(ExplorationError,
                       match="^run exceeds the budget of 10 events: 10 events fired by time 10$"):
        simulate(m, Fraction(11), seed=0)


def test_seed_determinism(airlock):
    a = simulate(airlock, Fraction(50), 9)
    b = simulate(airlock, Fraction(50), 9)
    c = simulate(airlock, Fraction(50), 10)
    assert a == b
    assert a != c


def test_simulated_delays_respect_static_intervals(relay):
    for seed in range(25):
        t = simulate(relay, Fraction(40), seed)
        assert replay(relay, t)
        enable: dict = {}
        # recompute enabling times to check each firing against its interval
        from ttscheck.model import enabled as en, step

        mk, st_ = relay.initial_marking(), relay.initial_store()
        for n in en(relay, mk, st_):
            enable[n] = Fraction(0)
        for now, it in t.timed:
            iv = relay.transitions[it.transition].timing
            assert iv.contains(now - enable[it.transition]), it.transition
            mk, st_, live, fresh = step(relay, mk, st_, it.transition, en(relay, mk, st_))
            enable = {u: (now if u in fresh else enable.get(u, now))
                      for u in live}


def test_priority_respected_in_simulation(airlock):
    # door 1 never opens while a door-2 request is pending: the preempting
    # Open2 would have been simultaneously firable
    for seed in range(60):
        t = simulate(airlock, Fraction(60), seed)
        for tt, e in t.timed:
            if e.transition == "Open1":
                assert e.store["req2"] is False


def test_replay_rejects_corrupted_trace(airlock):
    t = simulate(airlock, Fraction(20), 3)
    bad_timed = tuple(
        (tt, Event("Open2", e.marking, e.store) if e.transition == "Open1" else e)
        for tt, e in t.timed)
    if bad_timed != t.timed:
        bad = TimedTrace(bad_timed, t.end, t.initial, t.deadlocked)
        assert not replay(airlock, bad)


# ---------------------------------------------------------------------------
# text format

def test_round_trip_simulated(airlock):
    t = simulate(airlock, Fraction(30), 2)
    assert parse_trace(serialize_trace(t)) == t


def test_empty_file_and_comments():
    assert parse_trace("# nothing here\n\n") == TimedTrace()


def test_malformed_duration_rejected():
    with pytest.raises(TraceError):
        parse_trace("@ not-a-number\n")
    with pytest.raises(TraceError):
        parse_trace("@ -3\n")
    with pytest.raises(TraceError):
        parse_trace("? what\n")


@pytest.mark.parametrize("text", ["1e1", "1E1", "1/2e3", "+1", ".5", "1.", "1_0", "inf",
                                  "- 1", "--1", "1/-2"])
def test_durations_take_only_the_documented_rationals(text):
    with pytest.raises(TraceError) as exc:
        parse_trace(f"@ {text}\n")
    assert str(exc.value) == f"line 1: bad rational literal {text!r}"


def test_durations_read_whole_numbers_fractions_and_decimals():
    assert [parse_trace(f"@ {t}\n").end for t in ("3", "3/4", "1.25", " 7 ")] == \
        [3, Fraction(3, 4), Fraction(5, 4), 7]


def test_negative_marking_rejected_negative_store_kept():
    for text in ("! t | m:{P=-1} | s:{}\n", "= m:{P=1, Q=-2}\n"):
        with pytest.raises(TraceError, match="line 1: negative marking"):
            parse_trace(text)
    t = parse_trace("= m:{P=1} | s:{x=-4}\n! t | m:{P=2} | s:{x=-1}\n")
    assert t.initial == ({"P": 1}, {"x": -4})
    assert t.events == (Event("t", {"P": 2}, {"x": -1}),)


INIT = "= m:{Idle=1} | s:{req1=false,req2=false}\n"
BUTTON = "! Button1 | m:{Idle=1} | s:{req1=true,req2=false}\n"
MISPLACED_ITEMS = {
    "after-deadlock": (INIT + "%deadlock\n@ 3\n" + BUTTON, "line 3: nothing may follow %deadlock"),
    "initial-after-event": (BUTTON + INIT, "line 2: the '=' initial state must be the first item"),
    "second-initial": (INIT + INIT, "line 2: the '=' initial state must be the first item"),
}


@pytest.mark.parametrize("name", MISPLACED_ITEMS)
def test_misplaced_trace_item_rejected_at_its_line(name):
    text, message = MISPLACED_ITEMS[name]
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert str(exc.value) == message


def test_deadlock_marker_round_trip():
    t = TimedTrace.of([Duration(Fraction(1))], None, deadlocked=True)
    assert parse_trace(serialize_trace(t)) == t


# ---------------------------------------------------------------------------
# truncation

def cut(t: TimedTrace, horizon) -> TimedTrace:
    """The trace of `truncate` on the trace put in ticks, after checking
    that the cut's ticks are its times."""
    c = truncate(TickedTrace.of(t), horizon)
    assert [Fraction(k, c.scale) for k in c.ticks] == [u for u, _ in c.trace.timed]
    return c.trace


def test_ticked_trace_of_counts_in_the_lcm_of_the_denominators():
    t = tr(Duration(Fraction(1, 2)), ev("a"), Duration(Fraction(1, 3)), ev("b"),
           Duration(Fraction(1, 4)))
    assert TickedTrace.of(t) == TickedTrace(t, (6, 10), 12)
    assert TickedTrace.of(tr()) == TickedTrace(tr(), (), 1)


def test_truncate_keeps_a_firing_at_the_horizon():
    t = tr(Duration(Fraction(2)), ev("a"), Duration(Fraction(3)), ev("b"), dl=True)
    assert cut(t, 2) == tr(Duration(Fraction(2)), ev("a"))
    assert cut(t, 4) == tr(Duration(Fraction(2)), ev("a"), Duration(Fraction(2)))
    assert cut(t, 1) == tr(Duration(Fraction(1)))
    assert cut(t, 0) == tr()
    # at horizons between two ticks: past the event, and before it
    assert cut(t, Fraction(9, 4)) == tr(Duration(Fraction(2)), ev("a"),
                                        Duration(Fraction(1, 4)))
    assert cut(t, Fraction(199, 100)) == tr(Duration(Fraction(199, 100)))


def test_truncate_keeps_a_run_that_ends_by_the_horizon():
    run = TickedTrace.of(tr(Duration(Fraction(2)), ev("a"), dl=True))
    assert truncate(run, 2) is run
    assert truncate(run, 7) is run


horizons = st.builds(Fraction, st.integers(0, 40), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(nets(), horizons, horizons, st.integers(0, 1000))
# the two nets that once broke `simulate`: a strict open-ended window, and a
# zero-delay cycle
@example("places P0=1/3 P1=1/3\ntrans t0 in ]1,oo[ consume {P0} produce {P0}",
         Fraction(3, 2), Fraction(5), 0)
@example("places P0=1/3 P1=1/3\ntrans t0 in [0,0] consume {P0} produce {P1}\n"
         "trans t1 in [0,0] consume {P1} produce {P0}", Fraction(0), Fraction(5), 0)
def test_truncated_run_is_the_run_to_the_smaller_horizon(text, a, b, seed):
    model = parse_tts(text)
    h, H = sorted((a, b))
    try:
        short = simulate(model, h, seed)
    except ExplorationError:
        with pytest.raises(ExplorationError):
            simulate(model, H, seed)
        return
    try:
        run = simulate_ticked(model, H, seed)
    except ExplorationError:
        return
    assert truncate(run, h).trace == short


# ---------------------------------------------------------------------------
# ticks against `Fraction` time: the simulator and its reference

def simulated_text(simulator, model, horizon, seed, denominator) -> str:
    """The `.trace` text of the run, or the message of the error that ended
    it."""
    try:
        return serialize_trace(simulator(model, horizon, seed, denominator))
    except ExplorationError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(st.one_of(guarded_nets(), st.sampled_from(["airlock", "relay", "chain"])),
       st.integers(0, 10_000), st.sampled_from([3, 8]),
       st.sampled_from([Fraction(7, 3), Fraction(50)]))
# relay's seed-0 run halves the tick twice, down to `@ 1/32` steps
@example("relay", 0, 8, Fraction(50))
def test_int_simulate_matches_fraction_simulate(net, seed, denominator, horizon):
    model = load_tts(MODELS / f"{net}.tts") if net in ("airlock", "relay", "chain") \
        else parse_tts(net)
    assert simulated_text(simulate, model, horizon, seed, denominator) == \
        simulated_text(fraction_simulate, model, horizon, seed, denominator)


# ---------------------------------------------------------------------------
# the item-walking reference: a trace as alternating durations and events

def ref_normalize_items(items) -> tuple:
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


def ref_truncate(items: tuple, deadlocked: bool, horizon) -> tuple:
    """(items, deadlocked) of the normalized run cut at `horizon`."""
    now = Fraction(0)
    for k, it in enumerate(items):
        if isinstance(it, Duration):
            if now + it.value > horizon:
                rest = (Duration(horizon - now),) if horizon > now else ()
                return items[:k] + rest, False
            now += it.value
    return items, deadlocked


def ref_serialize_trace(items: tuple, initial, deadlocked: bool) -> str:
    lines = []
    if initial is not None:
        lines.append(f"= m:{{{_fmt_marking(initial[0])}}} | s:{{{_fmt_store(initial[1])}}}")
    for it in items:
        if isinstance(it, Duration):
            lines.append(f"@ {format_rational(it.value)}")
        else:
            lines.append(f"! {it.transition} | m:{{{_fmt_marking(it.marking)}}}"
                         f" | s:{{{_fmt_store(it.store)}}}")
    if deadlocked:
        lines.append("%deadlock")
    return "\n".join(lines) + "\n"


durations = st.builds(lambda n, d: Duration(Fraction(n, d)),
                      st.integers(0, 6), st.integers(1, 3))
events = st.sampled_from([ev("a"), Event("b", {"P": 1}, {"x": -1, "y": True}),
                          Event("c", {"P": 0, "Q": 2}, {})])
initials = st.one_of(st.none(), st.just(({"P": 1, "Q": 0}, {"x": 2, "y": False})))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(durations, events), max_size=12), initials,
       st.booleans(), st.data())
def test_trace_matches_the_item_walking_reference(items, initial, deadlocked, data):
    t = TimedTrace.of(items, initial, deadlocked)
    norm = ref_normalize_items(items)
    text = ref_serialize_trace(norm, initial, deadlocked)
    assert serialize_trace(t) == text
    assert parse_trace(text) == t
    assert t.end == sum(it.value for it in items if isinstance(it, Duration))
    times, now = [], Fraction(0)
    for it in norm:
        if isinstance(it, Duration):
            now += it.value
        else:
            times.append(now)
    # on an event, at the end, past the end, or anywhere
    horizon = data.draw(st.one_of(st.sampled_from(times + [now, now + Fraction(1, 2)]),
                                  horizons))
    cut_items, cut_deadlocked = ref_truncate(norm, deadlocked, horizon)
    c = cut(t, horizon)
    assert c == TimedTrace.of(cut_items, initial, cut_deadlocked)
    assert serialize_trace(c) == ref_serialize_trace(cut_items, initial, cut_deadlocked)
