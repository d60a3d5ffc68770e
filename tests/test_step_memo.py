"""The step memo of the simulator and of instrumented replay: runs, letters
and verdicts do not depend on what the memo already holds, every engine
passes the tracked enabled set of the pre-state as `before` (what makes the
state a sufficient key), and a step that raises is never stored."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODELS, guarded_nets, xcheck_catalog
from reference import fraction_replay_instrumented, fraction_simulate
from ttscheck import observers
from ttscheck.model import (
    CapacityExceeded,
    ExplorationError,
    StepMemo,
    enabled,
    load_tts,
    parse_tts,
)
from ttscheck.observers import InstrumentedModel, compose, replay_instrumented, synthesize
from ttscheck.patterns import parse_pattern, pattern_constants
from ttscheck.traces import parse_trace, serialize_trace, simulate


def replayed(inst, trace) -> tuple:
    """The letters of the instrumented replay of `trace`, the final stutter
    letter last, and its verdict or the message of the error that ended it."""
    read = []
    run_lasso_program = observers.run_lasso_program

    def reading(program, stem, cycle):
        read.append(stem + cycle)
        return run_lasso_program(program, stem, cycle)

    with mock.patch.object(observers, "run_lasso_program", reading):
        try:
            outcome = replay_instrumented(inst, trace).value
        except ExplorationError as exc:
            return None, str(exc)
    (letters,) = read
    return letters, outcome


def fraction_outcome(inst, trace):
    try:
        return fraction_replay_instrumented(inst, trace).value
    except ExplorationError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["airlock", "relay", "chain"])
def test_the_order_a_memo_fills_in_does_not_change_runs_or_replays(name):
    # one model object and one composed model per pattern, whose memos fill
    # over 200 seeds in sorted order and are read again in shuffled order
    model = load_tts(MODELS / f"{name}.tts")
    patterns = [parse_pattern(t) for t in xcheck_catalog(name)]
    horizon = Fraction(3 * max(c for p in patterns for c in pattern_constants(p)))
    insts = [compose(model, synthesize(p)) for p in patterns]
    seeds = list(range(200))
    expected = {}
    for seed in seeds:
        ref = fraction_simulate(model, horizon, seed)
        fresh = [replayed(InstrumentedModel(i.model, i.provenance, i.formula), ref)[0]
                 for i in insts]
        expected[seed] = (serialize_trace(ref), [fraction_outcome(i, ref) for i in insts],
                          fresh)
    shuffled = seeds[:]
    random.Random(name).shuffle(shuffled)
    for order in (seeds, shuffled):
        for seed in order:
            text, outcomes, fresh = expected[seed]
            trace = simulate(model, horizon, seed)
            assert serialize_trace(trace) == text, seed
            for inst, outcome, letters in zip(insts, outcomes, fresh):
                assert replayed(inst, trace) == (letters, outcome), (seed, inst.formula)
    assert len(model.step_memo.steps) < sum(len(t.splitlines()) for t, _, _ in
                                            expected.values())  # the memo was hit


LOOSE_PATTERNS = ("present t1 after t0 within [0,3]",
                  "t0 leadsto first t1 within [0,3]",
                  "absent t0 before t1 for duration 2")


@settings(max_examples=60, deadline=None)
@given(guarded_nets(), st.data())
def test_engines_pass_the_tracked_enabled_set_as_before(text, data):
    # the simulator tracks every transition, replay the watchers; the check
    # runs at every step, whether the memo holds it or not
    model = parse_tts(text)
    places = st.sampled_from(sorted(model.places))
    lasting = f"present {data.draw(places)} lasting {data.draw(st.integers(1, 4))}"
    insts = [compose(model, synthesize(parse_pattern(p))) for p in LOOSE_PATTERNS + (lasting,)]
    tracked = {id(model): None, **{id(i.model): i.observer_transitions for i in insts}}
    checked = []
    memo_step = StepMemo.step

    def checking(memo, m, sid, name, before):
        marking, store = memo.states[sid]
        assert set(before) == enabled(m, marking, store, tracked[id(m)])
        checked.append(name)
        return memo_step(memo, m, sid, name, before)

    with mock.patch.object(StepMemo, "step", checking):
        for seed in (data.draw(st.integers(0, 1000)), data.draw(st.integers(0, 1000))):
            checked.clear()
            try:
                trace = simulate(model, Fraction(20), seed)
            except ExplorationError:  # a zero-delay cycle
                return
            assert len(checked) == len(trace.events)
            for inst in insts:
                checked.clear()
                letters, _ = replayed(inst, trace)
                if letters is not None:
                    assert len(checked) == len(letters) - 1


@pytest.mark.parametrize("text, error", [
    ("places P=1 Q=1\ntrans t in [0,0] consume {P} produce {Q}", CapacityExceeded),
    ("places P=1\nvars n:0..1=1\ntrans t in [0,0] consume {P} produce {P} act {n := n + 1}",
     ExplorationError),
])
def test_a_step_that_raises_in_simulate_is_never_stored(text, error):
    model = parse_tts(text)
    memo = model.step_memo
    messages = []
    for _ in range(2):
        with pytest.raises(error) as exc:
            simulate(model, Fraction(5), 0)
        assert type(exc.value) is error
        messages.append(str(exc.value))
        assert (len(memo.states), memo.steps) == (1, {})
    assert messages[0] == messages[1]


def test_a_system_event_replay_cannot_fire_is_never_stored(airlock):
    # Open1 needs req1, false at the start; no watcher is enabled there
    inst = compose(airlock, synthesize(parse_pattern("present Ventil after Open1 within [0,10]")))
    trace = parse_trace("@ 1\n! Open1 | m:{D1isOpen=1} | s:{req1=true}\n")
    memo = inst.step_memo
    messages = []
    for _ in range(2):
        with pytest.raises(ExplorationError) as exc:
            replay_instrumented(inst, trace)
        assert type(exc.value) is ExplorationError
        messages.append(str(exc.value))
        assert (len(memo.states), memo.steps) == (1, {})
    assert messages[0] == messages[1] == "transition 'Open1' fired while disabled"
