"""The sparse schedule solver of `ltl` against a dense Fraction-DBM reference.

The reference below solves the difference constraints of a firing sequence
the way witness schedules were first solved: one `zone.Dbm` variable per
firing step, each added with a full closure, one closure over all the
constraints, and one re-closure per step to fix its firing time to the
midpoint of its window.  The shortest-path solver must give the same times,
the same cycle-time bounds and fail on the same sequences.
"""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import n_door_airlock_tts
from test_int_kernel import nets
from ttscheck import classgraph as cg
from ttscheck import cli, ltl, zone
from ttscheck.ltl import Counterexample, cycle_time_lower_bound, solve_schedule
from ttscheck.model import DEFAULT_INTERVAL, load_tts, parse_tts
from ttscheck.observers import compose, synthesize
from ttscheck.patterns import parse_pattern
from ttscheck.traces import parse_trace, replay

# ---------------------------------------------------------------------------
# Reference: dense closure over every firing step


def ref_zone(k, cons):
    """Canonical DBM of the constraints; step i is variable i (names sort by
    step), None when inconsistent."""
    d = reference.trivial()
    for i in range(1, k + 1):
        d = reference.add_variable(d, f"s{i:04d}", DEFAULT_INTERVAL)
    return reference.constrain_many(d, cons)


def ref_solve_schedule(model, firing):
    """Midpoint firing times, or None when the sequence has no schedule."""
    try:
        cons = ltl._schedule_constraints(model, firing)
    except ValueError:  # a step that is not enabled
        return None
    d = ref_zone(len(firing), cons)
    if d is None:
        return None
    times = []
    for i in range(1, len(firing) + 1):
        lo_b, up_b = d.m[0][i], d.m[i][0]
        lo = -lo_b[0]
        if up_b is None:
            val = lo + 1 if lo_b[1] else lo
        elif up_b[0] == lo:
            val = lo
        else:
            val = (lo + up_b[0]) / 2
        d = reference.constrain_many(d, [(i, 0, (val, False)), (0, i, (-val, False))])
        assert d is not None
        times.append(val)
    return times


def ref_cycle_time_lower_bound(model, cx):
    labels = [t for (_, t, _) in cx.stem] + 2 * [t for (_, t, _) in cx.cycle]
    d = ref_zone(len(labels), ltl._schedule_constraints(model, labels))
    if d is None:
        return None
    first = len(cx.stem)
    bound = d.m[first][first + len(cx.cycle)]
    return Fraction(0) if bound is None else max(Fraction(0), -bound[0])


# ---------------------------------------------------------------------------
# Random firing sequences of random small nets


def walk(model, data, max_steps=12):
    """A random path of the class graph: its firing sequence and the lasso
    closed by the first class it visits twice, if any."""
    c = cg.initial_class(model)
    seen = {c.key(): 0}
    steps, lasso = [], None
    for _ in range(max_steps):
        fir = sorted(cg.firable(model, c))
        if not fir:
            break
        t = data.draw(st.sampled_from(fir))
        c = cg.successor(model, c, t)
        steps.append((len(steps), t, len(steps) + 1))
        back = seen.setdefault(c.key(), len(steps))
        if lasso is None and back < len(steps):
            lasso = Counterexample(tuple(steps[:back]), tuple(steps[back:]))
    return steps, lasso


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:  # a step that is not enabled
        return ValueError


def assert_same_schedule(model, firing):
    ref = ref_solve_schedule(model, firing)
    if ref is None:
        with pytest.raises(ValueError):
            solve_schedule(model, firing)
    else:
        assert solve_schedule(model, firing) == ref


@settings(max_examples=80, deadline=None)
@given(nets(), st.data())
def test_schedules_match_dense_reference(text, data):
    model = parse_tts(text)
    steps, lasso = walk(model, data)
    firing = [t for (_, t, _) in steps]
    times = solve_schedule(model, firing)
    assert times == ref_solve_schedule(model, firing)
    assert times == sorted(times)
    if lasso is not None:
        assert cycle_time_lower_bound(model, lasso) \
            == ref_cycle_time_lower_bound(model, lasso)
        # the cycle run backwards: often not enabled or with no schedule
        backwards = Counterexample(lasso.stem, lasso.cycle[::-1])
        assert outcome(cycle_time_lower_bound, model, backwards) \
            == outcome(ref_cycle_time_lower_bound, model, backwards)
    # two steps out of order
    if len(firing) >= 2:
        i = data.draw(st.integers(0, len(firing) - 2))
        j = data.draw(st.integers(i + 1, len(firing) - 1))
        swapped = list(firing)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert_same_schedule(model, swapped)
    # one extra step, which may not be enabled
    extra = list(firing)
    extra.insert(data.draw(st.integers(0, len(extra))),
                 data.draw(st.sampled_from(sorted(model.transitions))))
    assert_same_schedule(model, extra)


# ---------------------------------------------------------------------------
# Edge cases


def test_empty_sequence_has_empty_schedule():
    m = parse_tts("places P=1\ntrans t in [1,2] consume {P}\n")
    assert solve_schedule(m, []) == []


def test_strict_zero_cycle_has_no_schedule():
    # lo cannot fire first: hi, which has priority over it, is due at 0 as
    # well, so 0 <= T_1 < 0, a cycle of value 0 with a strict edge
    m = parse_tts("places P=1 Q\ntrans hi in [0,0] consume {P} produce {Q}\n"
                  "trans lo in [0,0] read {P}\nprio hi > lo\n")
    assert ref_solve_schedule(m, ["lo"]) is None
    with pytest.raises(ValueError, match="admits no schedule"):
        solve_schedule(m, ["lo"])


def test_unbounded_windows_step_one_past_a_strict_lower_end():
    m = parse_tts("places P=1 Q\ntrans a in ]2,oo[ consume {P} produce {Q}\n"
                  "trans b in [3,oo[ consume {Q}\n")
    assert solve_schedule(m, ["a", "b"]) == [Fraction(3), Fraction(6)] \
        == ref_solve_schedule(m, ["a", "b"])


AIRLOCK3_PATTERNS = """\
present Ventil after (Open1 | Open2 | Open3) within [0,9]
absent (Open1 | Open2 | Open3) after (Close1 | Close2 | Close3) for interval [0,10]
Button3 leadsto first Open3 within [0,10]
present Refresh lasting 6
"""


def test_check_out_runs_no_full_closure_and_traces_replay(tmp_path, monkeypatch):
    def closure(*args):
        raise AssertionError("full closure on the witness path")

    monkeypatch.setattr(zone, "canonicalize", closure)
    (tmp_path / "airlock3.tts").write_text(n_door_airlock_tts(3))
    (tmp_path / "reqs.pat").write_text(AIRLOCK3_PATTERNS)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(out), "check", str(tmp_path / "airlock3.tts"),
                         str(tmp_path / "reqs.pat")])
    assert code == 1
    model = load_tts(tmp_path / "airlock3.tts")
    patterns = AIRLOCK3_PATTERNS.splitlines()
    files = sorted(out.iterdir())
    assert [f.name for f in files] == [f"counterexample_{i:03d}.trace"
                                       for i in range(len(patterns))]
    for text, f in zip(patterns, files):
        inst = compose(model, synthesize(parse_pattern(text)))
        assert replay(inst.model, parse_trace(f.read_text()))
