"""The class graph against an exhaustive integer-time oracle.

For closed bounds, runs that fire only at integer times, after rescaling by
`TtsModel.time_scale`, realise every untimed firing sequence of a time Petri
net (Popova-Zeugmann, "On time Petri nets", EIK 1991; Henzinger, Manna and
Pnueli, "What good are digital clocks?", ICALP 1992).  So
`reference.integer_language` gives the exact untimed language to any depth,
and every path of the class graph must be a real run.  With priorities, a
firing may oblige a preempted transition to fire strictly later, and a chain
of such obligations between two whole ticks needs a finer grid: (number of
transitions + 1) times the model's scale.

A net whose class graph outgrows 2,000 classes, or whose integer-time search
keeps more than 3,000 states at one depth, is dropped.
"""

import re

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ttscheck import classgraph as cg
from ttscheck.model import parse_tts

from conftest import guarded_nets, nets
from reference import IntegerStatesExceeded, integer_language

DEPTH = 5


def closed(text: str) -> str:
    """`text` with every bound of its firing intervals made closed."""
    text = re.sub(r" in \]", " in [", text)
    return re.sub(r",([0-9/]+)\[", r",\1]", text)


def graph_language(model, depth: int) -> set:
    """The label sequences of the class graph's paths from its initial
    class, of at most `depth` edges."""
    try:
        g = cg.build_graph(model, 2_000)
    except cg.ClassBudgetExceeded:
        reject()
    language = {()}
    layer = {((), g.initial)}
    for _ in range(depth):
        layer = {(seq + (t,), b) for seq, a in layer for t, b in g.succ.get(a, ())}
        language.update(seq for seq, _ in layer)
    return language


def oracle(model, depth: int, grid: int) -> set:
    try:
        return integer_language(model, depth, grid, max_states=3_000)
    except IntegerStatesExceeded:
        reject()


closed_nets = st.one_of(nets(), guarded_nets()).map(closed)


@settings(max_examples=60, deadline=None)
@given(closed_nets.map(lambda text: re.sub(r"\nprio .*", "", text)))
def test_without_priorities_integer_runs_give_the_class_graph_language(text):
    model = parse_tts(text)
    assert not model.priority
    assert oracle(model, DEPTH, model.time_scale) == graph_language(model, DEPTH)


@settings(max_examples=30, deadline=None)
@given(closed_nets)
# t1 may fire at 3 only if t0, whose window ends at 3, can fire later
@example("places P0=1/3 P1=1/3\ntrans t0 in [1,3] consume {P0} produce {P1}\n"
         "trans t1 in [3,5] consume {P0} produce {P0}\nprio t0 > t1")
def test_with_priorities_integer_runs_give_the_class_graph_language_on_a_finer_grid(text):
    # on the model's own grid a run may miss a sequence, never add one; on
    # the grid fine enough for every chain of priority obligations the
    # languages are equal (one depth less: that grid makes many more states)
    model = parse_tts(text)
    graph = graph_language(model, DEPTH)
    assert oracle(model, DEPTH, model.time_scale) <= graph
    fine = (len(model.transitions) + 1) * model.time_scale
    assert oracle(model, DEPTH - 1, fine) == {seq for seq in graph if len(seq) < DEPTH}


def test_the_model_grid_misses_a_sequence_that_a_chain_of_priorities_allows():
    # in t1, t2, t1, t0, t2 fires at 1 and preempts t1, so the second t1
    # fires strictly after 1 and strictly before 2, where t0, which has
    # priority over t1, must fire: no whole tick lies in between
    model = parse_tts("places P0=1/3 P1=1/3 P2=1/3\n"
                      "trans t0 in [0,2] consume {P0} produce {P1} read {P1}\n"
                      "trans t1 in [0,2] consume {P2} produce {P2} read {P2}\n"
                      "trans t2 in [1,1] consume {P1} produce {P1} read {P0}\n"
                      "prio t0 > t1\nprio t1 > t2\nprio t0 > t2")
    graph = graph_language(model, 4)
    coarse = integer_language(model, 4, model.time_scale)
    assert coarse < graph and ("t1", "t2", "t1", "t0") in graph - coarse
    assert integer_language(model, 4, 4 * model.time_scale) == graph
