import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    add_variable,
    bounds_of,
    constrain_many,
    dump,
    from_constraints,
    parse_interval,
    satisfies,
    trivial,
)
from ttscheck.model import closed_interval
from ttscheck.zone import LE_ZERO, Dbm, bound_add, bound_le, canonicalize


def _zone(names, cons):
    d = from_constraints(tuple(names), cons)
    assert d is not None
    return d


def test_point_interval_canonical_nonempty():
    # th1 = 4 exactly
    d = _zone(("t1",), {(1, 0): (Fraction(4), False), (0, 1): (Fraction(-4), False)})
    assert bounds_of(d, "t1") == ((Fraction(-4), False), (Fraction(4), False))


def test_strict_contradiction_empty():
    # th1 < 2 and th1 >= 2
    d = from_constraints(("t1",), {(1, 0): (Fraction(2), True),
                                   (0, 1): (Fraction(-2), False)})
    assert d is None


def test_shortest_path_derives_entry():
    # th1 <= 3, th2 - th1 <= 1 ==> th2 <= 4
    d = _zone(("t1", "t2"), {(1, 0): (Fraction(3), False),
                             (2, 1): (Fraction(1), False)})
    assert d.m[2][0] == (Fraction(4), False)


def test_canonicalize_idempotent():
    d = _zone(("t1", "t2"), {(1, 0): (Fraction(3), False),
                             (2, 1): (Fraction(1), True)})
    assert canonicalize(d).m == d.m


def test_constrain_with_unbounded_is_identity():
    d = _zone(("t1",), {(1, 0): (Fraction(4), False)})
    assert constrain_many(d, [(1, 0, None)]) is d


def test_constrain_below_zero_empties():
    d = _zone(("t1",), {(1, 0): (Fraction(4), False), (0, 1): LE_ZERO})
    assert constrain_many(d, [(1, 0, (Fraction(0), True))]) is None


def test_constrain_propagates_through_difference():
    # th1 in [0,4], th2 in [0,2], then th1 <= th2 gives th1 in [0,2]
    d = _zone(("t1", "t2"), {(1, 0): (Fraction(4), False), (0, 1): LE_ZERO,
                             (2, 0): (Fraction(2), False), (0, 2): LE_ZERO,
                             (1, 2): (Fraction(0), False)})
    assert d.m[1][0] == (Fraction(2), False)


def test_add_variable_punctual():
    d = add_variable(trivial(), "v", closed_interval(Fraction(6), Fraction(6)))
    assert bounds_of(d, "v") == ((Fraction(-6), False), (Fraction(6), False))


def test_add_variable_unbounded():
    d = add_variable(trivial(), "v", parse_interval("[0,oo["))
    lo, up = bounds_of(d, "v")
    assert up is None and lo == (Fraction(0), False)


def test_add_variable_strict_lower():
    d = add_variable(trivial(), "v", parse_interval("]0,4]"))
    lo, up = bounds_of(d, "v")
    assert lo == (Fraction(0), True) and up == (Fraction(4), False)


def test_equals_distinguishes_strictness():
    d1 = _zone(("t1",), {(1, 0): (Fraction(2), False)})
    d2 = _zone(("t1",), {(1, 0): (Fraction(2), True)})
    assert d1.m != d2.m


def test_equals_identifies_redundant_presentations():
    base = {(1, 0): (Fraction(3), False), (2, 0): (Fraction(5), False),
            (2, 1): (Fraction(2), False)}
    redundant = dict(base)
    redundant[(2, 0)] = (Fraction(7), False)  # implied tighter by the others
    d1 = _zone(("t1", "t2"), base)
    d2 = _zone(("t1", "t2"), redundant)
    assert d1.m == d2.m
    assert canonicalize(d2).m == d1.m


def test_dump_format():
    d = _zone(("t1",), {(1, 0): (Fraction(4), True)})
    text = dump(d)
    assert "<4" in text and "inf" in text and "<=0" in text


# ---------------------------------------------------------------------------
# properties

def test_bound_add_associative_and_monotone():
    rng = random.Random(5)

    def rnd():
        if rng.random() < 0.15:
            return None
        return (Fraction(rng.randint(-8, 8), rng.randint(1, 4)), rng.random() < 0.5)

    for _ in range(300):
        a, b, c = rnd(), rnd(), rnd()
        assert bound_add(bound_add(a, b), c) == bound_add(a, bound_add(b, c))
        if bound_le(a, b):
            assert bound_le(bound_add(a, c), bound_add(b, c))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_sampling_soundness_random_zones(seed):
    """A rational point satisfies the raw constraints iff it satisfies the
    canonical form: closure neither loses nor invents solutions."""
    rng = random.Random(seed)
    names = ("a", "b", "c")
    cons = {}
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(4), 2)
        cons[(i, j)] = (Fraction(rng.randint(-6, 10), rng.randint(1, 3)),
                        rng.random() < 0.4)
    raw_rows = [[None if i != j else LE_ZERO for j in range(4)] for i in range(4)]
    for (i, j), bb in cons.items():
        raw_rows[i][j] = bb
    raw = Dbm(names, tuple(tuple(r) for r in raw_rows))
    canon = canonicalize(raw)
    for _ in range(20):
        point = {n: Fraction(rng.randint(0, 24), 2) for n in names}
        in_raw = satisfies(raw, point)
        in_canon = canon is not None and satisfies(canon, point)
        assert in_raw == in_canon
