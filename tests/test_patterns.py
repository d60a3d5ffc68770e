import random

import pytest

from ttscheck.expr import Chain, Name
from ttscheck.patterns import (
    AbsentBeforeDuration,
    AndPattern,
    BeforeScope,
    ImpliesPattern,
    LeadstoFirstWithin,
    MAlways,
    MAnd,
    MAtom,
    MImplies,
    MNot,
    MTrue,
    MUntil,
    MWeakUntil,
    PatternError,
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
    format_pattern,
    parse_pattern,
    parse_pattern_file,
    to_mtl,
    validate_pattern,
)


# ---------------------------------------------------------------------------
# parsing

def test_parse_present_after_within():
    p = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")
    assert isinstance(p, PresentAfterWithin)
    assert p.a == Name("Ventil")
    assert p.b == Chain("|", (Name("Open1"), Name("Open2")))
    assert str(p.interval) == "[0,10]"


def test_parse_absent_before_duration():
    p = parse_pattern("absent Open1 before Close1 for duration 3")
    assert isinstance(p, AbsentBeforeDuration)
    assert p.d == 3


def test_parse_scoped_leadsto():
    p = parse_pattern("Button2 leadsto first Open2 within [0,10] before Shutdown")
    assert isinstance(p, LeadstoFirstWithin)
    assert isinstance(p.scope, BeforeScope)
    assert p.scope.r == Name("Shutdown")


def test_parse_composites_precedence():
    p = parse_pattern("present a after b within [0,1] and present c after d within [0,1]"
                      " => absent a after b for interval [0,2]")
    assert isinstance(p, ImpliesPattern)
    assert isinstance(p.left, AndPattern)


def test_parse_lasting():
    p = parse_pattern("present Refresh lasting 6")
    assert isinstance(p, PresentLasting) and p.d == 6


def test_parse_first_before():
    p = parse_pattern("present first (Open1 | Open2) before Ventil within [0,10]")
    assert isinstance(p, PresentFirstBeforeWithin)


def test_parse_errors_carry_position():
    with pytest.raises(PatternError):
        parse_pattern("present Ventil after within [0,10]")
    with pytest.raises(PatternError):
        parse_pattern("absent A under B for duration 2")
    with pytest.raises(PatternError):
        parse_pattern("present A after B within [4,2]")


def test_pattern_file_parsing():
    pats = parse_pattern_file("# comment\npresent a after b within [0,1]\n\n"
                              "a leadsto first b within [0,2]\n")
    assert len(pats) == 2


# ---------------------------------------------------------------------------
# validation

def test_validate_lasting_accepts_place(airlock):
    p = parse_pattern("present Refresh lasting 6")
    assert validate_pattern(p, airlock) == []


def test_validate_lasting_rejects_transition(airlock):
    p = parse_pattern("present Ventil lasting 6")
    diags = validate_pattern(p, airlock)
    assert any("state predicate" in d.message for d in diags)


def test_validate_unknown_identifier(airlock):
    p = parse_pattern("present Nothing after Open1 within [0,1]")
    diags = validate_pattern(p, airlock)
    assert any("Nothing" in d.message for d in diags)


@pytest.mark.parametrize("text", [
    "Button1 leadsto first Open1 within [0,2] between Open2 and Close2",
    "Button1 leadsto first Open1 within [0,2] after Open2 until Close2",
], ids=["between", "after-until"])
def test_unsupported_scopes_rejected_by_parser(text):
    with pytest.raises(PatternError, match="trailing input"):
        parse_pattern(text)


# ---------------------------------------------------------------------------
# MTL translation

def test_mtl_present_after_within():
    p = parse_pattern("present a after b within [1,4]")
    f = to_mtl(p)
    assert isinstance(f, MWeakUntil)
    assert f.left == MNot(MAtom(Name("b")))
    assert isinstance(f.right, MAnd)
    until = f.right.right
    assert isinstance(until, MUntil) and isinstance(until.left, MTrue)
    assert str(until.interval) == "[1,4]"


def test_mtl_lasting_shape():
    p = parse_pattern("present x lasting 5")
    f = to_mtl(p)
    assert isinstance(f, MUntil)
    assert isinstance(f.right, MAlways)
    assert f.right.f == MAtom(Name("x"), state=True)
    assert str(f.right.interval) == "[0,5]"


def test_mtl_absent_after_shape():
    p = parse_pattern("absent a after b for interval [2,6]")
    f = to_mtl(p)
    assert isinstance(f, MWeakUntil)
    body = f.right
    assert isinstance(body, MAnd) and isinstance(body.right, MAlways)
    assert body.right.f == MNot(MAtom(Name("a")))


def test_mtl_composites_map_to_connectives():
    p = parse_pattern("(present a after b within [0,1]) and (present b after a within [0,1])")
    assert isinstance(to_mtl(p), MAnd)
    q = parse_pattern("(present a after b within [0,1]) => (present b after a within [0,1])")
    assert isinstance(to_mtl(q), MImplies)


# ---------------------------------------------------------------------------
# round-trip property

def _random_pattern(rng: random.Random, depth: int = 0):
    preds = ["a", "b", "c", "(a | b)", "(a & !c)"]
    ivs = ["[0,4]", "]0,4]", "[1,4[", "[2,2]", "[1,oo["]
    kind = rng.randrange(8 if depth >= 2 else 10)
    A, B, R = (rng.choice(preds) for _ in range(3))
    iv = rng.choice(ivs)
    if kind == 0:
        return f"present {A} after {B} within {iv}"
    if kind == 1:
        return f"present first {A} before {B} within {iv}"
    if kind == 2:
        return f"present {A} lasting {rng.randint(0, 9)}"
    if kind == 3:
        return f"absent {A} after {B} for interval {iv}"
    if kind == 4:
        return f"absent {A} before {B} for duration {rng.randint(0, 9)}"
    if kind in (5, 6):
        scope = rng.choice(["", f" before {R}", f" after {R}"])
        return f"{A} leadsto first {B} within {iv}{scope}"
    if kind == 7:
        return f"present {A} after {B} within {iv}"
    op = "and" if kind == 8 else "=>"
    return (f"({_random_pattern(rng, depth + 1)}) {op} "
            f"({_random_pattern(rng, depth + 1)})")


def test_parse_format_round_trip_random():
    rng = random.Random(31)
    for _ in range(300):
        text = _random_pattern(rng)
        p1 = parse_pattern(text)
        p2 = parse_pattern(format_pattern(p1))
        assert p1 == p2, text
