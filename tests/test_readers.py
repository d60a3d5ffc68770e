"""The token-level readers of `.tts` transition lines and `.pat` lines against
the character-scanning readers they replaced (`tests/reference.py`).

Where both accept a line, they give equal results; where they disagree on
whether to accept it, the disagreement is one of these, each asserted by name:

(a) a pattern keyword names a variable inside a predicate, such as `first`
    in `present x & first after B within [0,1]`: now parsed;
(b) a non-ASCII name in a guard, an action or a predicate: now a name, as it
    always was as a transition or place name;
(c) a `.pat` interval whose tokens the old reader glued back into valid
    interval text, such as `[0 1, 2]` read as `[01,2]`: now refused, as in
    `.tts`;
(d) a `.tts` interval bound that only `fractions.Fraction` read, such as
    `1e1`, `+1` or `.5`: now refused; intervals take `n`, `n/d` or `n.m`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ttscheck.expr import ExprError, Name, free_names, tokenize
from ttscheck.model import ModelError, _parse_trans, parse_tts
from ttscheck.patterns import (
    AndPattern,
    GlobalScope,
    ImpliesPattern,
    LeadstoFirstWithin,
    PatternError,
    PresentLasting,
    parse_pattern,
    parse_pattern_file,
)

NAMES = ["a", "b", "P", "Q", "x", "é", "Ü", "true"]
NUMBERS = ["0", "1", "2", "3", "1/2", "5/2", "0.5"]
KEYWORDS = sorted(reference.PATTERN_KEYWORDS)
PUNCTUATION = set("{}[](),;")
VOCABULARY = (NAMES + NUMBERS + KEYWORDS
              + ["pre", "in", "consume", "produce", "read", "act", "oo", "if", "then"]
              + ["{", "}", "[", "]", "(", ")", ",", ";", ":=", "=>", "=", "<", "<=",
                 "!=", "!", "&", "|", "+", "-"])


# ---------------------------------------------------------------------------
# Generated lines, as token lists

@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return [draw(st.sampled_from(NAMES[:-1]))]
    shape = draw(st.sampled_from(["not", "and", "or", "cmp", "paren"]))
    left = draw(predicates(depth - 1))
    if shape == "not":
        return ["!"] + left
    if shape == "paren":
        return ["("] + left + [")"]
    if shape == "cmp":
        return left + [draw(st.sampled_from(["=", "!=", "<", "<="]))] \
            + [draw(st.sampled_from(NAMES[:-1] + ["1", "2", "first", "until"]))]
    return left + ["&" if shape == "and" else "|"] + draw(predicates(depth - 1))


@st.composite
def intervals(draw):
    lo = draw(st.sampled_from(NUMBERS))
    hi = draw(st.sampled_from(NUMBERS + ["oo"]))
    return [draw(st.sampled_from("[]")), lo, ",", hi, draw(st.sampled_from("[]"))]


@st.composite
def transition_lines(draw):
    fields = draw(st.permutations(["pre", "in", "consume", "produce", "read", "act"]))
    fields = fields[:draw(st.integers(0, 6))]
    toks = [draw(st.sampled_from(["T", "t0", "é", "Fire_1", "pre"]))]
    for f in fields:
        toks.append(f)
        if f == "in":
            toks += draw(intervals())
            continue
        toks.append("{")
        if f == "pre":
            toks += draw(predicates())
        elif f == "act":
            for k in range(draw(st.integers(0, 2))):
                if k:
                    toks.append(";")
                if draw(st.booleans()):
                    toks += ["if"] + draw(predicates(1)) + ["then"]
                toks += [draw(st.sampled_from(["x", "y", "ü"])), ":=",
                         draw(st.sampled_from(["1", "x", "x + 1", "true"]))]
            if draw(st.booleans()):
                toks.append(";")
        else:
            for k in range(draw(st.integers(0, 3))):
                if k and draw(st.booleans()):
                    toks.append(",")
                toks.append(draw(st.sampled_from(["P", "Q", "Ü", "in"])))
        toks.append("}")
    return toks


@st.composite
def catalog_patterns(draw):
    p = lambda: draw(predicates())  # noqa: E731
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return ["present"] + p() + ["after"] + p() + ["within"] + draw(intervals())
    if shape == 1:
        return (["present", "first"] + p() + ["before"] + p() + ["within"]
                + draw(intervals()))
    if shape == 2:
        return ["present"] + p() + ["lasting", draw(st.sampled_from(NUMBERS))]
    if shape == 3:
        return ["absent"] + p() + ["after"] + p() + ["for", "interval"] + draw(intervals())
    if shape == 4:
        return (["absent"] + p() + ["before"] + p() + ["for", "duration",
                                                       draw(st.sampled_from(NUMBERS))])
    scope = draw(st.sampled_from([[], ["before"], ["after"]]))
    return (p() + ["leadsto", "first"] + p() + ["within"] + draw(intervals())
            + (scope + p() if scope else []))


@st.composite
def pattern_lines(draw, depth=1):
    if depth == 0 or draw(st.booleans()):
        return draw(catalog_patterns())
    left, right = draw(pattern_lines(depth - 1)), draw(pattern_lines(depth - 1))
    if draw(st.booleans()):
        left, right = ["("] + left + [")"], ["("] + right + [")"]
    return left + [draw(st.sampled_from(["and", "=>"]))] + right


@st.composite
def mutated(draw, lines):
    """A generated line with, most of the time, one random token inserted or
    dropped, rendered with optional spaces next to punctuation."""
    toks = list(draw(lines))
    edit = draw(st.sampled_from(["none", "insert", "drop"]))
    if edit == "insert":
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(VOCABULARY)))
    elif edit == "drop" and toks:
        del toks[draw(st.integers(0, len(toks) - 1))]
    out = toks[:1]
    for prev, tok in zip(toks, toks[1:]):
        glue = prev in PUNCTUATION or tok in PUNCTUATION
        out.append((draw(st.sampled_from(["", " "])) if glue else " ") + tok)
    return "".join(out)


def outcome(read, text):
    try:
        return read(text), None
    except (ModelError, ExprError, PatternError) as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# The differences, by name

def refused_non_ascii_name(err):
    """(b): the ASCII tokenizer stopped at a letter that names may hold."""
    return (err is not None and err.startswith("unexpected character")
            and ("_" + err.split("'")[1]).isidentifier())


def names_a_keyword(p):
    """(a): a predicate of the pattern names a pattern keyword."""
    if isinstance(p, (AndPattern, ImpliesPattern)):
        return names_a_keyword(p.left) or names_a_keyword(p.right)
    preds = [p.a] + ([] if isinstance(p, PresentLasting) else [p.b])
    if isinstance(p, LeadstoFirstWithin) and not isinstance(p.scope, GlobalScope):
        preds.append(p.scope.r)
    return any(n in reference.PATTERN_KEYWORDS for e in preds for n in free_names(e))


def glued_interval(text):
    """(c): an interval whose tokens are not bracket, number, `,`, number or
    `oo`, bracket, but whose glued text the old reader took."""
    toks = tokenize(text)
    for i, tok in enumerate(toks):
        if tok.text not in ("[", "]"):
            continue
        j = next((k for k in range(i + 1, len(toks)) if toks[k].text in ("[", "]")), None)
        if j is None:
            continue
        span = toks[i:j + 1]
        shaped = (len(span) == 5 and span[1].kind == "num" and span[2].text == ","
                  and (span[3].kind == "num" or span[3].text == "oo"))
        try:
            reference.parse_interval_text("".join(t.text for t in span))
        except ModelError:
            continue
        if not shaped:
            return True
    return False


def scanning_trans(rest):
    """The old reader, refusing a place name that is no identifier: no
    `places` line can declare it, so no model with it ever loaded."""
    t = reference.parse_trans_scanning(rest)
    for p in t.pre + t.post + tuple(t.read):
        if not p.isidentifier():
            raise ModelError(f"undeclarable place {p!r}")
    return t


def trans(rest):
    """The new reader, given what follows `trans` as the old one is."""
    return _parse_trans("trans " + rest)


@settings(max_examples=400, deadline=None)
@given(mutated(transition_lines()))
def test_transition_reader_agrees_with_the_scanner(line):
    new, new_err = outcome(trans, line)
    old, old_err = outcome(scanning_trans, line)
    if new_err is None and old_err is None:
        assert new == old, line
    elif new_err is None:
        assert refused_non_ascii_name(old_err), (line, old_err)  # (b)
    else:
        assert old_err is not None, (line, new_err)


@settings(max_examples=400, deadline=None)
@given(mutated(pattern_lines()))
def test_pattern_reader_agrees_with_the_span_scanner(line):
    new, new_err = outcome(parse_pattern, line)
    old, old_err = outcome(reference.parse_pattern_scanning, line)
    if new_err is None and old_err is None:
        assert new == old, line
    elif new_err is None:
        assert names_a_keyword(new) or refused_non_ascii_name(old_err), (line, old_err)  # (a), (b)
    elif old_err is None:
        assert glued_interval(line), (line, new_err)  # (c)


def test_difference_a_keywords_name_variables_in_predicates():
    line = "present x & first after B within [0,1]"
    with pytest.raises(PatternError):
        reference.parse_pattern_scanning(line)
    p = parse_pattern(line)
    assert free_names(p.a) == {"x", "first"} and p.b == Name("B")
    assert names_a_keyword(parse_pattern("present after after B within [0,1]"))


def test_difference_b_non_ascii_names():
    line = "é pre {ü & !Ü} consume {Ü} act {ü := false}"
    with pytest.raises(ExprError, match="unexpected character"):
        reference.parse_trans_scanning(line)
    assert reference.parse_trans_scanning("é consume {Ü}") == trans("é consume {Ü}")
    t = trans(line)
    assert free_names(t.guard) == {"ü", "Ü"} and t.action[0].target == "ü"
    model = parse_tts("places Ü=1\nvars ü=true\ntrans " + line)
    assert model.transitions["é"] == t
    assert parse_pattern("é leadsto first Ü within [0,1]").b == Name("Ü")


def test_difference_c_pat_interval_tokens_are_not_glued():
    line = "present A after B within [0 1, 2]"
    assert str(reference.parse_pattern_scanning(line).interval) == "[1,2]"
    with pytest.raises(PatternError, match="expected an interval"):
        parse_pattern(line)
    assert glued_interval(line)
    with pytest.raises(ModelError):
        reference.parse_trans_scanning("T in [0 1, 2]")  # as `.tts` always did
    with pytest.raises(ExprError):
        trans("T in [0 1, 2]")


@pytest.mark.parametrize("bound", ["1e1", "+1", ".5", "1.", "-0"])
def test_difference_d_tts_intervals_take_plain_rationals(bound):
    reference.parse_trans_scanning(f"T in [{bound},20]")
    with pytest.raises(ModelError):
        parse_tts(f"trans T in [{bound},20]")


def test_fields_in_any_order_at_most_once():
    a = trans("T in ]1,2] act {x := 1;} read {R} consume {P Q, P} pre {x}")
    b = trans("T pre{x}consume{P,Q P}read{R}act{x:=1}in]1,2]")
    assert a == b and a.pre == ("P", "Q", "P") and str(a.timing) == "]1,2]"
    assert trans("T act {}").action == ()
    with pytest.raises(ModelError, match="duplicate field 'consume'"):
        trans("T consume {P} consume {P}")


@pytest.mark.parametrize("line", [
    "trans T in [1,2 consume {P}",
    "trans T pre {x consume {P}",
    "trans T consume {P} consume {P}",
    "trans T consume {P",
    "trans T in [1,oo]",
    "trans T in [1/0,2]",
    "trans 5 consume {P}",
    "trans",
])
def test_malformed_transition_lines_are_model_errors(line):
    with pytest.raises(ModelError, match="^line 2: "):
        parse_tts("places P=1\n" + line)


def test_errors_count_columns_from_the_line_start():
    with pytest.raises(ModelError, match="found 'consume' at column 17$"):
        parse_tts("places P=1\n trans T pre {x consume {P} # guard left open")
    with pytest.raises(PatternError, match="^line 2: .* found '\\[' at column 28$"):
        parse_pattern_file("# A\n    present P after within [0,1]\n")
