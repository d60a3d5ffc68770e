"""Test-only references that the product code does not call.

Each is an independent reading that a test compares the product against:
Büchi membership of a lasso word, the non-intrusiveness of an observer
composition, the text form of an action list, instrumented replay that
tracks every transition's enabledness, and the character-scanning readers of
`.tts` transition lines and `.pat` lines that the token-level ones replaced.
"""

import re
from fractions import Fraction
from typing import Optional

from ttscheck import classgraph as cg
from ttscheck.expr import Assign, ExprError, Token, _Parser, format_expr, parse_rational
from ttscheck.ltl import BuchiAutomaton, _nested_dfs, formula_atoms, run_letter
from ttscheck.model import (
    DEFAULT_INTERVAL,
    ModelError,
    TimeBound,
    TimeInterval,
    Transition,
    TtsModel,
    enabled,
    step,
)
from ttscheck.observers import InstrumentedModel, _ReplayState
from ttscheck.patterns import (
    AbsentAfterInterval,
    AbsentBeforeDuration,
    AfterScope,
    AndPattern,
    BeforeScope,
    GlobalScope,
    ImpliesPattern,
    LeadstoFirstWithin,
    PatternError,
    PresentAfterWithin,
    PresentFirstBeforeWithin,
    PresentLasting,
)
from ttscheck.traces import _window


def buchi_accepts(ba: BuchiAutomaton, stem: list, cycle: list) -> bool:
    """Membership of an ultimately periodic word in the automaton language."""
    assert cycle
    word = stem + cycle
    n = len(word)
    loop = len(stem)

    def compatible(state_idx: int, a: dict) -> bool:
        req = ba.states[state_idx]
        return all(a.get(atom, False) == v for atom, v in req.items())

    # product of the lasso word with the automaton; nested DFS over it
    def word_next(i: int) -> int:
        return i + 1 if i + 1 < n else loop

    succ: dict = {}

    def product_succ(node):
        if node in succ:
            return succ[node]
        (i, q) = node
        out = []
        if compatible(q, word[i]):
            out = [(word_next(i), r) for r in ba.succ[q]]
        succ[node] = out
        return out

    initial = [(0, q) for q in ba.initial]
    return _nested_dfs(initial, product_succ, lambda node: ba.accepting[node[1]]) is not None


def non_intrusiveness_check(system: TtsModel, inst: InstrumentedModel,
                            max_classes: int = 200_000) -> bool:
    """The composition must not disturb the system underneath.

    Compares the system's class graph with the composed one projected onto
    system components: same reachable (marking, store) set, same
    system-transition steps between projected states, and every observer
    step leaves the system components untouched.
    """
    g_sys = cg.build_graph(system, max_classes)
    g_comp = cg.build_graph(inst.model, max_classes)
    sys_places = set(system.places)
    sys_vars = set(system.vars)
    sys_trans = set(system.transitions)

    def proj(c) -> tuple:
        m = tuple(sorted((p, n) for p, n in c.marking.items()
                         if p in sys_places and n))
        s = tuple(sorted((k, v) for k, v in c.store.items() if k in sys_vars))
        return m, s

    sys_nodes = {proj(c) for c in g_sys.nodes}
    sys_edges = {(proj(g_sys.nodes[a]), t, proj(g_sys.nodes[b]))
                 for (a, t, b) in g_sys.edges}

    comp_nodes = {proj(c) for c in g_comp.nodes}
    comp_edges = set()
    for (a, t, b) in g_comp.edges:
        pa, pb = proj(g_comp.nodes[a]), proj(g_comp.nodes[b])
        if t in sys_trans:
            comp_edges.add((pa, t, pb))
        elif pa != pb:
            return False  # an observer step moved system state
    return sys_nodes == comp_nodes and sys_edges == comp_edges


def format_actions(acts: tuple[Assign, ...]) -> str:
    parts = []
    for a in acts:
        if a.cond is not None:
            parts.append(f"if {format_expr(a.cond)} then {a.target} := {format_expr(a.expr)}")
        else:
            parts.append(f"{a.target} := {format_expr(a.expr)}")
    return "; ".join(parts)


class FullReplayState(_ReplayState):
    """Instrumented replay that re-tests every transition of the composed net
    after every firing, and computes the start state afresh for each run.

    It keeps the product's scheduler (`_next`, `play_until`); only the
    enabledness tracking differs from `_ReplayState`, which follows the
    observer's watchers alone."""

    def __init__(self, inst: InstrumentedModel):
        super().__init__(inst)
        self.obs_names = {n for n, k in inst.provenance.items()
                          if k == "observer" and n in self.model.transitions}
        self.atoms = formula_atoms(inst.formula)
        self.marking = self.model.initial_marking()
        self.store = self.model.initial_store()
        self.enabled = enabled(self.model, self.marking, self.store)
        self.watches = {}
        for name in sorted(self.enabled):
            if name in self.obs_names:
                self.watches[name] = _window(self.model, name, Fraction(0))

    def _fire(self, name: str):
        prev_m, prev_s = self.marking, self.store
        self.marking, self.store, event, self.enabled, fresh = step(
            self.model, self.marking, self.store, name, self.enabled)
        self.letters.append(run_letter(self.atoms, prev_m, prev_s, event))
        for gone in [n for n in self.watches if n not in self.enabled]:
            del self.watches[gone]
        for n in sorted(fresh):
            if n in self.obs_names:
                self.watches[n] = _window(self.model, n, self.now)


# ---------------------------------------------------------------------------
# Character-scanning readers of `.tts` transition lines and `.pat` lines,
# over the ASCII-only tokenizer they used

_ASCII_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+|\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<=|>=|!=|=>|<|>|=|\+|-|!|&|\||\(|\)|\[|\]|\{|\}|,|;)
    """,
    re.VERBOSE,
)


def ascii_tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        m = _ASCII_TOKEN_RE.match(text, i)
        if not m:
            raise ExprError(f"unexpected character {text[i]!r} at column {i + 1}")
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup or "op", m.group(), i))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _parse_whole(text: str, what: str):
    p = _Parser(ascii_tokenize(text))
    out = p.parse_expr() if what == "expr" else p.parse_actions()
    p.expect_end()
    return out


def parse_interval_text(text: str) -> TimeInterval:
    """The text-level interval reader: brackets, then `Fraction` on each side
    of the first comma."""
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


_TRANS_KEYS = ("pre", "in", "consume", "produce", "read", "act")


def parse_trans_scanning(rest: str) -> Transition:
    """A `trans` line after its keyword, read by walking characters: `{`
    fields end at the first `}`, and `in` ends at the second bracket."""
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

    def place_list(key: str) -> tuple:
        raw = fields.get(key, "")
        return tuple(s.strip() for s in raw.replace(",", " ").split())

    return Transition(
        name=name,
        guard=_parse_whole(fields["pre"], "expr") if "pre" in fields else None,
        action=_parse_whole(fields["act"], "actions") if "act" in fields else (),
        timing=parse_interval_text(fields["in"]) if "in" in fields else DEFAULT_INTERVAL,
        pre=place_list("consume"),
        post=place_list("produce"),
        read=frozenset(place_list("read")),
    )


# `between` and `until` name no scope, but they still end a predicate
PATTERN_KEYWORDS = {
    "present", "absent", "first", "after", "before", "within", "lasting",
    "for", "interval", "duration", "leadsto", "and", "between", "until",
}


class _SpanPatternParser(_Parser):
    """Predicates end where a keyword, `=>` or an unmatched `)` appears
    outside parentheses; each span is then parsed on its own."""

    def take_keyword(self, *words: str) -> None:
        for w in words:
            tok = self.next()
            if tok.text != w:
                raise PatternError(
                    f"expected {w!r} but found {tok.text!r} at column {tok.pos + 1}")

    def at_keyword(self, *words: str) -> bool:
        return self.peek().kind == "name" and self.peek().text in words

    def parse_predicate(self):
        start = self.i
        depth = 0
        j = self.i
        while True:
            tok = self.tokens[j]
            if tok.kind == "end":
                break
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and ((tok.kind == "name" and tok.text in PATTERN_KEYWORDS)
                                 or tok.text == "=>"):
                break
            j += 1
        if j == start:
            raise PatternError(f"expected a predicate at column {self.peek().pos + 1}")
        sub = _Parser(self.tokens[start:j] + [Token("end", "", self.tokens[j].pos)])
        try:
            pred = sub.parse_expr()
        except ExprError as exc:
            raise PatternError(str(exc)) from exc
        if not sub.at_end():
            tok = sub.peek()
            raise PatternError(f"unexpected {tok.text!r} in predicate at column {tok.pos + 1}")
        self.i = j
        return pred

    def parse_interval_tok(self) -> TimeInterval:
        """Glue the tokens up to the closing bracket back into text."""
        tok = self.peek()
        if tok.text not in ("[", "]"):
            raise PatternError(f"expected an interval at column {tok.pos + 1}")
        text = ""
        while True:
            tok = self.next()
            if tok.kind == "end":
                raise PatternError("unterminated interval")
            text += tok.text
            if tok.text in ("[", "]") and len(text) > 1:
                break
        try:
            return parse_interval_text(text)
        except ModelError as exc:
            raise PatternError(str(exc)) from exc

    def parse_rational_tok(self) -> Fraction:
        tok = self.next()
        if tok.kind != "num":
            raise PatternError(f"expected a number at column {tok.pos + 1}")
        try:
            return parse_rational(tok.text)
        except ExprError as exc:
            raise PatternError(f"{exc} at column {tok.pos + 1}") from exc

    def parse_pattern(self):
        left = self.parse_and_pattern()
        if self.peek().text == "=>":
            self.next()
            return ImpliesPattern(left, self.parse_pattern())
        return left

    def parse_and_pattern(self):
        left = self.parse_atom_pattern()
        while self.at_keyword("and"):
            self.next()
            left = AndPattern(left, self.parse_atom_pattern())
        return left

    def parse_atom_pattern(self):
        if self.peek().text == "(":
            save = self.i
            self.next()
            try:
                inner = self.parse_pattern()
                self.expect(")")
                return inner
            except (PatternError, ExprError):
                self.i = save
        if self.at_keyword("present"):
            return self.parse_present()
        if self.at_keyword("absent"):
            return self.parse_absent()
        return self.parse_leadsto()

    def parse_present(self):
        self.take_keyword("present")
        if self.at_keyword("first"):
            self.next()
            a = self.parse_predicate()
            self.take_keyword("before")
            b = self.parse_predicate()
            self.take_keyword("within")
            return PresentFirstBeforeWithin(a, b, self.parse_interval_tok())
        a = self.parse_predicate()
        if self.at_keyword("lasting"):
            self.next()
            return PresentLasting(a, self.parse_rational_tok())
        self.take_keyword("after")
        b = self.parse_predicate()
        self.take_keyword("within")
        return PresentAfterWithin(a, b, self.parse_interval_tok())

    def parse_absent(self):
        self.take_keyword("absent")
        a = self.parse_predicate()
        kw = self.next()
        if kw.text == "after":
            b = self.parse_predicate()
            self.take_keyword("for", "interval")
            return AbsentAfterInterval(a, b, self.parse_interval_tok())
        if kw.text == "before":
            b = self.parse_predicate()
            self.take_keyword("for", "duration")
            return AbsentBeforeDuration(a, b, self.parse_rational_tok())
        raise PatternError(f"expected 'after' or 'before' at column {kw.pos + 1}")

    def parse_leadsto(self):
        a = self.parse_predicate()
        self.take_keyword("leadsto", "first")
        b = self.parse_predicate()
        self.take_keyword("within")
        interval = self.parse_interval_tok()
        scope = GlobalScope()
        if self.at_keyword("before"):
            self.next()
            scope = BeforeScope(self.parse_predicate())
        elif self.at_keyword("after"):
            self.next()
            scope = AfterScope(self.parse_predicate())
        return LeadstoFirstWithin(a, b, interval, scope)


def parse_pattern_scanning(text: str):
    try:
        p = _SpanPatternParser(ascii_tokenize(text))
    except ExprError as exc:
        raise PatternError(str(exc)) from exc
    out = p.parse_pattern()
    if not p.at_end():
        tok = p.peek()
        raise PatternError(f"trailing input {tok.text!r} at column {tok.pos + 1}")
    return out
