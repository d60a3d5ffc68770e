"""LTL checking over the class graph, with counterexample extraction.

Atoms are either event predicates (read off an edge together with its target
state) or state predicates (read off the edge's source class).  Maximal
finite paths are extended by stuttering a deadlock self-loop, so every path
induces an infinite word.  `run_letter` is the one atom reader: it reads a
graph step or a step of a concrete run with `eval_expr` into a tuple in
`formula_atoms` order, the order of the automaton's required letters, so
instrumented replay reads its runs as this checker does, and
`run_lasso_program` evaluates a formula on a replayed run.  Formulas of
shape `always <propositional>` are checked by plain reachability;
everything else goes through a tableau translation of the negation to a
Buchi automaton, a product with the graph and a nested depth-first search
for an accepting lasso.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Callable, Optional, Union

from .classgraph import ClassGraph
from .expr import Expr, eval_expr, format_expr
from .model import Event, TtsModel, enabled, fire, step
from .records import record
from .traces import TimedTrace


# ---------------------------------------------------------------------------
# Formula AST

@record
class TT:
    def __str__(self):
        return "true"


@record
class FF:
    def __str__(self):
        return "false"


def _cached_hash(node) -> int:
    """The record hash of a formula node, `hash` of its field tuple, computed
    once and kept on the node, outside its fields.  The generated record
    `__hash__` hashes the whole tree below the node on every call, and the
    tableau's raw states, the closure set and the safety scan's `truth`
    lookups are dicts and sets keyed by formulas and atoms."""
    try:
        return node._hash
    except AttributeError:
        h = hash(tuple(getattr(node, name) for name in node.__annotations__))
        object.__setattr__(node, "_hash", h)
        return h


@record
class EventAtom:
    pred: Expr

    __hash__ = _cached_hash

    def __str__(self):
        return f"ev({format_expr(self.pred)})"


@record
class StateAtom:
    expr: Expr

    __hash__ = _cached_hash

    def __str__(self):
        return f"st({format_expr(self.expr)})"


@record
class LNot:
    f: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"!({self.f})"


@record
class LAnd:
    left: "LtlFormula"
    right: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"({self.left} & {self.right})"


@record
class LOr:
    left: "LtlFormula"
    right: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"({self.left} | {self.right})"


@record
class LImplies:
    left: "LtlFormula"
    right: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"({self.left} => {self.right})"


@record
class LUntil:
    left: "LtlFormula"
    right: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"({self.left} U {self.right})"


@record
class LRelease:
    left: "LtlFormula"
    right: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"({self.left} R {self.right})"


@record
class LAlways:
    f: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"[]({self.f})"


@record
class LEventually:
    f: "LtlFormula"

    __hash__ = _cached_hash

    def __str__(self):
        return f"<>({self.f})"


LtlFormula = Union[TT, FF, EventAtom, StateAtom, LNot, LAnd, LOr, LImplies,
                   LUntil, LRelease, LAlways, LEventually]


def nnf(f: LtlFormula, neg: bool = False) -> LtlFormula:
    """Negation normal form over the core TT/FF/atom/and/or/U/R."""
    if isinstance(f, TT):
        return FF() if neg else TT()
    if isinstance(f, FF):
        return TT() if neg else FF()
    if isinstance(f, (EventAtom, StateAtom)):
        return LNot(f) if neg else f
    if isinstance(f, LNot):
        return nnf(f.f, not neg)
    if isinstance(f, LAnd):
        cls = LOr if neg else LAnd
        return cls(nnf(f.left, neg), nnf(f.right, neg))
    if isinstance(f, LOr):
        cls = LAnd if neg else LOr
        return cls(nnf(f.left, neg), nnf(f.right, neg))
    if isinstance(f, LImplies):
        return nnf(LOr(LNot(f.left), f.right), neg)
    if isinstance(f, LAlways):
        return nnf(LRelease(FF(), f.f), neg)
    if isinstance(f, LEventually):
        return nnf(LUntil(TT(), f.f), neg)
    if isinstance(f, LUntil):
        cls = LRelease if neg else LUntil
        return cls(nnf(f.left, neg), nnf(f.right, neg))
    if isinstance(f, LRelease):
        cls = LUntil if neg else LRelease
        return cls(nnf(f.left, neg), nnf(f.right, neg))
    raise AssertionError(f"unhandled formula {f!r}")


def children(f: LtlFormula) -> tuple:
    """Immediate subformulas of f, in field order; atoms have none."""
    if isinstance(f, (LNot, LAlways, LEventually)):
        return (f.f,)
    if isinstance(f, (LAnd, LOr, LImplies, LUntil, LRelease)):
        return (f.left, f.right)
    return ()


def subformulas(f: LtlFormula):
    """f and every formula below it, in preorder, without recursion."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def formula_atoms(f: LtlFormula) -> tuple:
    """f's atoms sorted by `str`: the one atom order, in which the tableau's
    required letters, the checker's letters and replay's letters list them."""
    return tuple(sorted({g for g in subformulas(f) if isinstance(g, (EventAtom, StateAtom))},
                        key=str))


def truth(f: LtlFormula, chosen: dict) -> bool:
    """Propositional value of f: the boolean connectives are read through,
    anything else (an atom, or a temporal formula the tableau decides
    directly) is looked up in `chosen`."""
    if isinstance(f, TT):
        return True
    if isinstance(f, FF):
        return False
    if isinstance(f, LNot):
        return not truth(f.f, chosen)
    if isinstance(f, LAnd):
        return truth(f.left, chosen) and truth(f.right, chosen)
    if isinstance(f, LOr):
        return truth(f.left, chosen) or truth(f.right, chosen)
    if isinstance(f, LImplies):
        return (not truth(f.left, chosen)) or truth(f.right, chosen)
    return chosen[f]


# ---------------------------------------------------------------------------
# Letters: atom assignments read off a graph step or a step of a run

STUTTER = None  # edge label of the virtual deadlock self-loop


def run_letter(atoms, marking, store, transition: Optional[str],
               post_marking, post_store) -> tuple:
    """Atom assignment of one step of a run, as a tuple in `atoms` order,
    each atom read by `eval_expr`.

    State atoms read the step's source state; event atoms read the fired
    transition and its post-state.  `transition=None` is the stutter step,
    on which no event atom holds.
    """
    return tuple([transition is not None
                  and bool(eval_expr(a.pred, post_marking, post_store, transition))
                  if isinstance(a, EventAtom) else bool(eval_expr(a.expr, marking, store))
                  for a in atoms])


def graph_steps(g: ClassGraph, node: int):
    """Outgoing steps of a node, stutter-extended at deadlocks."""
    succ = g.succ.get(node)
    if succ:
        for (t, dst) in succ:
            yield (t, dst)
    else:
        yield (STUTTER, node)


# ---------------------------------------------------------------------------
# Tableau construction: formula -> Buchi automaton

@record
class BuchiAutomaton:
    """States are maximal consistent subsets of the closure, degeneralized.
    A state's required letter is a tuple of truth values in `atoms` order,
    the form of a `run_letter` tuple."""

    atoms: tuple  # formula_atoms of the translated formula
    states: list  # per state: its required letter
    initial: list
    succ: list  # list[list[int]]
    accepting: list  # bool per state

    @property
    def state_count(self) -> int:  # api: benchmarks/tracing.py
        return len(self.states)


def ltl_to_buchi(f: LtlFormula) -> BuchiAutomaton:
    """Self-consistent tableau over the closure of the NNF formula.

    A consistent state s has successor t when every until/release slot x
    satisfies its expansion law, `s[x]` equal to `right or (left and t[x])`
    for an until and `right and (left or t[x])` for a release, read in s.
    The laws read t only at its until/release slots, so each state's
    requirement on t is worked out once, and the scan over all states in
    index order compares only the slots the requirement leaves free."""
    g = nnf(f)
    cl = set(subformulas(g))
    atoms = formula_atoms(g)
    temporals = tuple(sorted((x for x in cl if isinstance(x, (LUntil, LRelease))),
                             key=str))
    choices = atoms + temporals

    # enumerate candidate states: an assignment to atoms and temporal formulas
    raw_states: list = []
    for bits in itertools.product((False, True), repeat=len(choices)):
        chosen = dict(zip(choices, bits))
        # local expansion constraints restrict untils/releases
        ok = True
        for t in temporals:
            if isinstance(t, LUntil):
                lv, rv = truth(t.left, chosen), truth(t.right, chosen)
                if chosen[t] and not (rv or lv):
                    ok = False
                    break
                if not chosen[t] and rv:
                    ok = False
                    break
            elif chosen[t] and not truth(t.right, chosen):
                ok = False
                break
        if ok:
            raw_states.append(chosen)

    def requirement(s: dict) -> Optional[list]:
        """What s asks of a successor t: the (slot, value) pairs that t must
        match on the until/release slots whose expansion `s` leaves free, or
        None when s contradicts its own expansion and has no successor."""
        need = []
        for x in temporals:
            right = truth(x.right, s)
            if right != truth(x.left, s) and right == isinstance(x, LRelease):
                # an until whose left alone holds, or a release whose right
                # alone holds, holds in s iff it holds in t
                need.append((x, s[x]))
            elif s[x] != right:  # else the law asks x to equal right
                return None
        return need

    untils = [x for x in temporals if isinstance(x, LUntil)]
    k = len(untils)

    # degeneralized product with a cyclic acceptance counter
    base_succ: dict = {}
    for i, s in enumerate(raw_states):
        need = requirement(s)
        base_succ[i] = [] if need is None else [
            j for j, t in enumerate(raw_states) if all(t[x] == v for x, v in need)]

    def sat_acc(i: int, a: int) -> bool:
        u = untils[a]
        return (not raw_states[i][u]) or truth(u.right, raw_states[i])

    states: list = []
    index: dict = {}
    succ: list = []
    accepting: list = []

    def intern(i: int, cnt: int) -> int:
        idx = len(states)
        index[(i, cnt)] = idx
        states.append(tuple([raw_states[i][a] for a in atoms]))
        succ.append([])
        accepting.append(False)
        return idx

    initial = []
    pendingq = []
    for i, s in enumerate(raw_states):
        if truth(g, s):
            initial.append(intern(i, 0))
            pendingq.append((i, 0))
    while pendingq:
        (i, cnt) = pendingq.pop()
        idx = index[(i, cnt)]
        if k == 0:
            accepting[idx] = True
            nxt_cnt = 0
        else:
            accepting[idx] = cnt == 0 and sat_acc(i, 0)
            nxt_cnt = (cnt + 1) % k if sat_acc(i, cnt) else cnt
        for j in base_succ[i]:
            key = (j, nxt_cnt)
            tgt = index.get(key)
            if tgt is None:
                tgt = intern(j, nxt_cnt)
                pendingq.append(key)
            succ[idx].append(tgt)
    return BuchiAutomaton(atoms, states, initial, succ, accepting)


# ---------------------------------------------------------------------------
# Evaluation on ultimately periodic words of tuple letters

def lasso_program(g: LtlFormula, atoms: tuple) -> tuple:
    """A negation-normal-form formula as a flat postorder program over
    letters indexed like `atoms`, built without recursion.

    Instruction k is `(op, a, b)` and computes the values of one subformula
    at every position of the word: "tt" and "ff"; "atom" and "natom" read
    (or negate) atom `a` of each letter; "and", "or", "U" and "R" combine
    results `a` and `b`.  The last instruction is `g`'s.
    """
    index = {a: i for i, a in enumerate(atoms)}
    program: list = []
    slots: list = []  # result index of each finished subformula, in postorder
    stack = [(g, False)]
    while stack:
        f, expanded = stack.pop()
        if isinstance(f, (EventAtom, StateAtom)):
            program.append(("atom", index[f], None))
        elif isinstance(f, LNot) and isinstance(f.f, (EventAtom, StateAtom)):
            program.append(("natom", index[f.f], None))
        elif isinstance(f, (TT, FF)):
            program.append(("tt" if isinstance(f, TT) else "ff", None, None))
        elif not expanded:
            stack.append((f, True))
            stack.extend((c, False) for c in reversed(children(f)))
            continue
        else:
            op = {LAnd: "and", LOr: "or", LUntil: "U", LRelease: "R"}[type(f)]
            right = slots.pop()
            program.append((op, slots.pop(), right))
        slots.append(len(program) - 1)
    return tuple(program)


def run_lasso_program(program: tuple, stem: list, cycle: list) -> bool:
    """Truth of a `lasso_program` on the infinite word stem . cycle^w of
    tuple letters.

    An until is the least and a release the greatest fixpoint of its
    one-step expansion.  Two backward passes over the cycle reach it there:
    the first settles the cycle's entry, the second every other position of
    the cycle; one more pass settles the stem.
    """
    assert cycle, "lasso needs a nonempty cycle"
    word = stem + cycle
    n = len(word)
    loop = len(stem)
    nxt = [*range(1, n), loop]
    order = [*range(n - 1, loop - 1, -1)] * 2 + [*range(loop - 1, -1, -1)]
    values: list = []
    for op, a, b in program:
        if op == "atom":
            v = [w[a] for w in word]
        elif op == "natom":
            v = [not w[a] for w in word]
        elif op == "tt":
            v = [True] * n
        elif op == "ff":
            v = [False] * n
        elif op == "and":
            v = [x and y for x, y in zip(values[a], values[b])]
        elif op == "or":
            v = [x or y for x, y in zip(values[a], values[b])]
        elif op == "U":
            left, right = values[a], values[b]
            v = [False] * n
            for i in order:
                v[i] = right[i] or (left[i] and v[nxt[i]])
        else:
            left, right = values[a], values[b]
            v = [True] * n
            for i in order:
                v[i] = right[i] and (left[i] or v[nxt[i]])
        values.append(v)
    return values[-1][0]


# ---------------------------------------------------------------------------
# Emptiness: iterative nested DFS returning an accepting lasso

def _nested_dfs(initial, successors: Callable, is_accepting: Callable):
    """Return (stem_nodes, cycle_nodes) of an accepting lasso, or None.

    `stem_nodes` runs from an initial node to an accepting seed;
    `cycle_nodes` runs from that seed back to itself (first == last == seed).
    Iterative blue/red scheme: the red search, started at the seed's
    postorder, looks for a way back to the seed or onto the blue stack.
    """
    visited: set = set()
    red: set = set()
    parent: dict = {}

    def red_search(seed, blue_set):
        stack = [(seed, iter(successors(seed)))]
        local_parent: dict = {}
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == seed or nxt in blue_set:
                    path = [nxt, node]
                    cur = node
                    while cur != seed:
                        cur = local_parent[cur]
                        path.append(cur)
                    path.reverse()  # seed -> ... -> node -> hit
                    return path
                if nxt not in red:
                    red.add(nxt)
                    local_parent[nxt] = node
                    stack.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
        return None

    for init in initial:
        if init in visited:
            continue
        visited.add(init)
        stack = [(init, iter(successors(init)))]
        blue_order = [init]
        blue_set = {init}
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    parent[nxt] = node
                    stack.append((nxt, iter(successors(nxt))))
                    blue_order.append(nxt)
                    blue_set.add(nxt)
                    advanced = True
                    break
            if advanced:
                continue
            if is_accepting(node):
                hit_path = red_search(node, blue_set)
                if hit_path is not None:
                    hit = hit_path[-1]
                    if hit == node:
                        cycle = hit_path  # seed -> ... -> seed directly
                    else:
                        # continue along the blue stack from the hit to seed
                        pos = blue_order.index(hit)
                        cycle = hit_path + blue_order[pos + 1:]
                    stem = [node]
                    cur = node
                    while cur in parent:
                        cur = parent[cur]
                        stem.append(cur)
                    stem.reverse()
                    return stem, cycle
            stack.pop()
            blue_order.pop()
            blue_set.discard(node)
    return None


# ---------------------------------------------------------------------------
# Checking

@record
class Counterexample:
    """A violating run: stem then cycle (empty cycle = finite safety prefix)."""

    stem: tuple  # tuple of (src, label, dst) graph steps
    cycle: tuple


@record
class CheckResult:
    passed: bool
    counterexample: Optional[Counterexample] = None
    states_explored: int = 0
    used_fast_path: bool = False

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _fast_path_target(f: LtlFormula) -> Optional[LtlFormula]:
    """Body of an `always <propositional>` formula, if f has that shape."""
    if isinstance(f, LAlways) and not any(
            isinstance(g, (LUntil, LRelease, LAlways, LEventually))
            for g in subformulas(f.f)):
        return f.f
    return None


def check(g: ClassGraph, f: LtlFormula) -> CheckResult:
    """Automata-theoretic check that every run of the graph satisfies f."""
    if isinstance(f, LAnd):
        left = check(g, f.left)
        if not left.passed:
            return left
        right = check(g, f.right)
        if not right.passed:
            return right
        return CheckResult(True, None,
                           left.states_explored + right.states_explored,
                           left.used_fast_path and right.used_fast_path)
    body = _fast_path_target(f)
    if body is not None:
        return _check_safety(g, body)
    return _check_buchi(g, f)


def _check_safety(g: ClassGraph, body: LtlFormula) -> CheckResult:
    """Reachability scan for a step violating a propositional invariant.

    `build_graph` numbers classes in breadth-first discovery order, so the
    scan visits node ids in increasing order, and the first edge it meets
    into a class is that class's breadth-first parent.
    """
    atoms = formula_atoms(body)
    parent: dict = {g.initial: None}  # class -> (parent class, label)
    for node in range(g.node_count):
        src = g.nodes[node]
        for (label, dst) in graph_steps(g, node):
            post = g.nodes[dst]
            letter = run_letter(atoms, src.marking, src.store, label, post.marking, post.store)
            if not truth(body, dict(zip(atoms, letter))):
                steps = [(node, label, dst)]
                cur = node
                while parent[cur] is not None:
                    prev, lbl = parent[cur]
                    steps.append((prev, lbl, cur))
                    cur = prev
                steps.reverse()
                return CheckResult(False, Counterexample(tuple(steps), ()),
                                   node + 1, True)
            parent.setdefault(dst, (node, label))
    return CheckResult(True, None, g.node_count, True)


def _check_buchi(g: ClassGraph, f: LtlFormula) -> CheckResult:
    ba = ltl_to_buchi(LNot(f))
    edge_cache: dict = {}

    def edges(node: int) -> list:
        """The node's graph steps (label, dst, `run_letter` tuple)."""
        out = edge_cache.get(node)
        if out is None:
            src = g.nodes[node]
            out = edge_cache[node] = [
                (label, dst, run_letter(ba.atoms, src.marking, src.store, label,
                                        g.nodes[dst].marking, g.nodes[dst].store))
                for (label, dst) in graph_steps(g, node)]
        return out

    # product node -> {successor: label of its first edge}; a successor that
    # two edges reach is listed once, and the search visits it once anyway
    succ_cache: dict = {}

    def successors(prod) -> dict:
        out = succ_cache.get(prod)
        if out is None:
            (node, q) = prod
            out = succ_cache[prod] = {}
            for (label, dst, letter) in edges(node):
                if letter == ba.states[q]:
                    for r in ba.succ[q]:
                        out.setdefault((dst, r), label)
        return out

    initial = [(g.initial, q) for q in ba.initial]
    hit = _nested_dfs(initial, successors, lambda prod: ba.accepting[prod[1]])
    if hit is None:
        return CheckResult(True, None, len(succ_cache), False)
    stem_nodes, cycle_nodes = hit

    def project(seq) -> tuple:
        """Product node sequence -> graph steps (src, label, dst)."""
        return tuple((a[0], succ_cache[a][b], b[0]) for a, b in zip(seq, seq[1:]))

    return CheckResult(False, Counterexample(project(stem_nodes), project(cycle_nodes)),
                       len(succ_cache), False)


# ---------------------------------------------------------------------------
# Witness extraction: concrete delays for a violating run

def _steps_to_transitions(steps) -> list:
    return [label for (_, label, _) in steps]


def witness_to_trace(model: TtsModel, cx: Counterexample) -> TimedTrace:
    """Solve the stem followed by one pass of the cycle for concrete delays.

    Firing times are constrained by each transition's static interval from
    its enabling instant, by every concurrently enabled transition's pending
    deadline, and strictly by higher-priority competitors.  `solve_schedule`
    solves these difference constraints exactly by shortest paths, fixing
    each firing time to the midpoint of its remaining feasible window (its
    endpoint when punctual).  A stutter step ends the run and marks the
    trace deadlocked.
    """
    labels = _steps_to_transitions(cx.stem) + _steps_to_transitions(cx.cycle)
    deadlocked = False
    firing: list = []
    for lbl in labels:
        if lbl is STUTTER:
            deadlocked = True
            break
        firing.append(lbl)

    times = solve_schedule(model, firing)
    marking = model.initial_marking()
    store = model.initial_store()
    timed: list = []
    for (t, tau) in zip(firing, times):
        marking, store = fire(model, marking, store, t)
        timed.append((tau, Event(t, marking, store)))
    return TimedTrace(tuple(timed), times[-1] if times else Fraction(0),
                      (model.initial_marking(), model.initial_store()), deadlocked)


def _schedule_constraints(model: TtsModel, firing: list) -> list:
    """Difference constraints (i, j, bound): T_i - T_j <= bound, T_0 = 0."""
    marking = model.initial_marking()
    store = model.initial_store()
    enable_step: dict = {n: 0 for n in enabled(model, marking, store)}
    strict_after: dict = {}  # preempted transition -> step it must strictly follow
    cons: list = []
    for k, t in enumerate(firing, start=1):
        e = enable_step.get(t)
        if e is None:
            raise ValueError(f"transition {t!r} not enabled at step {k}")
        iv = model.transitions[t].timing
        lo, up = iv.lower, iv.upper
        cons.append((e, k, (-lo.value, lo.strict)))  # T_k - T_e >= lo
        if not up.is_infinite:
            cons.append((k, e, (up.value, up.strict)))
        if t in strict_after:
            cons.append((strict_after.pop(t), k, (Fraction(0), True)))
        higher = set(model.higher_than(t))
        for (u, eu) in enable_step.items():
            uiv = model.transitions[u].timing
            if not uiv.upper.is_infinite:
                strict = uiv.upper.strict or (u in higher)
                cons.append((k, eu, (uiv.upper.value, strict)))
            # unbounded competitors never force anything
        cons.append((k - 1, k, (Fraction(0), False)))  # time monotone
        marking, store, now_enabled, fresh = step(model, marking, store, t, enable_step)
        # a preempted higher-priority competitor must fire strictly later,
        # as long as it stays continuously enabled
        for h in higher:
            if h in now_enabled and h not in fresh:
                strict_after[h] = k
        enable_step = {u: (k if u in fresh else enable_step[u])
                       for u in now_enabled}
        strict_after = {u: s for u, s in strict_after.items()
                        if u in now_enabled and u not in fresh}
    return cons


def _constraint_graph(k: int, cons: list) -> tuple:
    """Forward and reversed adjacency lists of the constraints over T_0..T_k.

    `T_i - T_j <= b` is the edge j -> i of weight b, so the shortest path
    from j to i is the tightest bound on T_i - T_j: the entry (i, j) of the
    canonical difference-bound matrix.  A weight is `(value, -strict)`;
    ordered and added as pairs, a path is as short as the tightest bound
    along it, strict when one of its shortest paths has a strict edge, and a
    negative cycle is one of negative value or of value zero with a strict
    edge, exactly where a difference-bound matrix is inconsistent.
    """
    fwd: list = [[] for _ in range(k + 1)]
    rev: list = [[] for _ in range(k + 1)]
    for (i, j, (b, strict)) in cons:
        w = (b, -1 if strict else 0)
        fwd[j].append((i, w))
        rev[i].append((j, w))
    return fwd, rev


def _relax(adj: list, dist: list, seed: int) -> bool:
    """Label-correcting shortest paths (SPFA, a queued Bellman-Ford).

    `dist` holds shortest-path labels, None for unreached; the label of
    `seed` has just been lowered.  Lower every label it improves along
    `adj`.  False on a negative cycle: without one, an improving path from
    the seed is simple, so it has fewer edges than there are nodes.
    """
    n = len(adj)
    hops = [0] * n
    queued = [False] * n
    queued[seed] = True
    queue = deque([seed])
    while queue:
        u = queue.popleft()
        queued[u] = False
        du0, du1 = dist[u]
        h = hops[u] + 1
        for (v, (b0, b1)) in adj[u]:
            via = (du0 + b0, du1 + b1)
            dv = dist[v]
            if dv is None or via < dv:
                if h >= n:
                    return False
                dist[v] = via
                hops[v] = h
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return True


def _distances_from(adj: list, source: int) -> Optional[list]:
    """Shortest-path labels from `source`; None on a reachable negative cycle."""
    dist: list = [None] * len(adj)
    dist[source] = (Fraction(0), 0)
    return dist if _relax(adj, dist, source) else None


def solve_schedule(model: TtsModel, firing: list) -> list:
    """Exact firing times realizing a feasible firing sequence of the model.

    Each firing time in step order is fixed to the midpoint of its feasible
    window given the times fixed before it: the window's lower end when it is
    punctual, one past the lower end when it is unbounded above.
    """
    k = len(firing)
    fwd, rev = _constraint_graph(k, _schedule_constraints(model, firing))
    # Time is monotone, so every T_i reaches T_0 through the constraints and
    # the pass over the reversed graph meets every cycle of the system.
    lo = _distances_from(rev, 0)  # lo[i] bounds T_0 - T_i
    up = _distances_from(fwd, 0) if lo is not None else None  # up[i] bounds T_i
    if up is None:
        raise ValueError("firing sequence admits no schedule; graph edge invalid")
    times: list = []
    for i in range(1, k + 1):
        low = -lo[i][0]
        if up[i] is None:
            val = low + 1 if lo[i][1] else low
        elif up[i][0] == low:
            val = low
        else:
            val = (low + up[i][0]) / 2
        # T_i = val adds the edges 0 -> i of weight val and i -> 0 of weight
        # -val.  The label of 0 never drops, so they act only through the
        # labels of i they set, which relaxing from i spreads.
        up[i], lo[i] = (val, 0), (-val, 0)
        feasible = _relax(fwd, up, i) and _relax(rev, lo, i)
        assert feasible, "midpoint stays feasible"
        times.append(val)
    return times


def cycle_time_lower_bound(model: TtsModel, cx: Counterexample) -> Optional[Fraction]:
    """Minimal time one unrolling of a lasso's cycle can take.

    Zero-duration cycles satisfy eventualities only on non-divergent runs;
    reporting the bound lets a reviewer spot such artifacts (they are not
    filtered out).
    """
    labels = _steps_to_transitions(cx.stem) + 2 * _steps_to_transitions(cx.cycle)
    if any(lbl is STUTTER for lbl in labels) or not cx.cycle:
        return None
    fwd, rev = _constraint_graph(len(labels), _schedule_constraints(model, labels))
    if _distances_from(rev, 0) is None:
        return None
    first = len(cx.stem)  # step index entering the first cycle copy
    second = first + len(cx.cycle)
    # upper bound on T_first - T_second = -(cycle time)
    bound = _distances_from(fwd, second)[first]
    if bound is None:
        return Fraction(0)
    return max(Fraction(0), -bound[0])


# Steps `find_decisive_extension` adds to a counterexample at most, and
# candidate extensions it tries at most, before it gives up.
MAX_EXTENSION_DEPTH = 14
MAX_EXTENSION_PATHS = 4000


def find_decisive_extension(g: ClassGraph, model: TtsModel, cx: Counterexample,
                            decide: Callable) -> Optional[TimedTrace]:
    """Breadth-first search over run extensions until `decide` accepts one.

    `decide` receives each candidate trace; used to lengthen a violating run
    until a trace-level oracle can confirm the violation on the finite prefix.
    The search adds at most `MAX_EXTENSION_DEPTH` steps and tries at most
    `MAX_EXTENSION_PATHS` candidates.
    """
    base = list(cx.stem) + list(cx.cycle)

    def mk_trace(steps) -> Optional[TimedTrace]:
        try:
            return witness_to_trace(model, Counterexample(tuple(steps), ()))
        except ValueError:
            return None

    t0 = mk_trace(base)
    if t0 is not None and decide(t0):
        return t0
    queue = deque([base])
    tried = 0
    while queue and tried < MAX_EXTENSION_PATHS:
        steps = queue.popleft()
        if len(steps) - len(base) >= MAX_EXTENSION_DEPTH:
            continue
        last = steps[-1][2] if steps else g.initial
        for (label, dst) in graph_steps(g, last):
            cand = steps + [(last, label, dst)]
            tried += 1
            tr = mk_trace(cand)
            if tr is not None and decide(tr):
                return tr
            if label is not STUTTER:
                queue.append(cand)
    return None
