"""Firing domains of the state-class graph: difference-bound matrices over
firing-time variables, with strict bounds.

A domain constrains variables th_1..th_n (one per enabled transition) plus
the constant 0 at index 0: entry (i, j) is an upper bound on th_i - th_j.
Canonical form is the all-pairs-shortest-path closure, which is a normal
form: two constraint sets have the same solutions iff their canonical
matrices are identical.

`Domain` is the one representation the product uses.  Every interval
constant of the model is multiplied by `scale`, the LCM of their
denominators, so each bound is an integer c; zone entries are sums of those
constants, so the rescaling is exact.  A bound is stored as one int, `2c`
for `< c` and `2c+1` for `<= c` (Bengtsson & Yi, LNCS 3098), with `INF` for
+infinity; integer order is then the order of bounds.  Firability is an O(n)
test on the canonical domain and the successor domain an incremental closure
of one row (Berthomieu & Diaz, IEEE TSE 1991), so the class graph never runs
a full closure.

`Dbm` and `canonicalize` are the Fraction core that the benchmark's tracer
names: exact rationals tagged strict/non-strict, `None` standing for
+infinity, closed by a full Floyd-Warshall.  No command calls them; the
tests build their reference zones, and decode `Domain` entries to the same
`(value, strict)` pairs, in `tests/reference.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .model import TimeInterval
from .records import record

# A bound is (value, strict) or None for +infinity.
Bound = Optional[tuple]

LE_ZERO: Bound = (Fraction(0), False)


def bound_le(a: Bound, b: Bound) -> bool:
    """True iff constraint `a` is at least as tight as `b`."""
    if b is None:
        return True
    if a is None:
        return False
    if a[0] != b[0]:
        return a[0] < b[0]
    return a[1] or not b[1]


def bound_min(a: Bound, b: Bound) -> Bound:
    return a if bound_le(a, b) else b


def bound_add(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] or b[1])


@record
class Dbm:
    """Canonical difference-bound matrix; index 0 is the constant zero."""

    names: tuple  # variable names for indices 1..n, kept sorted
    m: tuple  # tuple of row tuples of bounds

    @property
    def size(self) -> int:
        return len(self.names) + 1


def canonicalize(d: Dbm) -> Optional[Dbm]:  # api: benchmarks/tracing.py
    """Shortest-path closure; None when the constraints are inconsistent."""
    n = d.size
    rows = [list(row) for row in d.m]
    for i in range(n):
        rows[i][i] = bound_min(rows[i][i], LE_ZERO)
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            rik = rows[i][k]
            if rik is None:
                continue
            ri = rows[i]
            for j in range(n):
                via = bound_add(rik, rk[j])
                if via is not None and not bound_le(ri[j], via):
                    ri[j] = via
    for i in range(n):
        dii = rows[i][i]
        if dii is not None and (dii[0] < 0 or (dii[0] == 0 and dii[1])):
            return None
    return Dbm(d.names, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Integer firing domains of the state-class graph

# +infinity.  A float compares exactly against ints of any size, so no finite
# bound, however large its constant, can reach it; it never enters arithmetic.
INF = math.inf
LE0 = 1  # (0, <=); (0, <) is 0


def _add(a, b):
    """Sum of two encoded bounds: values add, strict unless both non-strict."""
    if a == INF or b == INF:
        return INF
    return ((a & ~1) + (b & ~1)) | (a & b & 1)


def _encode(value: Fraction, strict: bool, scale: int) -> int:
    scaled = value * scale
    if scaled.denominator != 1:
        raise ValueError(f"constant {value} is not a multiple of 1/{scale}")
    return 2 * scaled.numerator + (0 if strict else 1)


def _encode_interval(interval: TimeInterval, scale: int) -> tuple:
    """Static interval as encoded (upper bound on th, upper bound on -th)."""
    up = interval.upper
    hi = INF if up.is_infinite else _encode(up.value, up.strict, scale)
    return hi, _encode(-interval.lower.value, interval.lower.strict, scale)


@record
class Domain:
    """Canonical firing domain with integer-encoded bounds; index 0 is zero."""

    names: tuple  # variable names for indices 1..n, kept sorted
    m: tuple  # tuple of row tuples of encoded bounds
    scale: int  # every constant is a multiple of 1/scale

    def index(self, name: str) -> int:
        return self.names.index(name) + 1


def firable(d: Domain, t: str, higher) -> bool:
    """Whether t can fire first: the canonical domain stays nonempty under
    th_t <= th_u for every other u, strictly where u is in `higher`.

    The added constraints all leave t, so a negative cycle would close
    through a single one of them: only D[u][t] + (0, <=/<) >= (0, <=) needs
    checking, i.e. D[u][t] >= (0, <=), or D[u][t] > (0, <=) for u in `higher`.
    """
    m = d.m
    ti = d.index(t)
    for u, name in enumerate(d.names, 1):
        if u != ti and m[u][ti] < (LE0 + 1 if name in higher else LE0):
            return False
    return True


def fire(d: Domain, t: str, higher, persistent, fresh: dict) -> Domain:
    """Domain after firing t: t is first (as in `firable`), the clocks of the
    sorted `persistent` names are re-read from t's firing instant, and each
    name of `fresh` gets its static interval (a TimeInterval).
    """
    m = d.m
    names = d.names
    ti = d.index(t)
    strict = [u for u, name in enumerate(names, 1) if u != ti and name in higher]
    loose = [u for u in range(1, len(names) + 1) if u != ti and names[u - 1] not in higher]
    keep = [names.index(p) + 1 for p in persistent]
    # Row t once closed under the firing constraints: R[j] is the least of
    # D[t][j] and (0, <=/<) + D[u][j] over the others u.  u = j is one of
    # them, so R[j] <= (0, <=) is finite.
    row_t = m[ti]
    r = {}
    for j in keep:
        best = row_t[j]
        for u in loose:
            x = m[u][j]
            if x < best:
                best = x
        for u in strict:
            x = m[u][j]
            if x != INF and x & ~1 < best:
                best = x & ~1
        r[j] = best
    # A shortest path uses the new edges at most once, so the closure is
    # min(D[i][j], D[i][t] + R[j]).  Rebasing on th_t, the old row t becomes
    # the new row 0 and the old column t the new column 0.
    rows = [[LE0] + [r[j] for j in keep]]
    for a in keep:
        src = m[a]
        at = src[ti]
        if at == INF:
            row = [at] + [src[b] for b in keep]
        else:
            row = [at]
            for b in keep:
                via = ((at & ~1) + (r[b] & ~1)) | (at & r[b] & 1)
                row.append(via if via < src[b] else src[b])
        rows.append(row)
    return _add_fresh(tuple(persistent), rows, fresh, d.scale)


def initial(intervals: dict, scale: int) -> Domain:
    """Domain of freshly enabled transitions, name -> static TimeInterval."""
    return _add_fresh((), [[LE0]], intervals, scale)


def _add_fresh(names: tuple, rows: list, fresh: dict, scale: int) -> Domain:
    """Merge fresh variables, each alone in its static interval, into the
    canonical `rows` over sorted `names`.

    A fresh variable is tied to the others only through 0, so its row is
    `up_f + D[0][j]` and its column `D[i][0] + lo_f`: closed already.
    """
    if not fresh:
        return Domain(names, tuple(map(tuple, rows)), scale)
    enc = {n: _encode_interval(iv, scale) for n, iv in fresh.items()}
    final = tuple(sorted(names + tuple(enc)))
    pos = {n: i for i, n in enumerate(names, 1)}
    src = [0] + [pos.get(n) for n in final]  # old index, None when fresh
    size = len(final) + 1
    row0 = [LE0] * size
    for k in range(1, size):
        row0[k] = rows[0][src[k]] if src[k] is not None else enc[final[k - 1]][1]
    out = [tuple(row0)]
    for k in range(1, size):
        if src[k] is None:
            up = enc[final[k - 1]][0]
            row = [up if j == 0 else LE0 if j == k else _add(up, row0[j])
                   for j in range(size)]
        else:
            old = rows[src[k]]
            at0 = old[0]
            row = [old[src[j]] if src[j] is not None else _add(at0, row0[j])
                   for j in range(size)]
        out.append(tuple(row))
    return Domain(final, tuple(out), scale)
