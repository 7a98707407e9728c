"""Matching-field polytope vertices and an exact convexity oracle.

A tableau (c1, c2, c3) on n columns becomes the 3 x n matrix with a 1
in row t, column c_t and zeros elsewhere.  The polytope of a matching
field is the convex hull of one such point per triple.  Membership in a
hull, extremality of a point, and equality of two hulls are all decided
by exact rational linear programming, never by vertex enumeration in
the ambient dimension 3n.

The LP of a membership test sees only the part of the system that can
carry weight: a coordinate where the query point is 0 and no point of
the set is negative forces weight 0 on every point positive there, so
those points and that row are left out.  An infeasible answer's Farkas
vector is lifted back to the full system (each left-out row gets one
common negative entry) and re-checked against every point of the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .mfcore import MatchingField, Tableau

LatticePoint = tuple  # 3 rows, each a tuple of n Fractions

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ShapeMismatch(ValueError):
    """Operands do not share the 3 x n shape."""


class BadIndex(ValueError):
    """A tableau entry falls outside 1..n."""


class NotInSet(ValueError):
    """The queried point is not one of the set's points."""


def lattice_point(rows) -> LatticePoint:
    """Coerce 3 iterables of rationals into a lattice point."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != 3 or len({len(r) for r in out}) != 1:
        raise ShapeMismatch("expected 3 equal-length rows")
    return out


def zero_point(n: int) -> LatticePoint:
    return tuple((Fraction(0),) * n for _ in range(3))


def vertex_of(tab: Tableau, n: int) -> LatticePoint:
    """The 0/1 matrix with a single 1 per row at the tableau's columns."""
    if any(not 1 <= c <= n for c in tab):
        raise BadIndex("tableau %r does not fit %d columns" % (tab, n))
    rows = []
    for t in range(3):
        row = [Fraction(0)] * n
        row[tab[t] - 1] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def tableau_of(p: LatticePoint) -> Tableau | None:
    """Recover (c1, c2, c3) from a one-1-per-row 0/1 point, else None."""
    cols = []
    for row in p:
        ones = [c + 1 for c, v in enumerate(row) if v == 1]
        if len(ones) != 1 or any(v not in (0, 1) for v in row):
            return None
        cols.append(ones[0])
    return tuple(cols)


@dataclass(frozen=True)
class VertexSet:
    n: int
    points: frozenset

    def __iter__(self):
        return iter(sorted(self.points))

    def __len__(self):
        return len(self.points)


def vertices(L: MatchingField) -> VertexSet:
    """One lattice point per triple of the field."""
    return VertexSet(L.n, frozenset(vertex_of(tab, L.n)
                                    for tab in L.assignment.values()))


def pair(u: LatticePoint, v: LatticePoint) -> Fraction:
    """Entrywise inner product of two 3 x n points."""
    if len(u) != len(v) or any(len(a) != len(b) for a, b in zip(u, v)):
        raise ShapeMismatch("points of different shape")
    total = Fraction(0)
    for ru, rv in zip(u, v):
        for a, b in zip(ru, rv):
            total += a * b
    return total


def add(u: LatticePoint, v: LatticePoint) -> LatticePoint:
    return tuple(tuple(a + b for a, b in zip(ru, rv)) for ru, rv in zip(u, v))


def scale(c, u: LatticePoint) -> LatticePoint:
    c = Fraction(c)
    return tuple(tuple(c * a for a in row) for row in u)


def midpoint(u: LatticePoint, v: LatticePoint) -> LatticePoint:
    return scale(Fraction(1, 2), add(u, v))


def _flatten(p: LatticePoint):
    return [x for row in p for x in row]


def member(q: LatticePoint, S: VertexSet) -> bool:
    """Exact test for q in conv(S).

    Solves sum λ_s s = q, sum λ_s = 1, λ >= 0 by phase-1 simplex on the
    part of the system that can carry weight.  A coordinate k is
    droppable when q_k = 0 and no point of S is negative at k; a point
    positive at a droppable k must get weight 0.  Those points and the
    droppable rows are left out, so for a midpoint of two vertices the
    LP has at most 8 columns and 7 rows.  A feasible x of the reduced
    system, padded with zeros, solves the full one.  An infeasible
    answer's Farkas vector is lifted to the full system and re-checked
    against every point of S, so both verdicts stay certificate-checked
    and permuting the input set cannot change them.
    """
    if not S.points:
        return False
    if len(q) != 3 or any(len(row) != S.n for row in q):
        raise ShapeMismatch("point does not match the set's shape")
    rhs = _flatten(q)
    zero = [k for k, v in enumerate(rhs) if v == 0]
    pts = list(S.points)
    flat = [_flatten(p) for p in pts]
    if any(len(col) != len(rhs) for col in flat):
        raise ShapeMismatch("set points do not share the point's shape")
    hits = [[k for k in zero if col[k]] for col in flat]
    negative = {k for col, ks in zip(flat, hits) for k in ks if col[k] < 0}
    dropped = [k for k in zero if k not in negative]
    kept = [k for k, v in enumerate(rhs) if v != 0 or k in negative]
    live = sorted((p, col) for p, col, ks in zip(pts, flat, hits)
                  if all(k in negative for k in ks))
    columns = [[col[k] for k in kept] + [_ONE] for _, col in live]
    ok, y = lp.feasible_combination(columns, [rhs[k] for k in kept] + [_ONE])
    if not ok:
        _lift_farkas(flat, rhs + [_ONE], kept, dropped, y)
    return ok


def _lift_farkas(flat, rhs, kept, dropped, y):
    """Extend a Farkas vector y of the reduced system to the full one.

    Kept rows keep their entry; every dropped row gets -C, with C the
    least nonnegative value that gives each left-out point y.(p, 1) <= 0.
    This is sound because q is 0 and every point is >= 0 on dropped
    rows.  The lifted vector is checked against all points of the set.
    """
    full = [_ZERO] * len(rhs)
    for k, v in zip(kept, y):
        full[k] = v
    full[-1] = y[-1]
    C = _ZERO
    for col in flat:
        mass = sum(col[k] for k in dropped)
        if mass > 0:
            C = max(C, (sum(full[k] * col[k] for k in kept) + y[-1]) / mass)
    for k in dropped:
        full[k] = -C
    lp.check_farkas([col + [_ONE] for col in flat], rhs, full)


def is_hull_vertex(q: LatticePoint, S: VertexSet) -> bool:
    """True iff q is not in the hull of the other points of S."""
    if q not in S.points:
        raise NotInSet("point is not in the set")
    rest = VertexSet(S.n, S.points - {q})
    return not member(q, rest)


def hull_equal(S: VertexSet, T: VertexSet) -> bool:
    """Mutual membership of all points: conv(S) == conv(T)."""
    if S.n != T.n:
        raise ShapeMismatch("sets on %d and %d columns" % (S.n, T.n))
    return (all(member(p, T) for p in S) and all(member(p, S) for p in T))


def point_to_text(p: LatticePoint) -> str:
    """Tableau triple "c1 c2 c3" when possible, else a 3-row grid."""
    tab = tableau_of(p)
    if tab is not None:
        return "%d %d %d" % tab
    return "\n".join(" ".join(str(x) for x in row) for row in p)
