"""Matching-field polytope vertices and an exact convexity oracle.

A tableau (c1, c2, c3) on n columns stands for the 3 x n 0/1 matrix with
a 1 in row t, column c_t.  The polytope of a matching field is the hull
of one such point per triple, and a VertexSet holds the tableaux; 3 x n
rational points are built only at the LP boundary and for the tropical
map.  Membership, extremality and hull equality are decided by exact
rational linear programming, never by vertex enumeration in dimension 3n.
member is the general oracle; certify's midpoint batteries call it only
for a midpoint that mutate's cube rule finds outside the hull, to
confirm that "no" with a checked Farkas vector.

The LP of a membership test sees only the part of the system that can
carry weight: a vertex with its 1 where the query point is 0 must get
weight 0, so the live columns are the tableaux t with q[r][t[r]] != 0 in
every row r, and the rows are the nonzero coordinates of q.  An
infeasible answer's Farkas vector is lifted back to the full system
(each left-out row gets one common negative entry) and re-checked
against every vertex of the set.
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
    """A tableau is not three distinct columns of 1..n."""


class NotInSet(ValueError):
    """The queried tableau is not one of the set's."""


def lattice_point(rows) -> LatticePoint:
    """Coerce 3 iterables of rationals into a lattice point."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(out) != 3 or len({len(r) for r in out}) != 1:
        raise ShapeMismatch("expected 3 equal-length rows")
    return out


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
    """The 0/1 points of a polytope on n columns, as tableaux."""

    n: int
    points: frozenset

    def __post_init__(self):
        columns = set(range(1, self.n + 1))
        for tab in self.points:
            if len(tab) != 3 or len(columns.intersection(tab)) != 3:
                raise BadIndex("%r is not a tableau on %d columns"
                               % (tab, self.n))

    def __iter__(self):
        return iter(sorted(self.points))

    def __len__(self):
        return len(self.points)


def vertices(L: MatchingField) -> VertexSet:
    """One tableau per triple of the field."""
    return VertexSet(L.n, frozenset(L.assignment.values()))


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

    Solves sum λ_t vertex_of(t) = q, sum λ_t = 1, λ >= 0 by phase-1
    simplex.  Vertices are 0/1, so only the tableaux t with q[r][t[r]]
    != 0 in every row r can carry weight; they are the LP's columns and
    the nonzero coordinates of q its rows (at most 8 and 7 for a vertex
    midpoint).  A feasible x, padded with zeros, solves the full system;
    an infeasible answer's Farkas vector is lifted to the full system and
    re-checked against every vertex of S, so both verdicts stay
    certificate-checked and permuting S cannot change them.
    """
    if not S.points:
        return False
    if len(q) != 3 or any(len(row) != S.n for row in q):
        raise ShapeMismatch("point does not match the set's shape")
    rhs = _flatten(q)
    kept = [k for k, v in enumerate(rhs) if v != 0]
    live = sorted((t for t in S.points
                   if all(q[r][c - 1] for r, c in enumerate(t))), reverse=True)
    columns = [[col[k] for k in kept] + [_ONE]
               for col in (_flatten(vertex_of(t, S.n)) for t in live)]
    ok, y = lp.feasible_combination(columns, [rhs[k] for k in kept] + [_ONE])
    if not ok:
        dropped = [k for k, v in enumerate(rhs) if v == 0]
        flat = [_flatten(vertex_of(t, S.n)) for t in S.points]
        _lift_farkas(flat, rhs + [_ONE], kept, dropped, y)
    return ok


def _lift_farkas(flat, rhs, kept, dropped, y):
    """Extend a Farkas vector y of the reduced system to the full one.

    Kept rows keep their entry; every dropped row gets -C, with C the
    least nonnegative value that gives each left-out point y.(p, 1) <= 0.
    This is sound because q is 0 and every vertex is >= 0 on dropped
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


def is_hull_vertex(t: Tableau, S: VertexSet) -> bool:
    """True iff vertex t is not in the hull of the other tableaux of S."""
    if t not in S.points:
        raise NotInSet("tableau is not in the set")
    return not member(vertex_of(t, S.n), VertexSet(S.n, S.points - {t}))


def hull_equal(S: VertexSet, T: VertexSet) -> bool:
    """Mutual membership of all vertices: conv(S) == conv(T)."""
    if S.n != T.n:
        raise ShapeMismatch("sets on %d and %d columns" % (S.n, T.n))
    return (all(member(vertex_of(t, S.n), T) for t in S)
            and all(member(vertex_of(t, T.n), S) for t in T))
