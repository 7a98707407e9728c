"""Matching-field polytope vertices and an exact convexity oracle.

A tableau (c1, c2, c3) on n columns stands for the 3 x n 0/1 matrix with
a 1 in row t, column c_t.  The polytope of a matching field is the hull
of one such point per triple, and a VertexSet holds the tableaux.
Membership, extremality and hull equality are decided by exact rational
linear programming (member: phase-1 simplex over every vertex and
coordinate, both answers certificate-checked), never by vertex
enumeration in dimension 3n.  certify does not call it; the tests check
mutate's cube rule against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import lp
from .mfcore import MatchingField, Tableau

LatticePoint = tuple  # 3 rows, each a tuple of n Fractions

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
    """The 0/1 points of a polytope on n columns, as tableaux; iterating
    gives them in sorted order, sorted once."""

    n: int
    points: frozenset

    def __post_init__(self):
        columns = set(range(1, self.n + 1))
        for tab in self.points:
            if (len(tab) != 3 or tab[0] == tab[1] or tab[1] == tab[2]
                    or tab[0] == tab[2] or not columns.issuperset(tab)):
                raise BadIndex("%r is not a tableau on %d columns"
                               % (tab, self.n))

    @cached_property
    def _sorted(self) -> list:
        # a list: CPython keeps freed tuples of < 20 items for reuse
        return sorted(self.points)

    def __iter__(self):
        return iter(self._sorted)

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


def member(q: LatticePoint, S: VertexSet) -> bool:
    """Exact test for q in conv(S): λ >= 0 with sum λ_t vertex_of(t) = q
    and sum λ_t = 1, one column per tableau in sorted order, so permuting
    S cannot change the answer."""
    if len(q) != 3 or any(len(row) != S.n for row in q):
        raise ShapeMismatch("point does not match the set's shape")

    def column(p):
        return [x for row in p for x in row] + [_ONE]

    return lp.feasible_combination([column(vertex_of(t, S.n)) for t in S],
                                   column(q))[0]


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
