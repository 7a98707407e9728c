"""Tropical line arrangements in the plane.

Each column p of a weight matrix gives a tropical line: three rays from
an apex, leftward, downward, and up-diagonal.  The plane splits into
three sectors per line, numbered by the row that wins the argmin of
(0, apex_x - x, apex_y - y) at a query point; the boundary between
sectors is the line itself.  One rule, _sector, decides that argmin for
both type_at and cell111.  Reading the sector numbers of the three
lines of a triple inside the unique cell where all three differ
reconstructs the induced tableau, which gives a purely geometric route
to the matching field and a cross-check of the algebraic one.  That
cell has a closed form: for each ordering of the triple it is an open
polygon cut out by vertical, horizontal and slope-1 lines through the
apexes, so _cell tests the six orderings by a few int comparisons and
finds an exact interior point as ints on the scale 4D; induce_geometric
reads only the ordering, and cell111 adds the Fraction point and the
Covector.  A weight matrix is its own arrangement: every function here
takes the WeightMatrix and decides on its apex ints, the apexes times
D, the lcm of its denominators (a positive scale keeps every
comparison), and on its x order; WeightMatrix.apex hands out line p's
Fraction apex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mfcore import (_PLACEMENTS, MatchingField, Triple, WeightMatrix,
                     check_triple, triples)

Point = tuple[Fraction, Fraction]


class OnBoundary(ValueError):
    """The query point lies on a ray of the given line."""

    def __init__(self, index: int):
        self.index = index
        super().__init__("point on a ray of line %d" % index)


class NotFound(ValueError):
    """No cell with pairwise distinct sector types was found."""


@dataclass(frozen=True)
class TropicalLine:
    index: int
    apex: Point


@dataclass(frozen=True)
class Covector:
    """Which lines take sector type 1, 2, 3 at a point."""

    s1: frozenset
    s2: frozenset
    s3: frozenset

    def coarse(self) -> tuple[int, int, int]:
        return (len(self.s1), len(self.s2), len(self.s3))

    def singletons(self) -> tuple[int, int, int]:
        (c1,), (c2,), (c3,) = self.s1, self.s2, self.s3
        return (c1, c2, c3)


def _sector(u, v, index: int) -> int:
    """Argmin row of (0, u, v): the sector type of a point at offset
    (u, v) = (apex_x - x, apex_y - y) from line index's apex.  Raises
    OnBoundary(index) on a tie."""
    if u > 0 < v:
        return 1
    if u < 0 and u < v:
        return 2
    if v < 0 and v < u:
        return 3
    raise OnBoundary(index)


def type_at(line: TropicalLine, q: Point) -> int:
    """Sector type of q relative to one line: the argmin row of
    (0, apex_x - x, apex_y - y), decided by _sector on the exact
    Fraction differences.  Raises OnBoundary on a tie."""
    a, b = line.apex
    return _sector(a - Fraction(q[0]), b - Fraction(q[1]), line.index)


def covector_at(M: WeightMatrix, q: Point, subset) -> Covector:
    """Covector of the queried lines of M at q (OnBoundary propagates)."""
    buckets = {1: set(), 2: set(), 3: set()}
    for p in sorted(subset):
        buckets[type_at(TropicalLine(p, M.apex(p)), q)].add(p)
    return Covector(frozenset(buckets[1]), frozenset(buckets[2]),
                    frozenset(buckets[3]))


def _cell(xs, ys, D: int, T: Triple) -> tuple:
    """(c, X, Y): the ordering c of the sorted triple T whose cell of
    cell111 is non-empty, and its sample point times 4D, as ints.
    NotFound if none is, or if the point fails the _sector re-check."""
    for i, j, k in _PLACEMENTS:
        c = c1, c2, c3 = T[i], T[j], T[k]
        a1, a2, a3 = xs[c1 - 1], xs[c2 - 1], xs[c3 - 1]
        b1, b2, b3 = ys[c1 - 1], ys[c2 - 1], ys[c3 - 1]
        lo, hi = max(b3 - a1, b3 - a3), min(b1 - a2, b2 - a2)
        if a2 < a1 and b3 < b1 and lo < hi:
            s2 = lo + hi
            X = max(2 * a2, 2 * b3 - s2) + min(2 * a1, 2 * b1 - s2)
            Y = X + 2 * s2
            try:
                ok = (_sector(4 * a1 - X, 4 * b1 - Y, c1) == 1
                      and _sector(4 * a2 - X, 4 * b2 - Y, c2) == 2
                      and _sector(4 * a3 - X, 4 * b3 - Y, c3) == 3)
            except OnBoundary:
                ok = False
            if not ok:
                q = (Fraction(X, 4 * D), Fraction(Y, 4 * D))
                raise NotFound("sample point %r of triple %r is not in the "
                               "cell of %r" % (q, T, c))
            return c, X, Y
    raise NotFound("no cell with distinct types for triple %r" % (T,))


def cell111(M: WeightMatrix, T: Triple):
    """Sample point and covector of the cell where the triple's three
    lines take pairwise distinct sector types.

    Write (a_k, b_k) for the apex of line c_k and d_k = b_k - a_k.  By
    the sector rule, lines c1, c2, c3 take types 1, 2, 3 on the open
    cell a2 < x < a1, b3 < y < b1, d3 < y - x < d2.  Setting s = y - x,
    the cell is non-empty iff a2 < a1, b3 < b1 and
    lo = max(b3 - a1, d3) < hi = min(b1 - a2, d2), that is, iff the
    placement weight a2 + b3 of (c1, c2, c3) is strictly below the
    other five.  So at most one ordering of the triple qualifies, and
    none does on a tied triple; then NotFound is raised.  The sample
    point takes s midway in its range and x midway in the x-interval at
    that s.  _cell makes every decision by int comparisons on M's apex
    ints and on the point times 4D: X = max(2 a2, 2 b3 - s2) + min(2 a1,
    2 b1 - s2) and Y = X + 2 s2 with s2 = lo + hi.  It re-checks the
    point's sector types with _sector, which keeps this route independent
    of the argmin in mfcore.  The point is returned as (X/4D, Y/4D).
    """
    xs, ys, D = M.apex_ints
    c, X, Y = _cell(xs, ys, D, check_triple(T, M.n))
    return ((Fraction(X, 4 * D), Fraction(Y, 4 * D)),
            Covector(*(frozenset((p,)) for p in c)))


def induce_geometric(M: WeightMatrix) -> MatchingField:
    """Matching field read off M's arrangement, triple by triple: the
    orderings of _cell, without cell111's Fractions and Covector."""
    xs, ys, D = M.apex_ints
    return MatchingField(M.n, {T: _cell(xs, ys, D, T)[0]
                               for T in triples(M.n)})


def adjacent(M: WeightMatrix, i: int, j: int) -> bool:
    """True iff i and j are consecutive in M's x order."""
    order = M.x_order
    pi, pj = order.index(i), order.index(j)
    return abs(pi - pj) == 1
