"""Adjacent-line swaps and exact verification of polytope mutations.

For an adjacent pair (i, j) the swap data is a pair of integer 3 x n
matrices: w is supported on columns i and j, and f puts +1 in row 1 of
every green or yellow column and -1 in row 2 of columns i, j and the
green or yellow ones.  The piecewise map q -> q - min(0, <q, f>) w
fixes everything on the nonnegative side of f and shears the other
side.  A certificate records, for one swap:

  k1  every polytope vertex pairs with f to -1, 0, or 1;
  k2  the map sends the vertex set exactly onto the swapped field's;
  k3  for each vertex pair with f-values (-1, +1) the midpoint lies in
      the swapped polytope (equivalent to: the image of the polytope is
      contained in the hull of the image vertices);
  k4  the same with the two polytopes exchanged;
  k5  a witness table for the row-swap patterns, with an exhaustive
      fallback over f-value-0 vertex pairs.

Verdicts: VERIFIED (k1-k4 pass), REFUTED (a battery fails although the
star condition holds), INAPPLICABLE (the swap hypothesis is unmet: not
generic, not adjacent, a boundary apex, no workable epsilon, or a
two-sided swap whose star condition fails).  The swap moves line i a
landing offset eps past line j, accepted only when the induced field
changes by exactly the red-region flips.  That holds on an open interval
(0, hi) of eps, read off in one pass over the triples through i; the
offset is the largest gap/2^k inside it.  The accepted matrix differs
from M only in column i, so every triple without i keeps its tableau,
and the re-check recomputes the triples through i from scratch, plus
the x order; that equals a full induce of the accepted matrix.  A
matrix computes its apex ints and x order once: the landed matrix's
serve the re-check, epsilon and the next plan step.  certify works in
one pass: one induce per matrix (none when the caller hands it the
field), one classification (regions and their groups), the swap search
on that state, and one f-value split, of the vertex set before it.

The k2 images and k3/k4 batteries are decided on tableaux.  A vertex
with f-value -1 is the only sheared one, and its image is (i, j, t3)
when it places j over i, else no tableau.  The midpoint of tableaux u
and v is the centre of the cube of tuples t with t[r] in {u[r], v[r]},
and lies in a vertex hull iff the hull's cube vertices hold an antipodal
pair or (three differing rows) a whole parity class.  A witness pair in
the hull is a "yes" with weights 2 and 2 (the swap rewrites only (j, i,
k) into (i, j, k), both of f-value -1, so the sets share all others);
other pairs get the cube rule: a "yes" comes with its combination, int
weights out of 4, substituted back and checked in ints, a "no" with an
integer separating functional built from the present cube vertices,
checked on the midpoint and on every vertex.  No LP is solved.

A certificate stores each fact once.  Its kind, verdict, landing offset,
x order after the swap, diff (the red flips), the reason once a swap
has landed, k1-k4, the star lists and flags a-d and (w, f) are derived
from the regions, groups, swapped matrix, images, failure lists and
witnesses it records; it is frozen, and computes k2, the verdict and
the reason once.  Its text has one writer, certificate_to_text, and one
reader, parse_certificate, which accepts only the exact bytes the writer
gives back for what it read.  The layout lives in the writer alone: the
reader takes each fact from the first line that carries its key, reads
no derived line, and leaves where every line stands to that re-write.
For a landed swap whose matrix-after holds the red flips it recomputes
the images, witnesses and batteries with certify's own _vertex_facts;
only the re-write checks its witness lines.  A stopped one's must be
the table _witnesses writes on the u's, v's and witnesses they name
(certify's is the product of V's sorted f = -1 and f = +1 tableaux, and
each pair the search passes over is missing from V).  The case and
order-before must have certify's shape.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .arrange import Arrangement, apexes, x_order
from .mfcore import (MatchingField, Tableau, TiedX, TieError, WeightMatrix,
                     _induce, _minima, induce, weight_matrix_from_text)
from .mfcore import genericity  # noqa: F401  unused; perfbench traces this name
from .polytope import (LatticePoint, VertexSet, add, lattice_point, pair,
                       scale, vertices)
from .polytope import member  # noqa: F401  unused; perfbench traces this name
from .regions import (Boundary, NotAdjacent, Region, RegionAssignment,
                      _case, _check_pair, _left_first, classify)


_STAR_FAILS = "star condition fails for a two-sided swap"


class NotSwappable(ValueError):
    """No horizontal move of line i past line j realizes the exact flip."""


class PatternMismatch(ValueError):
    """A red-region triple does not carry the (j, i, k) tableau."""

    def __init__(self, index: int):
        self.index = index
        super().__init__("red line %d: triple does not place j over i" % index)


class SlabViolation(ValueError):
    """A vertex pairs with f outside {-1, 0, 1}."""


@dataclass(frozen=True)
class MutationData:
    """The region groups of an adjacent pair (i, j) on n columns (1: red,
    2: green and yellow, 3: purple; disjoint, without i and j), and what
    is derived from them: the pair (w, f) as 3 x n int rows, the four
    star lists (blue-olive is every other line but i and j) and the
    star flags

        (a) red is non-empty,
        (b) blue and olive are both empty,
        (c) yellow or green is non-empty,
        (d) red and purple together hold at least two lines,

    with overall their conjunction; blue-olive, w and f are computed
    once."""

    n: int
    i: int
    j: int
    group_red: frozenset
    group_two: frozenset
    group_three: frozenset

    red = property(lambda self: tuple(sorted(self.group_red)))
    yellow_green = property(lambda self: tuple(sorted(self.group_two)))
    red_purple = property(
        lambda self: tuple(sorted(self.group_red | self.group_three)))
    a = property(lambda self: bool(self.group_red))
    b = property(lambda self: not self.blue_olive)
    c = property(lambda self: bool(self.group_two))
    d = property(lambda self: len(self.group_red) + len(self.group_three) >= 2)
    overall = property(lambda self: self.a and self.b and self.c and self.d)

    @cached_property
    def blue_olive(self) -> tuple:
        grouped = self.group_red | self.group_two | self.group_three
        return tuple(c for c in range(1, self.n + 1)
                     if c not in grouped and c not in (self.i, self.j))

    @cached_property
    def w(self) -> tuple:
        row = tuple((c == self.i) - (c == self.j) for c in range(1, self.n + 1))
        return row, tuple(-x for x in row), (0,) * self.n

    @cached_property
    def f(self) -> tuple:
        cols = range(1, self.n + 1)
        return (tuple(int(c in self.group_two) for c in cols),
                tuple(-(c in self.group_two or c in (self.i, self.j))
                      for c in cols),
                (0,) * self.n)


class WitnessEntry(NamedTuple):
    u: Tableau
    v: Tableau
    kind: str            # case1 / case2 / case3 / search / none
    t: Tableau | None
    t2: Tableau | None


@dataclass(frozen=True)
class MutationCertificate:
    """One swap's facts, as certify found them, built once and frozen; the
    kind, landing offset, x order after the swap, diff and k1-k4 (None
    where certify stopped short) are derived; k2, verdict and reason once."""

    digest: str
    n: int
    i: int
    j: int
    stop: str | None = None           # why certify stopped before the swap landed
    case: str | None = None
    matrix_after: WeightMatrix | None = None
    order_before: tuple = ()
    data: MutationData | None = None
    images: list = field(default_factory=list)
    k3_failures: list = field(default_factory=list)
    k4_failures: list = field(default_factory=list)
    witnesses: list | None = None

    @property
    def star(self) -> MutationData | None:
        """data, under the name of the star lists and flags it carries."""
        return self.data

    @property
    def kind(self) -> str | None:
        """NOOP without red lines, else MUTATION when some vertex pairs
        with f to -1 and some to +1 (exactly when there are witness
        entries), else SHEAR; None without swap data."""
        if self.data is None:
            return None
        if not self.data.group_red:
            return "NOOP"
        return "MUTATION" if self.witnesses else "SHEAR"

    @property
    def epsilon(self) -> Fraction | None:
        """The landing offset: swap raises entry (2, i) and keeps column
        j, so it is line i's apex x minus line j's in matrix_after."""
        if self.matrix_after is None:
            return None
        xs, _, D = self.matrix_after.apex_ints
        return Fraction(xs[self.i - 1] - xs[self.j - 1], D)

    @property
    def order_after(self) -> tuple | None:
        """order_before with i and j transposed, as _swap_core re-checked."""
        return (None if self.matrix_after is None
                else _transposed(self.order_before, self.i, self.j))

    @property
    def diff(self) -> list:
        """The red flips (T, (j, i, k), (i, j, k)), T sorted, by increasing
        k (T's lex order); empty before the swap lands."""
        i, j = self.i, self.j
        return [] if self.matrix_after is None else [
            (tuple(sorted((i, j, k))), (j, i, k), (i, j, k))
            for k in self.data.red]

    @property
    def k1(self) -> bool | None:
        """Every tableau pairs with a build_wf f to -1, 0 or 1."""
        return None if self.data is None else True

    @cached_property
    def k2(self) -> bool | None:
        """The images that move are exactly the diff's (before, after)
        pairs, in order: as every before is a vertex (expected_flip and
        _landed_fields see to it), the vertex set with the diff applied."""
        if self.matrix_after is None:
            return None
        return ([(t, image) for t, image in self.images if image != t]
                == [(before, after) for _, before, after in self.diff])

    @property
    def k3(self) -> bool | None:
        return None if self.matrix_after is None else not self.k3_failures

    @property
    def k4(self) -> bool | None:
        return None if self.matrix_after is None else not self.k4_failures

    @cached_property
    def verdict(self) -> str:
        """INAPPLICABLE without a swapped matrix or with a reason, else
        VERIFIED when k1-k4 pass, or REFUTED."""
        if self.matrix_after is None or self.reason is not None:
            return "INAPPLICABLE"
        return ("VERIFIED" if self.k1 and self.k2 and self.k3 and self.k4
                else "REFUTED")

    @cached_property
    def reason(self) -> str | None:
        """The stop without a swapped matrix, the star message for a
        MUTATION whose star condition fails, else None."""
        if self.matrix_after is None:
            return self.stop
        if self.kind == "MUTATION" and not self.data.overall:
            return _STAR_FAILS
        return None


def build_wf(A: Arrangement, i: int, j: int, R: RegionAssignment) -> MutationData:
    """Mutation data from a finished region classification, grouped in
    one pass over its colours."""
    g = {region: set() for region in Region}
    for k, region in R.colors.items():
        g[region].add(k)
    return MutationData(n=A.n, i=i, j=j, group_red=frozenset(g[Region.RED]),
                        group_two=frozenset(g[Region.GREEN] | g[Region.YELLOW]),
                        group_three=frozenset(g[Region.PURPLE]))


def star(A: Arrangement, i: int, j: int) -> MutationData:
    """The mutation data of the pair (i, j), with its star lists and flags."""
    return build_wf(A, i, j, classify(A, i, j))


def tropical_map(q: LatticePoint, D: MutationData) -> LatticePoint:
    """q - min(0, <q, f>) * w; the identity where q pairs nonnegatively
    with f, a shear by w where it pairs negatively."""
    value = pair(q, D.f)
    if value >= 0:
        return lattice_point(q)
    return add(q, scale(-value, D.w))


def expected_flip(L: MatchingField, i: int, j: int, R: RegionAssignment) -> MatchingField:
    """The field after the swap, predicted from the red group: each
    triple {i, j, k} with k red swaps its first two rows."""
    assignment = dict(L.assignment)
    for k in sorted(R.group(Region.RED)):
        T = tuple(sorted((i, j, k)))
        if assignment[T] != (j, i, k):
            raise PatternMismatch(k)
        assignment[T] = (i, j, k)
    return MatchingField(L.n, assignment)


def _landing_gap(A: Arrangement, j: int) -> int:
    """Room right of line j's apex for line i to land in, on A's int scale:
    the x distance to the next apex in x order, or D when j is rightmost."""
    order = x_order(A)
    pos = order.index(j) + 1
    return A.xs[order[pos] - 1] - A.xs[j - 1] if pos < A.n else A.D


def _triples_through(i: int, n: int):
    """The C(n-1, 2) sorted triples of columns 1..n that contain i."""
    others = [c for c in range(1, n + 1) if c != i]
    return ((i, a, b) if i < a else (a, i, b) if i < b else (a, b, i)
            for a, b in itertools.combinations(others, 2))


def _offset_interval(xs, ys, i: int, expected: MatchingField,
                     gap: int) -> int:
    """hi such that the offsets eps in (0, gap) for which moving line i's
    apex x from xs[i - 1] to xs[i - 1] + eps gives every triple through i
    its expected tableau as the unique minimum are the open interval
    (0, hi), empty when hi <= 0.  xs, ys, gap and hi are apex ints on one
    scale, and the weight differences d of xs[c2] + ys[c3] are too.

    No bound lies above 0 when xs is A.xs with line i moved right onto
    line j's x (by a_j - a_i > 0) and expected is expected_flip, as in
    _swap_core.  A lower bound -d comes only from a placement t with i
    in row 2 whose expected tableau e lacks it.  Off the red flips e is
    induce(M)'s and the move adds a_j - a_i to w(t) only, so d > 0.  For
    a red k, e = (i, j, k): t = (j, i, k) has d = 0 and t = (k, i, j)
    has d = b_j - b_k > 0, as a red apex lies below j's (case ONE:
    b_k < b_i + a_k - a_i < b_j; case TWO: b_k < a_k + b_j - a_i < b_j).
    _recheck still checks the landed matrix."""
    hi = gap
    xs, ys = (0, *xs), (0, *ys)   # indexed by column
    for T in _triples_through(i, len(xs) - 1):
        _, e1, e2 = expected.assignment[T]
        we, e_has_i = xs[e1] + ys[e2], e1 == i
        for _, t1, t2 in itertools.permutations(T):
            if t1 == e1 and t2 == e2:
                continue
            d = xs[t1] + ys[t2] - we
            if (t1 == i) == e_has_i:
                if d <= 0:
                    return 0
            elif e_has_i and d < hi:
                hi = d
    return hi


def _recheck(A2: Arrangement, i: int, expected: MatchingField) -> bool:
    """Whether every triple through i has its expected tableau as the
    unique minimum on the apex ints of A2.  When A2's source differs
    from M only in column i and expected equals induce(M) on the triples
    without i, this is exactly induce(A2.source) == expected: those
    triples keep all six weights."""
    return all(tab == expected[T] for T, _, tab in
               _minima(A2.xs, A2.ys, _triples_through(i, A2.n)))


def _transposed(order: tuple, i: int, j: int) -> tuple:
    """The x order with lines i and j transposed."""
    return tuple(j if c == i else i if c == j else c for c in order)


def swap(M: WeightMatrix, i: int, j: int):
    """Move line i's apex horizontally to just past line j's.

    The landing offset eps is the largest gap/2^k (k >= 1) for which
    the induced field equals the red-flip prediction.  Raising entry
    (2, i) by eps adds eps to the weight of every placement with i in
    row 2, so per triple through i the prediction holds on an open
    interval of eps read off the weights at eps = 0; triples without i
    keep their tableaux, and every candidate keeps i strictly between j
    and the next apex, so the x order is the old one with i and j
    transposed.  A fixed landing spot can silently flip extra triples by
    crossing other lines' rays; the field check makes the hypothesis
    executable, and the accepted matrix is checked once more: the
    triples through i from scratch, and x_order.  Returns (M2, eps);
    certify runs the same search on the field, apexes and regions it
    already holds.  A pair that is not two distinct lines of M raises
    NotAdjacent, as in classify.
    """
    A = apexes(M)
    _check_pair(A.n, i, j)
    L = induce(M)
    x_order(A)   # TiedX before the left-right check
    if not A.xs[i - 1] < A.xs[j - 1]:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    return _swap_core(L, A, classify(A, i, j))[:2]


def _swap_core(L: MatchingField, A: Arrangement, R: RegionAssignment):
    """swap's search on the caller's state: L = induce(M), the apexes A
    of M = A.source and the regions R of the pair (i left of j).  Returns
    (M2, eps, L2); the field L2 (the red-flip prediction) and M2's x
    order, M's with i and j transposed, are re-checked, the field by
    _recheck.  gap and hi are ints on A's scale D, and the largest
    gap/2^k below hi has k = bit length of gap // hi (k >= 1: hi <= gap)."""
    M, i, j = A.source, R.i, R.j
    expected = expected_flip(L, i, j, R)
    gap = _landing_gap(A, j)
    xs = A.xs[:i - 1] + (A.xs[j - 1],) + A.xs[i:]   # line i onto j's x
    hi = _offset_interval(xs, A.ys, i, expected, gap)
    if hi <= 0:
        raise NotSwappable("no landing offset in (0, %s) realizes the swap of "
                           "lines %d and %d" % (Fraction(gap, A.D), i, j))
    eps = Fraction(gap, A.D << (gap // hi).bit_length())
    M2 = M.with_entry(2, i, M.entry(1, i) + A.apex(j)[0] + eps)
    A2 = apexes(M2)
    if not (_recheck(A2, i, expected)
            and x_order(A2) == _transposed(x_order(A), i, j)):
        raise AssertionError("offset %s for lines %d and %d fails "
                             "the field re-check" % (eps, i, j))
    return M2, eps, expected


def _cube(u: Tableau, v: Tableau):
    """The tuples t with t[r] in {u[r], v[r]} in every row, in sorted
    order, each with its antipode t2 (t + t2 = u + v rowwise).  They are
    the vertices of a d-cube, d the number of rows where u and v differ,
    and the midpoint of u and v is its centre."""
    rows = ((a, b) if a < b else (b, a) if b < a else (a,) for a, b in zip(u, v))
    s0, s1, s2 = u[0] + v[0], u[1] + v[1], u[2] + v[2]
    for t in itertools.product(*rows):
        yield t, (s0 - t[0], s1 - t[1], s2 - t[2])


def _f_split(P: VertexSet, f: LatticePoint) -> tuple:
    """The tableaux of P with f-value -1, 0 and +1, as three lists in P's
    order (sorted for a VertexSet); SlabViolation on any other value."""
    groups = {-1: [], 0: [], 1: []}
    f1, f2, f3 = f
    for t in P:
        value = f1[t[0] - 1] + f2[t[1] - 1] + f3[t[2] - 1]
        if value not in groups:
            raise SlabViolation("vertex %r pairs to %s" % (t, value))
        groups[value].append(t)
    return groups[-1], groups[0], groups[1]


def witness_table(P: VertexSet, D: MutationData) -> list:
    """Witness search for every (f = -1, f = +1) vertex pair.

    Tries the row-swap pattern named by the +1 vertex's third row (row-1
    swap unless the third row is j, then row-2 swap), then searches all
    pairs of f-value-0 vertices summing to u + v.  A 'none' entry is
    reported but is not by itself a refutation; the midpoint batteries
    are the decisive test.
    """
    return list(_witnesses(*_f_split(P, D.f), D))


def _witnesses(neg: list, zero: list, pos: list, D: MutationData):
    """The entries of witness_table on the f-value split of the vertices,
    one at a time."""
    zero_set = set(zero)
    for u in neg:
        for v in pos:
            kind = "case2" if v[2] == D.i else "case3" if v[2] == D.j else "case1"
            if kind == "case3":
                t, t2 = (u[0], v[1], u[2]), (v[0], u[1], v[2])
            else:
                t, t2 = (v[0], u[1], u[2]), (u[0], v[1], v[2])
            if t in zero_set and t2 in zero_set:
                yield WitnessEntry(u, v, kind, t, t2)
                continue
            for t, t2 in _cube(u, v):
                if t in zero_set and t2 in zero_set:
                    yield WitnessEntry(u, v, "search", t, t2)
                    break
            else:
                yield WitnessEntry(u, v, "none", None, None)


def _images(P: VertexSet, neg: list, i: int, j: int) -> list:
    """(t, image) for every tableau t of P under the tropical map of the
    pair (i, j), read off the f-value split.  The slab check leaves
    f-value -1 the only sheared case, where t + w is the tableau
    (i, j, t[2]) when t places j over i and no tableau (None) otherwise;
    every other vertex is fixed.  tropical_map is the general map."""
    sheared = set(neg)
    return [(t, t if t not in sheared
             else (i, j, t[2]) if t[:2] == (j, i) else None) for t in P]


def _midpoint_combination(u: Tableau, v: Tableau, P: VertexSet) -> list | None:
    """Int weights out of 4 on tableaux of P that combine to the midpoint
    of u and v, or None when its hull holds no such combination.

    A vertex with its 1 where the midpoint is 0 gets weight 0, so only
    the cube tableaux of (u, v) can carry weight, and the midpoint is the
    cube's centre.  The centre lies in the hull of the present cube
    vertices iff they hold an antipodal pair (weights 2, 2) or, for
    d = 3, one whole parity class, a tetrahedron centred on the centre
    (weights 1 each); a parity class of the d-cube has 2^(d-1) vertices.
    """
    points, classes = P.points, ([], [])
    for t, t2 in _cube(u, v):
        if t in points:
            if t2 in points:
                return [(t, 2), (t2, 2)]
            flips = (t[0] != u[0]) + (t[1] != u[1]) + (t[2] != u[2])
            classes[flips % 2].append(t)
    for group in classes:
        if len(group) == 4:
            return [(t, 1) for t in group]
    return None


def _separator(u: Tableau, v: Tableau, P: VertexSet) -> tuple:
    """For a cube-rule "no", int 3 x n rows y and a constant y0: y.p + y0
    is y0 at the midpoint of u and v, and is meant to be <= 0 on conv(P).
    Cube tableau t of P gives s_r = [t[r] == u[r]] - [t[r] == v[r]]; a is
    the sum of these s and y0 the least a.s (1 without any).  y is -a_r
    on (r, u[r]), a_r on (r, v[r]) and -(y0 + sum |a_r|) elsewhere, so a
    cube tableau gets y0 - a.s <= 0 and any other tableau at most 0."""
    signs = [[(t[r] == u[r]) - (t[r] == v[r]) for r in range(3)]
             for t, _ in _cube(u, v) if t in P.points]
    a = [sum(s[r] for s in signs) for r in range(3)]
    y0 = min((sum(x * y for x, y in zip(a, s)) for s in signs), default=1)
    y = [[-y0 - sum(map(abs, a))] * P.n for _ in range(3)]
    for r in range(3):
        y[r][u[r] - 1], y[r][v[r] - 1] = -a[r], a[r]
    return y, y0


def _midpoint_in_hull(u: Tableau, v: Tableau, P: VertexSet) -> bool:
    """Whether the midpoint of u and v lies in conv(P).  A "yes" of the
    cube rule is substituted back in ints: positive weights summing to 4
    on tableaux of P, and in every row r four times the midpoint's column
    masses, 2 on u[r] and 2 on v[r].  A "no" is proved by _separator:
    twice its value at the midpoint is positive, at every tableau of P at
    most 0."""
    combo = _midpoint_combination(u, v, P)
    if combo is None:
        y, y0 = _separator(u, v, P)
        if (sum(y[r][u[r] - 1] + y[r][v[r] - 1] for r in range(3)) + 2 * y0 <= 0
                or any(sum(y[r][c - 1] for r, c in enumerate(t)) + y0 > 0
                       for t in P.points)):
            raise AssertionError("midpoint of %r and %r: the cube rule finds "
                                 "no combination, and its separator fails"
                                 % (u, v))
        return False
    ok = (sum(w for _, w in combo) == 4
          and all(w > 0 and t in P.points for t, w in combo))
    for r in range(3):
        mass, want = {}, {u[r]: 2}
        want[v[r]] = want.get(v[r], 0) + 2
        for t, w in combo:
            mass[t[r]] = mass.get(t[r], 0) + w
        ok = ok and mass == want
    if not ok:
        raise AssertionError("midpoint of %r and %r: combination %r does "
                             "not substitute back" % (u, v, combo))
    return True


def _battery(entries, P: VertexSet) -> list:
    """The pairs (u, v) of the witness entries, in order, whose midpoint
    lies outside conv(P): a witness pair in P is a "yes" (t + t2 = u + v
    row by row, weights 2 and 2), any other pair goes to _midpoint_in_hull."""
    return [(e.u, e.v) for e in entries
            if not (e.t in P.points and e.t2 in P.points)
            and not _midpoint_in_hull(e.u, e.v, P)]


def _vertex_facts(D: MutationData, L: MatchingField,
                  L2: MatchingField | None) -> dict:
    """The witnesses from the field L before the swap and, once it landed
    on L2 (L with the diff), the images and batteries, as certificate
    fields (for certify and the reader).  V2 shares V's f = 0 and +1
    lists, so k4 takes the afters as u's: any other u is in V too."""
    V = vertices(L)
    neg, zero, pos = _f_split(V, D.f)
    witnesses = list(_witnesses(neg, zero, pos, D))
    if L2 is None:
        return {"witnesses": witnesses}
    afters = [(D.i, D.j, k) for k in D.red]
    return {"witnesses": witnesses, "images": _images(V, neg, D.i, D.j),
            "k3_failures": _battery(witnesses, vertices(L2)),
            "k4_failures": _battery(_witnesses(afters, zero, pos, D), V)}


def matrix_digest(M: WeightMatrix) -> str:
    return hashlib.sha256(M.text.encode()).hexdigest()


def certify(M: WeightMatrix, i: int, j: int, *,
            field: MatchingField | None = None) -> MutationCertificate:
    """Run the whole pipeline for one adjacent pair and record everything.

    The pair is reoriented so i is the left line.  Early failures
    (genericity, adjacency, boundary apexes, unswappable pairs) yield
    INAPPLICABLE certificates carrying whatever was computed by then.
    Each fact is derived once: induce and the x order per matrix (a
    TieError is the genericity verdict), one classification, for the
    regions and their groups, and, after the swap attempt, one f-value
    split in _vertex_facts.  A caller that holds induce(M) passes it as
    field (plan_to_order passes the field the previous step's re-check
    proved), and certify makes no induce.  Each
    stop is raised only by its stage: the landing offset lies in a
    tie-free open interval.
    """
    _check_pair(M.n, i, j, ValueError)
    stop = case = D = M2 = L2 = None
    order = ()
    try:
        L = induce(M) if field is None else field
        A = apexes(M)
        order = x_order(A)
        i, j = _left_first(A, i, j)
        R = classify(A, i, j)
        case = R.case.value
        D = build_wf(A, i, j, R)
        M2, _, L2 = _swap_core(L, A, R)
    except TieError as e:
        stop = "not generic: %s" % e
    except (TiedX, NotAdjacent, Boundary, NotSwappable, PatternMismatch) as e:
        stop = str(e)
    return MutationCertificate(
        digest=matrix_digest(M), n=M.n, i=i, j=j, stop=stop, case=case,
        matrix_after=M2, order_before=order, data=D,
        **({} if D is None else _vertex_facts(D, L, L2)))


# ---------------------------------------------------------------------------
# certificate text format

def _opt(value) -> str:
    return "-" if value is None else str(value)


def _ints(seq) -> str:
    return " ".join(map(str, seq)) or "-"


_VERDICTS = ("VERIFIED", "REFUTED", "INAPPLICABLE")
_KINDS = ("NOOP", "SHEAR", "MUTATION")
_CASES = ("ONE", "TWO", "-")
_FLAG_WORDS = {True: "pass", False: "fail", None: "-"}


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _matrix_lines(M: WeightMatrix | None, key: str) -> list:
    if M is None:
        return ["%s: -" % key]
    lines = ["%s:" % key]
    lines.extend("  " + ln for ln in M.text.splitlines())
    return lines


def _witness_line(e: WitnessEntry) -> str:
    if e.kind == "none":
        return "%d %d %d | %d %d %d : none" % (e.u + e.v)
    return ("%d %d %d | %d %d %d : %s : %d %d %d + %d %d %d"
            % (e.u + e.v + (e.kind,) + e.t + e.t2))


def certificate_to_text(c: MutationCertificate) -> str:
    out = ["CERTIFICATE",
           "version: 1",
           "digest: %s" % c.digest,
           "n: %d" % c.n,
           "pair: %d %d" % (c.i, c.j),
           "case: %s" % _opt(c.case),
           "kind: %s" % _opt(c.kind),
           "verdict: %s" % c.verdict,
           "reason: %s" % _opt(c.reason),
           "STAR"]
    s = c.data
    out.append("present: %s" % _bool(s is not None))
    if s is not None:
        out += ["%s: %s" % (k, _bool(getattr(s, k)))
                for k in ("a", "b", "c", "d", "overall")]
        out += ["red: %s" % _ints(s.red),
                "blue-olive: %s" % _ints(s.blue_olive),
                "yellow-green: %s" % _ints(s.yellow_green),
                "red-purple: %s" % _ints(s.red_purple)]
    out.append("SWAP")
    out.append("epsilon: %s" % _opt(c.epsilon))
    out.append("order-before: %s" % _ints(c.order_before))
    out.append("order-after: %s" % _ints(c.order_after or ()))
    out.extend(_matrix_lines(c.matrix_after, "matrix-after"))
    out.append("WF")
    out.append("present: %s" % _bool(c.data is not None))
    if c.data is not None:
        out.append("group-1: %s" % _ints(sorted(c.data.group_red)))
        out.append("group-2: %s" % _ints(sorted(c.data.group_two)))
        out.append("group-3: %s" % _ints(sorted(c.data.group_three)))
        for key, rows in (("w", c.data.w), ("f", c.data.f)):
            out.append("%s:" % key)
            out.extend("  " + " ".join(map(str, row)) for row in rows)
    out.append("DIFF")
    out.append("count: %d" % len(c.diff))
    for T, before, after in c.diff:
        out.append("%d %d %d : %d %d %d -> %d %d %d" % (T + before + after))
    out.append("IMAGES")
    out.append("count: %d" % len(c.images))
    out.extend("%d %d %d -> *" % src if dst is None
               else "%d %d %d -> %d %d %d" % (src + dst) for src, dst in c.images)
    out.append("CHECKS")
    out.append("k1-slab: %s" % _FLAG_WORDS[c.k1])
    out.append("k2-vertex-image: %s" % _FLAG_WORDS[c.k2])
    for k, way, flag, failures in (("k3", "forward", c.k3, c.k3_failures),
                                   ("k4", "backward", c.k4, c.k4_failures)):
        out.append("%s-%s-midpoints: %s" % (k, way, _FLAG_WORDS[flag]))
        out.append("%s-fail-count: %d" % (k, len(failures)))
        out.extend("%s-fail: %d %d %d | %d %d %d" % ((k,) + u + v)
                   for u, v in failures)
    out.append("WITNESSES")
    out.append("present: %s" % _bool(c.witnesses is not None))
    if c.witnesses is not None:
        out.append("count: %d" % len(c.witnesses))
        out.extend(map(_witness_line, c.witnesses))
    out.append("END")
    return "\n".join(out) + "\n"


def _parse_ints(text: str) -> tuple:
    if text == "-":
        return ()
    return tuple(map(int, text.split()))


def _table_from_lines(lines: list, D: MutationData) -> list:
    """The table _witnesses writes for D on the sorted distinct u's, v's
    and witnesses that lines name, tableaux on 1..n of f-values -1, +1
    and 0; ValueError unless it writes lines back.  At most one entry
    more than lines is built."""
    us, vs, pairs = set(), set(), set()
    for ln in lines:
        ints = [int(t) for t in ln.split() if t.lstrip("-").isdigit()]
        tabs = [tuple(ints[k:k + 3]) for k in range(0, len(ints), 3)]
        us.update(tabs[:1])
        vs.update(tabs[1:2])
        pairs.update(tabs[2:])
    neg, zero, pos = sorted(us), sorted(pairs), sorted(vs)
    if not (all(len(set(t)) == 3 and 0 < min(t) <= max(t) <= D.n
                for t in neg + zero + pos)
            and _f_split(neg + zero + pos, D.f) == (neg, zero, pos)):
        raise ValueError("witness lines must name u's, v's and witnesses "
                         "on 1..%d of f-values -1, +1 and 0" % D.n)
    table = list(itertools.islice(_witnesses(neg, zero, pos, D),
                                  len(lines) + 1))
    if list(map(_witness_line, table)) != lines:
        raise ValueError("witness lines are not the table the witness "
                         "search writes")
    return table


def _value(lines: list, key: str) -> str:
    """The value of the first line that carries key."""
    for ln in lines:
        if ln.startswith(key + ":"):
            return ln[len(key) + 1:].strip()
    raise ValueError("no %r line" % key)


def _after(lines: list, literal: str, count: int) -> list:
    """The count lines after the first line that reads literal."""
    at = lines.index(literal) + 1 if literal in lines else len(lines) + 1
    if not 0 <= count <= len(lines) - at:
        raise ValueError("no %d lines after a %r line" % (count, literal))
    return lines[at:at + count]


def _read_matrix(lines: list, key: str) -> WeightMatrix:
    """The indented "3 n" block that _matrix_lines writes under key."""
    return weight_matrix_from_text("\n".join(_after(lines, key + ":", 4)))


def _read_certificate(text: str) -> MutationCertificate:
    """The digest, n, pair, case, stop reason, order-before, matrix-after,
    groups and, without a matrix-after, witness table (_table_from_lines)
    of a certificate text, each by its key's first line; the w rows only
    for their width.  The rest is left to parse_certificate's re-write.

    certify sets the case and the groups together, so the groups are
    read exactly when the case is ONE or TWO: a group-less ONE or TWO
    finds no group line, and a - beside groups is written back without
    them.  certify writes order-before empty (a stop before the x
    order) or as the x order, i left of j, right next to it once the
    pair has groups."""
    lines = text.splitlines()
    n = int(_value(lines, "n"))
    i, j = (int(t) for t in _value(lines, "pair").split())
    _check_pair(n, i, j, ValueError)
    case = _value(lines, "case")
    if case not in _CASES:
        raise ValueError("unknown case %r" % case)
    order = _parse_ints(_value(lines, "order-before"))
    reason = _value(lines, "reason")
    matrix_after = stop = data = witnesses = None
    if _value(lines, "matrix-after") != "-":
        matrix_after = _read_matrix(lines, "matrix-after")
    elif reason != "-":
        stop = reason
    else:
        raise ValueError("certificate has neither a matrix-after nor a reason")
    if case != "-":
        g1, g2, g3 = (frozenset(_parse_ints(_value(lines, "group-%d" % k)))
                      for k in (1, 2, 3))
        union = g1 | g2 | g3
        if (len(g1) + len(g2) + len(g3) != len(union)
                or not all(1 <= c <= n and c not in (i, j) for c in union)):
            raise ValueError("groups must be disjoint subsets of 1..%d "
                             "without %d and %d" % (n, i, j))
        if any(len(row.split()) != n for row in _after(lines, "w:", 3)):
            raise ValueError("w and f rows must have %d entries" % n)
        data = MutationData(n=n, i=i, j=j, group_red=g1, group_two=g2,
                            group_three=g3)
        if matrix_after is None:
            count = int(_value(_after(lines, "WITNESSES", 2), "count"))
            witnesses = _table_from_lines(
                _after(lines, "WITNESSES", 2 + count)[2:], data)
    if (order or data) and not (
            len(order) == n and sorted(order) == list(range(1, n + 1)) and
            0 < order.index(j) - order.index(i) <= (1 if data else n)):
        raise ValueError("order-before must be empty or a permutation of "
                         "1..%d with %d left of %d, next to it when the "
                         "groups are present" % (n, i, j))
    return MutationCertificate(digest=_value(lines, "digest"), n=n, i=i, j=j,
                               stop=stop, case=None if case == "-" else case,
                               matrix_after=matrix_after, order_before=order,
                               data=data, witnesses=witnesses)


def _landed_fields(cert: MutationCertificate) -> tuple:
    """(L, L2): the field L2 matrix-after induces, and L, L2 with each diff
    after put back to its before.  ValueError unless matrix-after swapped
    the pair: its x order is order-before on 1..n with i and j transposed,
    its case ONE when j's apex is higher than i's, else TWO (a swap keeps
    the heights), and L2 holds every after.  The groups are then present,
    as _read_certificate reads them beside every case."""
    i, j = cert.i, cert.j
    A = apexes(cert.matrix_after)
    if A.n != cert.n or x_order(A) != cert.order_after:
        raise ValueError("matrix-after's x order is not order-before on 1..%d"
                         " with lines %d and %d transposed" % (cert.n, i, j))
    yi, yj = A.ys[i - 1], A.ys[j - 1]
    if yi == yj or cert.case != _case(yi, yj).value:
        raise ValueError("case %s is not that of the apex heights of lines "
                         "%d and %d in matrix-after" % (_opt(cert.case), i, j))
    # not induce: perfbench traces it, and fails if reading moves a count
    L2 = _induce(A.xs, A.ys, A.n)
    unflipped = dict(L2.assignment)
    for T, before, after in cert.diff:
        if L2[T] != after:
            raise ValueError("matrix-after does not place %d over %d on "
                             "red triple %d %d %d" % (i, j, *T))
        unflipped[T] = before
    return MatchingField(A.n, unflipped), L2


def _check_written(text: str, written: str) -> None:
    """ValueError naming the first line where text differs from what the
    writer gives back for the object read from it, and the plan step
    whose block holds that line."""
    if text == written:
        return
    got, want = text.splitlines(True), written.splitlines(True)
    k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    step = sum(ln.startswith("STEP ") for ln in got[:k])
    where = ("plan step %d, " % step if step and "SUMMARY\n" not in got[:k]
             else "")
    raise ValueError("%sline %d reads %r but is written back as %r"
                     % (where, k + 1, "".join(got[k:k + 1]),
                        "".join(want[k:k + 1])))


def parse_certificate(text: str) -> MutationCertificate:
    """Inverse of certificate_to_text: ValueError unless text is exactly
    what certificate_to_text writes for the certificate read from it.  A
    landed swap's vertex facts, its witness lines too, are recomputed from
    the fields before and after it (_landed_fields), not read."""
    cert = _read_certificate(text)
    if cert.matrix_after is not None:
        cert = replace(cert, **_vertex_facts(cert.data, *_landed_fields(cert)))
    _check_written(text, certificate_to_text(cert))
    return cert
