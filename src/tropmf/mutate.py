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
of eps, read off in one pass over the triples through i; the offset is
the largest gap/2^k inside it, and the accepted matrix is re-checked
with induce and x_order.  certify works in one pass: one induce per
matrix, one classification (regions and star report) on certify's x
order, the swap search on that state, and one f-value split per vertex
set.

The k2 images and k3/k4 batteries are decided on tableaux.  A vertex
with f-value -1 is the only sheared one, and its image is (i, j, t3)
when it places j over i, else no tableau.  The midpoint of tableaux u
and v is the centre of the cube of tuples t with t[r] in {u[r], v[r]},
and lies in a vertex hull iff the hull's cube vertices hold an antipodal
pair or (three differing rows) a whole parity class; that explicit
combination is substituted back and checked.  The LP oracle member
stays the general test and decides only the rare "no", which its
checked Farkas vector must confirm.

A certificate's text has one writer, certificate_to_text, and one
reader, parse_certificate, which accepts only the exact bytes the writer
gives back for what it read (plan files read their steps the same way).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .arrange import Arrangement, TiedX, apexes, x_order
from .mfcore import (MatchingField, Tableau, TieError, WeightMatrix,
                     _rational, induce, mf_diff, placement_weight,
                     weight_matrix_from_text, weight_matrix_to_text)
from .mfcore import genericity  # noqa: F401  unused; perfbench traces this name
from .polytope import (LatticePoint, VertexSet, add, lattice_point, member,
                       midpoint, pair, scale, vertex_of, vertices)
from .regions import (Boundary, NotAdjacent, Region, RegionAssignment,
                      StarReport, _classify, _star_report)
from .regions import classify  # noqa: F401  unused; perfbench traces this name
from .regions import star  # noqa: F401  unused; perfbench traces this name


_HALF = Fraction(1, 2)


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
    """The pair (w, f) plus the region groups behind f."""

    i: int
    j: int
    w: LatticePoint
    f: LatticePoint
    group_red: frozenset
    group_two: frozenset
    group_three: frozenset


@dataclass(frozen=True)
class WitnessEntry:
    u: Tableau
    v: Tableau
    kind: str            # case1 / case2 / case3 / search / none
    t: Tableau | None
    t2: Tableau | None


@dataclass
class MutationCertificate:
    digest: str
    n: int
    i: int
    j: int
    verdict: str                      # VERIFIED / REFUTED / INAPPLICABLE
    reason: str | None = None
    case: str | None = None
    kind: str | None = None
    star: StarReport | None = None
    epsilon: Fraction | None = None
    matrix_after: WeightMatrix | None = None
    order_before: tuple | None = None
    order_after: tuple | None = None
    data: MutationData | None = None
    diff: list = field(default_factory=list)
    images: list = field(default_factory=list)
    k1: bool | None = None
    k2: bool | None = None
    k3: bool | None = None
    k3_failures: list = field(default_factory=list)
    k4: bool | None = None
    k4_failures: list = field(default_factory=list)
    witnesses: list | None = None


def build_wf(A: Arrangement, i: int, j: int, R: RegionAssignment) -> MutationData:
    """Mutation data from a finished region classification."""
    n = A.n
    group_red = R.group(Region.RED)
    group_two = R.group(Region.GREEN, Region.YELLOW)
    group_three = R.group(Region.PURPLE)
    wrows = [[0] * n for _ in range(3)]
    wrows[0][i - 1], wrows[1][i - 1] = 1, -1
    wrows[0][j - 1], wrows[1][j - 1] = -1, 1
    frows = [[0] * n for _ in range(3)]
    for k in group_two:
        frows[0][k - 1] = 1
        frows[1][k - 1] = -1
    frows[1][i - 1] = -1
    frows[1][j - 1] = -1
    return MutationData(i=i, j=j, w=lattice_point(wrows), f=lattice_point(frows),
                        group_red=group_red, group_two=group_two,
                        group_three=group_three)


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
        tab = assignment[T]
        if not (tab[0] == j and tab[1] == i):
            raise PatternMismatch(k)
        assignment[T] = (i, j, tab[2])
    return MatchingField(L.n, assignment)


def _landing_gap(A: Arrangement, order: tuple, j: int) -> Fraction:
    """Room right of line j's apex for line i to land in: the x distance
    to the next apex in x order, or 1 when j is rightmost."""
    pos = order.index(j)
    if pos + 1 < A.n:
        return A.apex(order[pos + 1])[0] - A.apex(j)[0]
    return Fraction(1)


def _offset_interval(M0: WeightMatrix, i: int, expected: MatchingField,
                     gap: Fraction):
    """Open interval (lo, hi) within (0, gap) of the offsets eps for
    which raising entry (2, i) of M0 by eps gives every triple through i
    its expected tableau as the unique minimum; empty (lo == hi) when a
    triple rules out every eps."""
    lo, hi = Fraction(0), gap
    others = [c for c in range(1, M0.n + 1) if c != i]
    for a, b in itertools.combinations(others, 2):
        T = tuple(sorted((i, a, b)))
        e = expected[T]
        we = placement_weight(M0, e)
        for t in itertools.permutations(T):
            if t == e:
                continue
            d = placement_weight(M0, t) - we
            if (t[1] == i) == (e[1] == i):
                if d <= 0:
                    return lo, lo
            elif e[1] == i:
                hi = min(hi, d)
            else:
                lo = max(lo, -d)
    return lo, hi


def swap(M: WeightMatrix, i: int, j: int):
    """Move line i's apex horizontally to just past line j's.

    The landing offset eps is the largest gap/2^k (k = 1..64) for which
    the induced field equals the red-flip prediction.  Raising entry
    (2, i) by eps adds eps to the weight of every placement with i in
    row 2, so per triple through i the prediction holds on an open
    interval of eps read off the weights at eps = 0; triples without i
    keep their tableaux, and every candidate keeps i strictly between j
    and the next apex, so the x order is the old one with i and j
    transposed.  A fixed landing spot can silently flip extra triples by
    crossing other lines' rays; the field check makes the hypothesis
    executable, and the accepted matrix is checked once more with
    induce and x_order.  Returns (M2, eps); certify runs the same
    search on the field, apexes and regions it already holds.
    """
    L = induce(M)
    A = apexes(M)
    order = x_order(A)
    if not A.apex(i)[0] < A.apex(j)[0]:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    if order.index(j) != order.index(i) + 1:
        raise NotAdjacent("lines %d and %d are not adjacent" % (i, j))
    return _swap_core(M, L, A, order, _classify(A, order, i, j), i, j)[:2]


def _swap_core(M: WeightMatrix, L: MatchingField, A: Arrangement,
               order: tuple, R: RegionAssignment, i: int, j: int):
    """swap's search on the caller's state for the adjacent pair (i left
    of j).  Returns (M2, eps, L2, order2); the field L2 (the red-flip
    prediction) and the transposed order2 are both re-checked on M2."""
    expected = expected_flip(L, i, j, R)
    gap = _landing_gap(A, order, j)
    pi = order.index(i)
    target = order[:pi] + (j, i) + order[pi + 2:]
    base = M.entry(1, i) + A.apex(j)[0]
    lo, hi = _offset_interval(M.with_entry(2, i, base), i, expected, gap)
    eps = gap
    for _ in range(64):
        eps = eps / 2
        if lo < eps < hi:
            M2 = M.with_entry(2, i, base + eps)
            try:
                ok = induce(M2) == expected and x_order(apexes(M2)) == target
            except TieError:
                ok = False
            if not ok:
                raise AssertionError("offset %s for lines %d and %d fails "
                                     "the field re-check" % (eps, i, j))
            return M2, eps, expected, target
    raise NotSwappable("no landing offset in (0, %s) realizes the swap of "
                       "lines %d and %d" % (gap, i, j))


def _cube(u: Tableau, v: Tableau):
    """The tuples t with t[r] in {u[r], v[r]} in every row, in sorted
    order, each with its antipode t2 (t + t2 = u + v rowwise).  They are
    the vertices of a d-cube, d the number of rows where u and v differ,
    and the midpoint of u and v is its centre."""
    for t in itertools.product(*(sorted({a, b}) for a, b in zip(u, v))):
        yield t, tuple(b if c == a else a for a, b, c in zip(u, v, t))


def _f_split(P: VertexSet, f: LatticePoint) -> tuple:
    """The tableaux of P with f-value -1, 0 and +1, as three sorted
    lists; SlabViolation on any other value."""
    groups = {-1: [], 0: [], 1: []}
    for t in P:
        value = f[0][t[0] - 1] + f[1][t[1] - 1] + f[2][t[2] - 1]
        if value not in groups:
            raise SlabViolation("vertex %r pairs to %s" % (t, value))
        groups[value].append(t)
    return groups[-1], groups[0], groups[1]


def witness_table(P: VertexSet, D: MutationData, R: RegionAssignment) -> list:
    """Witness search for every (f = -1, f = +1) vertex pair.

    Tries the row-swap pattern named by the +1 vertex's third row (row-1
    swap unless the third row is j, then row-2 swap), then searches all
    pairs of f-value-0 vertices summing to u + v.  A 'none' entry is
    reported but is not by itself a refutation; the midpoint batteries
    are the decisive test.
    """
    return _witnesses(*_f_split(P, D.f), D)


def _witnesses(neg: list, zero: list, pos: list, D: MutationData) -> list:
    """witness_table on the f-value split of the vertices."""
    zero_set = set(zero)
    entries = []
    for u in neg:
        for v in pos:
            kind = "case2" if v[2] == D.i else "case3" if v[2] == D.j else "case1"
            if kind == "case3":
                t, t2 = (u[0], v[1], u[2]), (v[0], u[1], v[2])
            else:
                t, t2 = (v[0], u[1], u[2]), (u[0], v[1], v[2])
            if t in zero_set and t2 in zero_set:
                entries.append(WitnessEntry(u, v, kind, t, t2))
                continue
            for t, t2 in _cube(u, v):
                if t in zero_set and t2 in zero_set:
                    entries.append(WitnessEntry(u, v, "search", t, t2))
                    break
            else:
                entries.append(WitnessEntry(u, v, "none", None, None))
    return entries


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
    """Weights on tableaux of P that combine to the midpoint of u and v,
    or None when its hull holds no such combination.

    A vertex with its 1 where the midpoint is 0 gets weight 0, so only
    the cube tableaux of (u, v) can carry weight, and the midpoint is the
    cube's centre.  The centre lies in the hull of the present cube
    vertices iff they hold an antipodal pair (weights 1/2, 1/2) or, for
    d = 3, one whole parity class, a tetrahedron centred on the centre
    (weights 1/4 each); a parity class of the d-cube has 2^(d-1) vertices.
    """
    classes = ([], [])
    for t, t2 in _cube(u, v):
        if t in P.points:
            if t2 in P.points:
                return [(t, _HALF), (t2, _HALF)]
            classes[sum(a != c for a, c in zip(u, t)) % 2].append(t)
    for group in classes:
        if len(group) == 4:
            return [(t, Fraction(1, 4)) for t in group]
    return None


def _midpoint_in_hull(u: Tableau, v: Tableau, P: VertexSet) -> bool:
    """Whether the midpoint of u and v lies in conv(P).  A "yes" of the
    cube rule is substituted back: positive weights summing to 1 on
    tableaux of P, and in every row r the midpoint's column masses, 1/2
    on u[r] and 1/2 on v[r].  A "no" is decided again by member, whose
    Farkas vector is checked, and must agree."""
    combo = _midpoint_combination(u, v, P)
    if combo is None:
        if member(midpoint(vertex_of(u, P.n), vertex_of(v, P.n)), P):
            raise AssertionError("midpoint of %r and %r: the cube rule "
                                 "finds no combination, the LP does" % (u, v))
        return False
    ok = (sum(w for _, w in combo) == 1
          and all(w > 0 and t in P.points for t, w in combo))
    for r in range(3):
        mass, want = {}, {u[r]: _HALF}
        want[v[r]] = want.get(v[r], 0) + _HALF
        for t, w in combo:
            mass[t[r]] = mass.get(t[r], 0) + w
        ok = ok and mass == want
    if not ok:
        raise AssertionError("midpoint of %r and %r: combination %r does "
                             "not substitute back" % (u, v, combo))
    return True


def _midpoint_failures(neg: list, pos: list, P: VertexSet) -> list:
    """The split pairs of tableaux (u, v) with midpoint outside conv(P)."""
    return [(u, v) for u in neg for v in pos if not _midpoint_in_hull(u, v, P)]


def _check_pair(n: int, i: int, j: int):
    """Raise ValueError unless i and j are two distinct columns of 1..n."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("bad pair (%d, %d) for %d columns" % (i, j, n))


def matrix_digest(M: WeightMatrix) -> str:
    return hashlib.sha256(weight_matrix_to_text(M).encode()).hexdigest()


def certify(M: WeightMatrix, i: int, j: int) -> MutationCertificate:
    """Run the whole pipeline for one adjacent pair and record everything.

    The pair is reoriented so i is the left line.  Early failures
    (genericity, adjacency, boundary apexes, unswappable pairs) yield
    INAPPLICABLE certificates carrying whatever was computed by then.
    Each fact is derived once: induce per matrix (a TieError is the
    genericity verdict), one classification on the x order already
    sorted, for the regions and the star report, and one f-value split
    per vertex set, from which the images and the cube-rule batteries
    are read.
    """
    _check_pair(M.n, i, j)
    cert = MutationCertificate(digest=matrix_digest(M), n=M.n, i=i, j=j,
                               verdict="INAPPLICABLE")
    try:
        L = induce(M)
    except TieError as e:
        cert.reason = "not generic: %s" % e
        return cert
    A = apexes(M)
    try:
        order = x_order(A)
    except TiedX as e:
        cert.reason = str(e)
        return cert
    if A.apex(i)[0] > A.apex(j)[0]:
        i, j = j, i
        cert.i, cert.j = i, j
    cert.order_before = order
    try:
        R = _classify(A, order, i, j)
    except (NotAdjacent, Boundary) as e:
        cert.reason = str(e)
        return cert
    cert.star = S = _star_report(R)
    cert.case = R.case.value
    cert.data = D = build_wf(A, i, j, R)
    V = vertices(L)
    neg, zero, pos = _f_split(V, D.f)
    cert.kind = ("NOOP" if not D.group_red
                 else "MUTATION" if neg and pos else "SHEAR")
    cert.k1 = True
    cert.witnesses = _witnesses(neg, zero, pos, D)
    try:
        cert.matrix_after, cert.epsilon, L2, cert.order_after = _swap_core(
            M, L, A, order, R, i, j)
    except (NotSwappable, PatternMismatch) as e:
        cert.reason = str(e)
        return cert
    cert.diff = mf_diff(L, L2)
    V2 = vertices(L2)
    cert.images = _images(V, neg, i, j)
    cert.k2 = {image for _, image in cert.images} == V2.points
    cert.k3_failures = _midpoint_failures(neg, pos, V2)
    cert.k3 = not cert.k3_failures
    neg2, _, pos2 = _f_split(V2, D.f)
    cert.k4_failures = _midpoint_failures(neg2, pos2, V)
    cert.k4 = not cert.k4_failures
    if cert.kind == "MUTATION" and not S.overall:
        cert.verdict = "INAPPLICABLE"
        cert.reason = "star condition fails for a two-sided swap"
    elif cert.k1 and cert.k2 and cert.k3 and cert.k4:
        cert.verdict = "VERIFIED"
    else:
        cert.verdict = "REFUTED"
    return cert


# ---------------------------------------------------------------------------
# certificate text format

def _opt(value) -> str:
    return "-" if value is None else str(value)


def _ints(seq) -> str:
    seq = list(seq)
    return " ".join(str(x) for x in seq) if seq else "-"


def _tab(t: Tableau | None) -> str:
    return "*" if t is None else "%d %d %d" % t


_FLAGS = {"pass": True, "fail": False}
_VERDICTS = ("VERIFIED", "REFUTED", "INAPPLICABLE")
_KINDS = ("NOOP", "SHEAR", "MUTATION")
_CASES = ("ONE", "TWO", "-")


def _flag(value: bool | None) -> str:
    if value is None:
        return "-"
    return "pass" if value else "fail"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _matrix_lines(M: WeightMatrix | None, key: str) -> list:
    if M is None:
        return ["%s: -" % key]
    lines = ["%s:" % key]
    lines.extend("  " + ln for ln in weight_matrix_to_text(M).splitlines())
    return lines


def _point_lines(p: LatticePoint, key: str) -> list:
    lines = ["%s:" % key]
    for row in p:
        lines.append("  " + " ".join(str(x) for x in row))
    return lines


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
           "STAR",
           "present: %s" % _bool(c.star is not None)]
    if c.star is not None:
        s = c.star
        out += ["a: %s" % _bool(s.a), "b: %s" % _bool(s.b),
                "c: %s" % _bool(s.c), "d: %s" % _bool(s.d),
                "overall: %s" % _bool(s.overall),
                "red: %s" % _ints(s.red),
                "blue-olive: %s" % _ints(s.blue_olive),
                "yellow-green: %s" % _ints(s.yellow_green),
                "red-purple: %s" % _ints(s.red_purple)]
    out.append("SWAP")
    out.append("epsilon: %s" % _opt(c.epsilon))
    out.append("order-before: %s" % (_ints(c.order_before) if c.order_before else "-"))
    out.append("order-after: %s" % (_ints(c.order_after) if c.order_after else "-"))
    out.extend(_matrix_lines(c.matrix_after, "matrix-after"))
    out.append("WF")
    out.append("present: %s" % _bool(c.data is not None))
    if c.data is not None:
        out.append("group-1: %s" % _ints(sorted(c.data.group_red)))
        out.append("group-2: %s" % _ints(sorted(c.data.group_two)))
        out.append("group-3: %s" % _ints(sorted(c.data.group_three)))
        out.extend(_point_lines(c.data.w, "w"))
        out.extend(_point_lines(c.data.f, "f"))
    out.append("DIFF")
    out.append("count: %d" % len(c.diff))
    for T, before, after in c.diff:
        out.append("%d %d %d : %s -> %s" % (T + (_tab(before), _tab(after))))
    out.append("IMAGES")
    out.append("count: %d" % len(c.images))
    for src, dst in c.images:
        out.append("%s -> %s" % (_tab(src), _tab(dst)))
    out.append("CHECKS")
    out.append("k1-slab: %s" % _flag(c.k1))
    out.append("k2-vertex-image: %s" % _flag(c.k2))
    out.append("k3-forward-midpoints: %s" % _flag(c.k3))
    out.append("k3-fail-count: %d" % len(c.k3_failures))
    for u, v in c.k3_failures:
        out.append("k3-fail: %s | %s" % (_tab(u), _tab(v)))
    out.append("k4-backward-midpoints: %s" % _flag(c.k4))
    out.append("k4-fail-count: %d" % len(c.k4_failures))
    for u, v in c.k4_failures:
        out.append("k4-fail: %s | %s" % (_tab(u), _tab(v)))
    out.append("WITNESSES")
    out.append("present: %s" % _bool(c.witnesses is not None))
    if c.witnesses is not None:
        out.append("count: %d" % len(c.witnesses))
        for e in c.witnesses:
            if e.kind == "none":
                out.append("%s | %s : none" % (_tab(e.u), _tab(e.v)))
            else:
                out.append("%s | %s : %s : %s + %s"
                           % (_tab(e.u), _tab(e.v), e.kind, _tab(e.t), _tab(e.t2)))
    out.append("END")
    return "\n".join(out) + "\n"


class _Reader:
    """The lines of a certificate or plan text, read front to back."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def take(self):
        if self.pos >= len(self.lines):
            raise ValueError("input ends after line %d" % self.pos)
        ln = self.lines[self.pos]
        self.pos += 1
        return ln

    def expect(self, literal):
        ln = self.take()
        if ln != literal:
            raise ValueError("expected %r, got %r" % (literal, ln))

    def value(self, key):
        ln = self.take()
        prefix = key + ":"
        if not ln.startswith(prefix):
            raise ValueError("expected key %r, got %r" % (key, ln))
        return ln[len(prefix):].strip()

    def word(self, key, words):
        """A value that must be one of the writer's words; "-" reads as None."""
        value = self.value(key)
        if value not in words:
            raise ValueError("unknown %s %r" % (key, value))
        return None if value == "-" else value

    def matrix(self) -> WeightMatrix:
        """The indented "3 n" block that _matrix_lines writes under its key."""
        return weight_matrix_from_text("\n".join(self.take() for _ in range(4)))

    def point(self, key) -> LatticePoint:
        self.value(key)
        return lattice_point([[_rational(t) for t in self.take().split()]
                              for _ in range(3)])


def _parse_triple(text: str) -> tuple:
    out = tuple(int(t) for t in text.split())
    if len(out) != 3:
        raise ValueError("expected three columns, got %r" % text)
    return out


def _parse_tab(text: str) -> Tableau | None:
    return None if text == "*" else _parse_triple(text)


def _parse_ints(text: str) -> tuple:
    if text == "-":
        return ()
    return tuple(int(t) for t in text.split())


def _read_certificate(rd: _Reader) -> MutationCertificate:
    """One certificate block, CERTIFICATE through END, from rd's position.
    Lines that the writer derives (version, overall) are skipped here and
    checked by the caller's re-write."""
    rd.expect("CERTIFICATE")
    rd.value("version")
    digest = rd.value("digest")
    n = int(rd.value("n"))
    i, j = (int(t) for t in rd.value("pair").split())
    cert = MutationCertificate(digest=digest, n=n, i=i, j=j,
                               case=rd.word("case", _CASES),
                               kind=rd.word("kind", _KINDS + ("-",)),
                               verdict=rd.word("verdict", _VERDICTS))
    reason = rd.value("reason")
    cert.reason = None if reason == "-" else reason
    rd.expect("STAR")
    if rd.value("present") == "true":
        a, b, c, d = (rd.value(k) == "true" for k in "abcd")
        rd.value("overall")
        cert.star = StarReport(a=a, b=b, c=c, d=d,
                               red=_parse_ints(rd.value("red")),
                               blue_olive=_parse_ints(rd.value("blue-olive")),
                               yellow_green=_parse_ints(rd.value("yellow-green")),
                               red_purple=_parse_ints(rd.value("red-purple")))
    rd.expect("SWAP")
    eps = rd.value("epsilon")
    cert.epsilon = None if eps == "-" else _rational(eps)
    cert.order_before = _parse_ints(rd.value("order-before")) or None
    cert.order_after = _parse_ints(rd.value("order-after")) or None
    if rd.value("matrix-after") != "-":
        cert.matrix_after = rd.matrix()
    rd.expect("WF")
    if rd.value("present") == "true":
        g1, g2, g3 = (frozenset(_parse_ints(rd.value("group-%d" % k)))
                      for k in (1, 2, 3))
        cert.data = MutationData(i=i, j=j, w=rd.point("w"), f=rd.point("f"),
                                 group_red=g1, group_two=g2, group_three=g3)
    rd.expect("DIFF")
    for _ in range(int(rd.value("count"))):
        ln = rd.take()
        left, _, rest = ln.partition(" : ")
        before_t, _, after_t = rest.partition(" -> ")
        cert.diff.append((_parse_triple(left),
                          _parse_tab(before_t), _parse_tab(after_t)))
    rd.expect("IMAGES")
    for _ in range(int(rd.value("count"))):
        src, _, dst = rd.take().partition(" -> ")
        cert.images.append((_parse_tab(src), _parse_tab(dst)))
    rd.expect("CHECKS")
    cert.k1 = _FLAGS.get(rd.value("k1-slab"))
    cert.k2 = _FLAGS.get(rd.value("k2-vertex-image"))
    cert.k3 = _FLAGS.get(rd.value("k3-forward-midpoints"))
    for _ in range(int(rd.value("k3-fail-count"))):
        u, _, v = rd.value("k3-fail").partition(" | ")
        cert.k3_failures.append((_parse_tab(u), _parse_tab(v)))
    cert.k4 = _FLAGS.get(rd.value("k4-backward-midpoints"))
    for _ in range(int(rd.value("k4-fail-count"))):
        u, _, v = rd.value("k4-fail").partition(" | ")
        cert.k4_failures.append((_parse_tab(u), _parse_tab(v)))
    rd.expect("WITNESSES")
    if rd.value("present") == "true":
        cert.witnesses = []
        for _ in range(int(rd.value("count"))):
            ln = rd.take()
            pairs, _, rest = ln.partition(" : ")
            u, _, v = pairs.partition(" | ")
            if rest == "none":
                cert.witnesses.append(WitnessEntry(_parse_tab(u), _parse_tab(v),
                                                   "none", None, None))
            else:
                kind, _, wit = rest.partition(" : ")
                t, _, t2 = wit.partition(" + ")
                cert.witnesses.append(WitnessEntry(_parse_tab(u), _parse_tab(v),
                                                   kind, _parse_tab(t), _parse_tab(t2)))
    rd.expect("END")
    return cert


def _check_written(text: str, written: str) -> None:
    """ValueError naming the first line where text differs from what the
    writer gives back for the object read from it."""
    if text == written:
        return
    got, want = text.splitlines(True), written.splitlines(True)
    k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    raise ValueError("line %d reads %r but is written back as %r"
                     % (k + 1, "".join(got[k:k + 1]), "".join(want[k:k + 1])))


def parse_certificate(text: str) -> MutationCertificate:
    """Inverse of certificate_to_text: ValueError unless text is exactly
    what certificate_to_text writes for the certificate read from it."""
    cert = _read_certificate(_Reader(text))
    _check_written(text, certificate_to_text(cert))
    return cert
