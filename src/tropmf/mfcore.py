"""Matching fields on 3-row weight matrices, with exact arithmetic.

A weight matrix is a 3 x n grid of rationals.  For a 3-subset of columns
{i1 < i2 < i3} there are six ways to place the three columns into the
three rows; the weight of a placement (c1, c2, c3) is the row-1 entry of
column c1 plus the row-2 entry of column c2 plus the row-3 entry of
column c3.  When the minimum weight placement is unique it is the
induced tableau of the subset, and the map from all subsets to their
tableaux is the induced matching field.

Entries are `fractions.Fraction`.  Every decision is an exact int
comparison on the apex ints xs = m2 - m1 and ys = m3 - m1 times the lcm D
of the denominators: a triple's six placements share its row-1 sum, so
(c1, c2, c3) ranks by xs[c2] + ys[c3], and a positive scale keeps every
argmin.  Nothing in the package decides anything in floating point.
Column indices are 1-based throughout the public API.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

Triple = tuple[int, int, int]
Tableau = tuple[int, int, int]


class BadSize(ValueError):
    """A size parameter is out of range (e.g. fewer than 3 columns)."""


class SizeMismatch(ValueError):
    """Two objects that must share a column count do not."""


class TieError(ValueError):
    """The minimum placement weight of a triple is attained twice."""

    def __init__(self, triple: Triple):
        self.triple = triple
        super().__init__("tie at triple %d %d %d" % triple)


class TiedX(ValueError):
    """Two apexes share an x coordinate, so the left-right order is undefined."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__("lines %d and %d have equal apex x" % (i, j))


@dataclass(frozen=True)
class WeightMatrix:
    """A 3 x n matrix of exact rationals; its apex ints, x order and text
    are computed once, on first use (rows are tuples: none goes stale)."""

    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @cached_property
    def apex_ints(self) -> tuple:
        """(xs, ys, D): the lcm D of the entries' denominators and the
        apex ints xs = r2 - r1 and ys = r3 - r1 of the rows r times D."""
        ratios = [[x.as_integer_ratio() for x in row] for row in self.rows]
        D = math.lcm(*{q for row in ratios for _, q in row})
        r1, r2, r3 = ([p * (D // q) for p, q in row] for row in ratios)
        return (tuple(b - a for a, b in zip(r1, r2)),
                tuple(c - a for a, c in zip(r1, r3)), D)

    @cached_property
    def x_order(self) -> tuple:
        """Column indices sorted by apex x, left to right; TiedX on two
        equal xs."""
        keyed = sorted(zip(self.apex_ints[0], range(1, self.n + 1)))
        for (xa, ia), (xb, ib) in zip(keyed, keyed[1:]):
            if xa == xb:
                raise TiedX(ia, ib)
        return tuple(idx for _, idx in keyed)

    @cached_property
    def text(self) -> str:
        """A "3 n" header line, then the three rows of rationals."""
        return "\n".join(["3 %d" % self.n] + [" ".join(map(str, row))
                                              for row in self.rows]) + "\n"

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "WeightMatrix":
        """Build from any 3 iterables of Fraction-coercible values;
        entries that are already Fractions are kept as they are."""
        converted = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                                for x in row) for row in rows)
        if len(converted) != 3:
            raise BadSize("a weight matrix has exactly 3 rows")
        width = len(converted[0])
        if width < 2 or any(len(r) != width for r in converted):
            raise BadSize("rows must have equal length >= 2")
        return cls(converted)

    def entry(self, r: int, c: int) -> Fraction:
        """Entry in row r, column c (both 1-based)."""
        return self.rows[r - 1][c - 1]

    def with_entry(self, r: int, c: int, value) -> "WeightMatrix":
        """Copy of the matrix with one entry replaced."""
        rows = [list(row) for row in self.rows]
        rows[r - 1][c - 1] = Fraction(value)
        return WeightMatrix(tuple(tuple(row) for row in rows))

    @property
    def is_normalized(self) -> bool:
        return all(x == 0 for x in self.rows[0])


@dataclass(frozen=True)
class MatchingField:
    """A total map from the 3-subsets of [n] to tableaux."""

    n: int
    assignment: dict

    def __getitem__(self, triple: Triple) -> Tableau:
        return self.assignment[triple]

    def items(self):
        return sorted(self.assignment.items())


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the unique-minimum check, per triple."""

    ok: bool
    offending: tuple[Triple, ...]


def triples(n: int) -> Iterator[Triple]:
    """All 3-subsets of columns 1..n in lexicographic order."""
    return itertools.combinations(range(1, n + 1), 3)


def check_triple(triple: Triple, n: int) -> Triple:
    i1, i2, i3 = triple
    if not (1 <= i1 < i2 < i3 <= n):
        raise BadSize("not a strictly increasing triple in [1, %d]: %r" % (n, (i1, i2, i3)))
    return (i1, i2, i3)


# The six placements of a sorted triple, as positions into it, in
# itertools.permutations order.
_PLACEMENTS = tuple(itertools.permutations(range(3)))


def _minima(xs, ys, Ts) -> Iterator:
    """(T, least xs[c2] + ys[c3], its placement (c1, c2, c3)) for each
    triple T of Ts; the placement is None when the least weight is tied."""
    for T in Ts:
        a, b, c = T[0] - 1, T[1] - 1, T[2] - 1
        ws = (xs[b] + ys[c], xs[c] + ys[b], xs[a] + ys[c],
              xs[c] + ys[a], xs[a] + ys[b], xs[b] + ys[a])
        low = min(ws)
        if ws.count(low) > 1:
            yield T, low, None
        else:
            p, q, r = _PLACEMENTS[ws.index(low)]
            yield T, low, (T[p], T[q], T[r])


def normalize(M: WeightMatrix) -> WeightMatrix:
    """Shift each column so the first row is zero.

    Subtracting a constant from a whole column shifts all six placement
    weights of every triple containing that column by the same amount,
    so the induced matching field is unchanged.
    """
    rows = ([Fraction(0)] * M.n,
            [M.rows[1][c] - M.rows[0][c] for c in range(M.n)],
            [M.rows[2][c] - M.rows[0][c] for c in range(M.n)])
    return WeightMatrix(tuple(tuple(r) for r in rows))


def genericity(M: WeightMatrix) -> GenericityReport:
    """Report whether every triple has a unique minimum-weight placement."""
    xs, ys, _ = M.apex_ints
    offending = tuple(T for T, _, tab in _minima(xs, ys, triples(M.n))
                      if tab is None)
    return GenericityReport(ok=not offending, offending=offending)


def induce(M: WeightMatrix) -> MatchingField:
    """The matching field induced by M (TieError on the first tied
    triple in lex order), decided by _induce on M's apex ints."""
    xs, ys, _ = M.apex_ints
    return _induce(xs, ys, M.n)


def _induce(xs, ys, n: int) -> MatchingField:
    """The field whose tableaux are the argmins of xs[c2] + ys[c3] over
    the n columns' apex ints (TieError on the first tied triple)."""
    assignment = {}
    for T, _, tab in _minima(xs, ys, triples(n)):
        if tab is None:
            raise TieError(T)
        assignment[T] = tab
    return MatchingField(n, assignment)


def plucker_weights(M: WeightMatrix) -> dict:
    """Minimum placement weight of every triple (ties allowed)."""
    xs, ys, D = M.apex_ints
    return {T: Fraction(w, D) + sum(M.rows[0][c - 1] for c in T)
            for T, w, _ in _minima(xs, ys, triples(M.n))}


def diagonal(n: int) -> MatchingField:
    """The field sending every triple (i < j < k) to the tableau (i, j, k)."""
    if n < 3:
        raise BadSize("need n >= 3")
    return MatchingField(n, {T: T for T in triples(n)})


def block_diagonal(n: int, ell: int) -> MatchingField:
    """Identity tableaux, except a first/second row swap when exactly one
    column of the triple lies in {1, .., ell}."""
    if n < 3 or not 0 <= ell <= n:
        raise BadSize("need n >= 3 and 0 <= ell <= n")
    assignment = {}
    for T in triples(n):
        i1, i2, i3 = T
        inside = sum(1 for c in T if c <= ell)
        assignment[T] = (i2, i1, i3) if inside == 1 else T
    return MatchingField(n, assignment)


def block_diagonal_weights(n: int, ell: int) -> WeightMatrix:
    """A normalized weight matrix inducing block_diagonal(n, ell).

    Row 3 uses gaps of n*n, which exceed the row-2 spread (< n), so the
    largest column of any triple is forced into row 3; row 2 then ranks
    the leading block {1..ell} strictly below the rest, which reproduces
    the first/second row swap exactly when one column is in the block.
    """
    if n < 3 or not 0 <= ell <= n:
        raise BadSize("need n >= 3 and 0 <= ell <= n")
    row2 = list(range(ell, 0, -1)) + list(range(n, ell, -1))
    big = n * n
    row3 = [big * (n - c) for c in range(n)]
    return WeightMatrix.from_rows([[0] * n, row2, row3])


def tableau_sign(tab: Tableau) -> int:
    """Parity (+1 or -1) of the rearrangement from the sorted triple."""
    order = sorted(tab)
    perm = [order.index(x) for x in tab]
    inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                     if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def mf_diff(A: MatchingField, B: MatchingField) -> list:
    """Triples where two fields disagree, with both tableaux, in lex order."""
    if A.n != B.n:
        raise SizeMismatch("fields on %d and %d columns" % (A.n, B.n))
    out = []
    for T in triples(A.n):
        if A.assignment[T] != B.assignment[T]:
            out.append((T, A.assignment[T], B.assignment[T]))
    return out


# ---------------------------------------------------------------------------
# file formats

def weight_matrix_to_text(M: WeightMatrix) -> str:
    """Serialize: a "3 n" header line, then the three rows of rationals."""
    return M.text


def _rational(token: str) -> Fraction:
    """Parse one rational token ("p", "p/q" or a plain decimal).

    An integer token, an optional "-" then ASCII digits, goes straight
    to int; any other token goes through Fraction's parser.  Exponent
    notation is refused: Fraction("1e9999999") would build 10**9999999,
    work that grows without bound in the exponent.
    """
    digits = token[1:] if token.startswith("-") else token
    if digits.isascii() and digits.isdigit():
        return Fraction(int(token))
    if "e" in token or "E" in token:
        raise ValueError("exponent notation is not accepted: %r" % token)
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError("zero denominator: %r" % token) from None


def weight_matrix_from_text(text: str) -> WeightMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 4:
        raise ValueError("expected a header line and 3 rows")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "3":
        raise ValueError("header must be '3 n'")
    n = int(header[1])
    rows = []
    for ln in lines[1:]:
        row = [_rational(tok) for tok in ln.split()]
        if len(row) != n:
            raise ValueError("row has %d entries, expected %d" % (len(row), n))
        rows.append(row)
    return WeightMatrix.from_rows(rows)


def matching_field_to_text(L: MatchingField) -> str:
    """One line per triple: "i1 i2 i3 : c1 c2 c3", lexicographic order."""
    lines = []
    for T, tab in L.items():
        lines.append("%d %d %d : %d %d %d" % (T + tab))
    return "\n".join(lines) + "\n"


def matching_field_from_text(text: str) -> MatchingField:
    assignment = {}
    n = 0
    for ln in text.splitlines():
        if not ln.strip():
            continue
        left, _, right = ln.partition(":")
        T = tuple(int(t) for t in left.split())
        tab = tuple(int(t) for t in right.split())
        if len(T) != 3 or len(tab) != 3:
            raise ValueError("malformed line: %r" % ln)
        if T in assignment:
            raise ValueError("duplicate triple %r" % (T,))
        assignment[T] = tab
        n = max(n, T[2])
    for T in assignment:
        check_triple(T, n)
    field = MatchingField(n, assignment)
    for T in triples(n):
        if T not in assignment:
            raise ValueError("missing triple %r" % (T,))
        if tuple(sorted(assignment[T])) != T:
            raise ValueError("tableau %r is not a permutation of %r" % (assignment[T], T))
    return field
