"""The six colored regions around an adjacent pair of tropical lines.

Fix two adjacent lines i (left) and j (right).  Every other line's apex
falls into one of six regions named red, purple, olive, blue, green,
yellow; which inequalities bound them depends on whether j's apex is
higher than i's (case ONE) or lower (case TWO).  The star report
summarizes the four emptiness conditions that the swap verifier needs:

    (a) red is non-empty,
    (b) blue and olive are both empty,
    (c) yellow or green is non-empty,
    (d) red and purple together hold at least two lines.

Apexes exactly on a bounding ray make the swap ill-defined, so
classification refuses them instead of choosing a side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arrange import Arrangement, x_order


class Region(enum.Enum):
    RED = "red"
    PURPLE = "purple"
    OLIVE = "olive"
    BLUE = "blue"
    GREEN = "green"
    YELLOW = "yellow"


class Case(enum.Enum):
    ONE = "ONE"   # j's apex higher than i's
    TWO = "TWO"   # i's apex higher than j's


class NotAdjacent(ValueError):
    """The pair is not adjacent (or not ordered left to right)."""


class Boundary(ValueError):
    """An apex lies exactly on a region boundary."""

    def __init__(self, index: int):
        self.index = index
        super().__init__("apex of line %d on a region boundary" % index)


@dataclass(frozen=True)
class RegionAssignment:
    i: int
    j: int
    case: Case
    colors: dict

    def group(self, *regions) -> frozenset:
        wanted = set(regions)
        return frozenset(k for k, r in self.colors.items() if r in wanted)


@dataclass(frozen=True)
class StarReport:
    a: bool
    b: bool
    c: bool
    d: bool
    red: tuple
    blue_olive: tuple
    yellow_green: tuple
    red_purple: tuple

    @property
    def overall(self) -> bool:
        return self.a and self.b and self.c and self.d


def _strict(lhs, rhs, k):
    """-1, +1 for strict comparison outcomes; Boundary(k) on equality."""
    if lhs == rhs:
        raise Boundary(k)
    return -1 if lhs < rhs else 1


def _bounds(A: Arrangement, i: int, j: int) -> tuple:
    """Case of the pair (i left of j) and its four bounds: the red/purple
    split and green/yellow diagonal on D = b - a, the purple/olive top
    and blue/green low on b.  Equal apex heights give case TWO."""
    ai, bi = A.apex(i)
    aj, bj = A.apex(j)
    if bj > bi:
        return Case.ONE, bi - ai, bj, aj + bi - ai, bj - aj
    return Case.TWO, bj - ai, bi, bj, bi - ai


def classify(A: Arrangement, i: int, j: int) -> RegionAssignment:
    """Region of every line other than i and j.

    With apexes (a, b), diagonal offsets D = b - a, and i left of j:

    case ONE (b_j > b_i), left side a_k < a_i:
        red    D_k < D_i
        purple D_k > D_i and b_k < b_j
        olive  b_k > b_j
    case ONE, right side a_k > a_j:
        blue   b_k < a_j + D_i
        green  b_k > a_j + D_i and D_k < D_j
        yellow D_k > D_j
    case TWO (b_i > b_j), left side:
        red    D_k < b_j - a_i
        purple D_k > b_j - a_i and b_k < b_i
        olive  b_k > b_i
    case TWO, right side:
        blue   b_k < b_j
        green  b_k > b_j and D_k < D_i
        yellow D_k > D_i

    No other apex can share an x coordinate with i or j, or lie between
    them: the adjacency check sorts the apexes with x_order, which raises
    TiedX on any equal x, and confirms that i and j are consecutive.
    """
    if i == j or not (1 <= i <= A.n and 1 <= j <= A.n):
        raise NotAdjacent("bad pair (%d, %d)" % (i, j))
    return _classify(A, x_order(A), i, j)


def _classify(A: Arrangement, order: tuple, i: int, j: int) -> RegionAssignment:
    """classify for two distinct columns i, j, on the caller's x order
    of A's apexes (x_order(A))."""
    if abs(order.index(i) - order.index(j)) != 1:
        raise NotAdjacent("lines %d and %d are not adjacent" % (i, j))
    ai, bi = A.apex(i)
    aj, bj = A.apex(j)
    if not ai < aj:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    if bi == bj:
        raise Boundary(j)
    case, split, top, low, diag = _bounds(A, i, j)
    colors = {}
    for line in A.lines:
        k = line.index
        if k in (i, j):
            continue
        ak, bk = line.apex
        dk = bk - ak
        if ak < ai:
            if _strict(dk, split, k) < 0:
                colors[k] = Region.RED
            elif _strict(bk, top, k) < 0:
                colors[k] = Region.PURPLE
            else:
                colors[k] = Region.OLIVE
        else:
            if _strict(bk, low, k) < 0:
                colors[k] = Region.BLUE
            elif _strict(dk, diag, k) < 0:
                colors[k] = Region.GREEN
            else:
                colors[k] = Region.YELLOW
    return RegionAssignment(i, j, case, colors)


def region_halfplanes(A: Arrangement, i: int, j: int) -> dict:
    """Half-plane descriptions of the six regions, for rendering.

    Each region maps to a list of triples (p, q, c) meaning
    p*x + q*y <= c; the region is the intersection.
    """
    ai, aj = A.apex(i)[0], A.apex(j)[0]
    if not ai < aj:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    _, split, top, low, diag = _bounds(A, i, j)
    left = (1, 0, ai)
    right = (-1, 0, -aj)
    return {
        Region.RED: [left, (-1, 1, split)],
        Region.PURPLE: [left, (1, -1, -split), (0, 1, top)],
        Region.OLIVE: [left, (0, -1, -top)],
        Region.BLUE: [right, (0, 1, low)],
        Region.GREEN: [right, (0, -1, -low), (-1, 1, diag)],
        Region.YELLOW: [right, (1, -1, -diag)],
    }


def _star_report(R: RegionAssignment) -> StarReport:
    """The four-part emptiness report of a finished classification."""
    red = tuple(sorted(R.group(Region.RED)))
    blue_olive = tuple(sorted(R.group(Region.BLUE, Region.OLIVE)))
    yellow_green = tuple(sorted(R.group(Region.YELLOW, Region.GREEN)))
    red_purple = tuple(sorted(R.group(Region.RED, Region.PURPLE)))
    return StarReport(a=bool(red), b=not blue_olive, c=bool(yellow_green),
                      d=len(red_purple) >= 2, red=red, blue_olive=blue_olive,
                      yellow_green=yellow_green, red_purple=red_purple)


def star(A: Arrangement, i: int, j: int) -> StarReport:
    """The four-part emptiness report for the pair (i, j)."""
    return _star_report(classify(A, i, j))
