"""The six colored regions around an adjacent pair of tropical lines.

Fix two adjacent lines i (left) and j (right).  Every other line's apex
falls into one of six regions named red, purple, olive, blue, green,
yellow; which inequalities bound them depends on whether j's apex is
higher than i's (case ONE) or lower (case TWO).  One ladder per side
of the pair (_ladders) is the one definition of the regions: classify
walks its rungs on the int apexes, and region_halfplanes builds from
them the polygons that render fills.  Each function takes the weight
matrix, the arrangement itself, and reads its apex ints.  The swap
verifier reads three groups off the regions (red; green and yellow;
purple), and mutate.MutationData derives the star condition from those
groups.

Apexes exactly on a bounding ray make the swap ill-defined, so
classification refuses them instead of choosing a side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arrange import adjacent
from .mfcore import WeightMatrix


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
    """Not two distinct lines, not adjacent, or not ordered left to right."""


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
        # a tuple, not a set: an Enum member hashes in Python code
        return frozenset(k for k, r in self.colors.items() if r in regions)


def _case(bi, bj) -> Case:
    """Case ONE when line j's apex is higher than line i's, else TWO."""
    return Case.ONE if bj > bi else Case.TWO


def _ladders(ai, bi, aj, bj) -> tuple:
    """The case of the pair (i left of j, apexes (ai, bi), (aj, bj), ints
    on one scale or Fractions) and its ladder for each side, the one
    definition of the six regions.  A ladder is the side bound (x <= a_i
    or x >= a_j), two rungs ((p, q, c), region) and a last region: the
    region of a point on that side is that of its first rung with
    p*x + q*y < c, else the last one.  On D = b - a, the rungs compare
    D with the red/purple split and the green/yellow diagonal, and b
    with the purple/olive top and the blue/green low.  Equal apex
    heights give case TWO."""
    case = _case(bi, bj)
    if case is Case.ONE:
        split, top, low, diag = bi - ai, bj, aj + bi - ai, bj - aj
    else:
        split, top, low, diag = bj - ai, bi, bj, bi - ai
    left = ((1, 0, ai), (((-1, 1, split), Region.RED),
                         ((0, 1, top), Region.PURPLE)), Region.OLIVE)
    right = ((-1, 0, -aj), (((0, 1, low), Region.BLUE),
                            ((-1, 1, diag), Region.GREEN)), Region.YELLOW)
    return case, left, right


def _check_pair(n: int, i: int, j: int, error=NotAdjacent):
    """Raise error unless i and j are two distinct columns of 1..n."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise error("bad pair (%d, %d) for %d columns" % (i, j, n))


def _left_first(M: WeightMatrix, i: int, j: int) -> tuple:
    """The pair (i, j) ordered by apex x, the left line first."""
    xs = M.apex_ints[0]
    return (j, i) if xs[i - 1] > xs[j - 1] else (i, j)


def classify(M: WeightMatrix, i: int, j: int) -> RegionAssignment:
    """Region of every line other than i and j, read off the ladders of
    _ladders on M's apex ints; an apex on a rung's line raises Boundary.

    No other apex can share an x coordinate with i or j, or lie between
    them: adjacent reads M's x order, which raises TiedX on any equal x,
    and confirms that i and j are consecutive.
    """
    _check_pair(M.n, i, j)
    if not adjacent(M, i, j):
        raise NotAdjacent("lines %d and %d are not adjacent" % (i, j))
    xs, ys, _ = M.apex_ints
    ai, bi, aj, bj = xs[i - 1], ys[i - 1], xs[j - 1], ys[j - 1]
    if not ai < aj:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    if bi == bj:
        raise Boundary(j)
    case, left, right = _ladders(ai, bi, aj, bj)
    colors = {}
    for k, (ak, bk) in enumerate(zip(xs, ys), 1):
        if k in (i, j):
            continue
        _, rungs, region = left if ak < ai else right
        for (p, q, c), below in rungs:
            v = p * ak + q * bk
            if v == c:
                raise Boundary(k)
            if v < c:
                region = below
                break
        colors[k] = region
    return RegionAssignment(i, j, case, colors)


def region_halfplanes(M: WeightMatrix, i: int, j: int) -> dict:
    """Half-plane descriptions of the six regions, for rendering.

    Each region maps to a list of triples (p, q, c) meaning
    p*x + q*y <= c; the region is the intersection of its side bound,
    the earlier rungs of its ladder negated and its own rung, so an apex
    that classify colours lies in exactly one region.
    """
    _check_pair(M.n, i, j)
    (ai, bi), (aj, bj) = M.apex(i), M.apex(j)
    if not ai < aj:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    planes = {}
    for bound, rungs, last in _ladders(ai, bi, aj, bj)[1:]:
        above = [bound]
        for (p, q, c), region in rungs:
            planes[region] = above + [(p, q, c)]
            above.append((-p, -q, -c))
        planes[last] = above
    return planes
