"""Region classification around an adjacent pair and the star report."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import pair_matrix, random_generic_matrix
from tropmf import (Boundary, Case, NotAdjacent, Region, TiedX, WeightMatrix,
                    classify, genericity, normalize, region_halfplanes, star)


def classify_single(i_apex, j_apex, k_apex):
    """Classify one extra line against the pair at the given apexes."""
    M = pair_matrix([i_apex, j_apex, k_apex])
    R = classify(M, 1, 2)
    return R.case, R.colors[3]


# Case ONE reference pair: i at (0,0), j at (1,2).

@pytest.mark.parametrize("k_apex,color", [
    ((-1, Fraction(-3, 2)), Region.RED),
    ((-1, 1), Region.PURPLE),
    ((-1, 3), Region.OLIVE),
    ((Fraction(3, 2), Fraction(1, 2)), Region.BLUE),
    ((Fraction(3, 2), 2), Region.GREEN),
    ((Fraction(3, 2), 4), Region.YELLOW),
])
def test_case_one_regions(k_apex, color):
    case, got = classify_single((0, 0), (1, 2), k_apex)
    assert case is Case.ONE
    assert got is color


# Case TWO reference pair: i at (0,2), j at (1,0).

@pytest.mark.parametrize("k_apex,color", [
    ((-1, -2), Region.RED),
    ((-1, 1), Region.PURPLE),
    ((-1, 3), Region.OLIVE),
    ((2, -1), Region.BLUE),
    ((2, 1), Region.GREEN),
    ((2, 5), Region.YELLOW),
])
def test_case_two_regions(k_apex, color):
    case, got = classify_single((0, 2), (1, 0), k_apex)
    assert case is Case.TWO
    assert got is color


def test_five_line_classification(five):
    R = classify(five, 3, 4)
    assert R.case is Case.ONE
    assert R.colors == {1: Region.RED, 2: Region.PURPLE, 5: Region.YELLOW}


def test_five_line_star(five):
    S = star(five, 3, 4)
    assert (S.a, S.b, S.c, S.d, S.overall) == (True, True, True, True, True)
    assert S.red == (1,)
    assert S.red_purple == (1, 2)
    assert S.yellow_green == (5,)


def test_collinear_slope2_pair(diag6):
    # On the slope-2 collinear arrangement every apex left of the pair
    # sits under the left line's anti-diagonal, so red is never empty
    # for an interior pair.
    R = classify(diag6, 4, 3)
    assert R.group(Region.RED) == {5, 6}
    assert R.group(Region.YELLOW) == {1, 2}
    assert R.group(Region.PURPLE) == frozenset()
    S = star(diag6, 4, 3)
    assert (S.a, S.b, S.c, S.d) == (True, True, True, True)


def test_leftmost_pair_has_empty_red(diag6):
    S = star(diag6, 6, 5)
    assert not S.a
    assert S.red == ()


def test_star_with_no_other_lines():
    M = pair_matrix([(0, 0), (1, 2)])
    S = star(M, 1, 2)
    assert (S.a, S.b, S.c, S.d) == (False, True, False, False)
    assert not S.overall


def test_not_adjacent_and_misordered(five):
    with pytest.raises(NotAdjacent):
        classify(five, 2, 4)
    with pytest.raises(NotAdjacent):
        classify(five, 4, 3)   # right line first
    with pytest.raises(NotAdjacent):
        classify(five, 3, 3)
    # Pairs outside 1..n, which apex() would read from the other end.
    for i, j in ((4, 0), (1, five.n + 1)):
        for fn in (classify, region_halfplanes):
            with pytest.raises(NotAdjacent, match=r"bad pair \(%d, %d\)"
                               % (i, j)):
                fn(five, i, j)


def test_region_halfplanes_refuse_a_right_to_left_pair(five):
    with pytest.raises(NotAdjacent, match="line 4 is not left of line 3"):
        region_halfplanes(five, 4, 3)


def test_boundary_refusal():
    # k exactly on the anti-diagonal through i's apex
    with pytest.raises(Boundary):
        classify_single((0, 0), (1, 2), (-1, -1))
    # k exactly at the pair's shared horizontal in case TWO
    with pytest.raises(Boundary):
        classify_single((0, 2), (1, 0), (-1, 2))


def _region_inequalities(case, i_apex, j_apex, k_apex, color):
    ai, bi = i_apex
    aj, bj = j_apex
    ak, bk = k_apex
    di, dj, dk = bi - ai, bj - aj, bk - ak
    if case is Case.ONE:
        rules = {
            Region.RED: [ak < ai, dk < di],
            Region.PURPLE: [ak < ai, dk > di, bk < bj],
            Region.OLIVE: [ak < ai, bk > bj],
            Region.BLUE: [ak > aj, bk < aj + di],
            Region.GREEN: [ak > aj, bk > aj + di, dk < dj],
            Region.YELLOW: [ak > aj, dk > dj],
        }
    else:
        rules = {
            Region.RED: [ak < ai, dk < bj - ai],
            Region.PURPLE: [ak < ai, dk > bj - ai, bk < bi],
            Region.OLIVE: [ak < ai, bk > bi],
            Region.BLUE: [ak > aj, bk < bj],
            Region.GREEN: [ak > aj, bk > bj, dk < di],
            Region.YELLOW: [ak > aj, dk > di],
        }
    return rules[color]


def test_classification_satisfies_defining_inequalities():
    from tropmf import TiedX
    rng = random.Random(23)
    done = 0
    while done < 20:
        M = random_generic_matrix(rng, 5, -30, 30)
        try:
            order = M.x_order
            i, j = order[2], order[3]
            R = classify(M, i, j)
        except (Boundary, TiedX):
            continue
        done += 1
        for k, color in R.colors.items():
            checks = _region_inequalities(R.case, M.apex(i), M.apex(j),
                                          M.apex(k), color)
            assert all(checks), (k, color)


def test_classify_invariant_under_translation_and_scaling(five):
    base = classify(five, 3, 4).colors
    pts = [five.apex(p) for p in range(1, five.n + 1)]
    shifted = pair_matrix([(a + 3, b - Fraction(1, 2)) for a, b in pts])
    scaled = pair_matrix([(a * 5, b * 5) for a, b in pts])
    assert classify(shifted, 3, 4).colors == base
    assert classify(scaled, 3, 4).colors == base


def test_region_halfplanes_hold_classified_apexes():
    # classify and region_halfplanes share the case-dependent bounds:
    # every classified apex lies strictly inside each half-plane of its
    # region.
    from tropmf import TiedX
    rng = random.Random(29)
    done = 0
    while done < 20:
        M = random_generic_matrix(rng, 6, -30, 30)
        try:
            order = M.x_order
            i, j = order[2], order[3]
            R = classify(M, i, j)
        except (Boundary, TiedX):
            continue
        done += 1
        planes = region_halfplanes(M, i, j)
        for k, color in R.colors.items():
            x, y = M.apex(k)
            assert all(p * x + q * y < c for p, q, c in planes[color]), (k, color)


def test_region_halfplanes_draw_equal_heights_as_case_two():
    # classify refuses a pair at equal heights; the picture still draws
    # it, with the case TWO bounds (split 1 - 0, top 1, low 1, diagonal 1).
    M = pair_matrix([(0, 1), (2, 1), (3, 5)])
    with pytest.raises(Boundary):
        classify(M, 1, 2)
    planes = region_halfplanes(M, 1, 2)
    assert planes[Region.RED] == [(1, 0, 0), (-1, 1, 1)]
    assert planes[Region.OLIVE] == [(1, 0, 0), (1, -1, -1), (0, -1, -1)]
    assert planes[Region.BLUE] == [(-1, 0, -2), (0, 1, 1)]
    assert planes[Region.YELLOW] == [(-1, 0, -2), (0, -1, -1), (1, -1, -1)]


# --- the int arrangement against a Fraction reference -------------------------

def reference_apexes(M):
    """Apexes as Fractions, read off normalize(M)."""
    N = normalize(M)
    return [(N.rows[1][c], N.rows[2][c]) for c in range(M.n)]


def reference_x_order(pts):
    keyed = sorted((x, p) for p, (x, _) in enumerate(pts, 1))
    for (xa, ia), (xb, ib) in zip(keyed, keyed[1:]):
        if xa == xb:
            raise TiedX(ia, ib)
    return tuple(p for _, p in keyed)


def reference_bounds(pts, i, j):
    (ai, bi), (aj, bj) = pts[i - 1], pts[j - 1]
    if bj > bi:
        return Case.ONE, bi - ai, bj, aj + bi - ai, bj - aj
    return Case.TWO, bj - ai, bi, bj, bi - ai


def reference_classify(pts, i, j):
    """(case, colors) on the Fraction apexes, by the comparisons of the
    classify docstring."""
    order = reference_x_order(pts)
    if abs(order.index(i) - order.index(j)) != 1:
        raise NotAdjacent("lines %d and %d are not adjacent" % (i, j))
    (ai, bi), (aj, bj) = pts[i - 1], pts[j - 1]
    if not ai < aj:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    if bi == bj:
        raise Boundary(j)
    case, split, top, low, diag = reference_bounds(pts, i, j)

    def below(lhs, rhs, k):
        if lhs == rhs:
            raise Boundary(k)
        return lhs < rhs

    colors = {}
    for k, (ak, bk) in enumerate(pts, 1):
        if k in (i, j):
            continue
        if ak < ai:
            colors[k] = (Region.RED if below(bk - ak, split, k) else
                         Region.PURPLE if below(bk, top, k) else Region.OLIVE)
        else:
            colors[k] = (Region.BLUE if below(bk, low, k) else
                         Region.GREEN if below(bk - ak, diag, k) else
                         Region.YELLOW)
    return case, colors


def reference_halfplanes(pts, i, j):
    (ai, _), (aj, _) = pts[i - 1], pts[j - 1]
    _, split, top, low, diag = reference_bounds(pts, i, j)
    left, right = (1, 0, ai), (-1, 0, -aj)
    return {
        Region.RED: [left, (-1, 1, split)],
        Region.PURPLE: [left, (1, -1, -split), (0, 1, top)],
        Region.OLIVE: [left, (1, -1, -split), (0, -1, -top)],
        Region.BLUE: [right, (0, 1, low)],
        Region.GREEN: [right, (0, -1, -low), (-1, 1, diag)],
        Region.YELLOW: [right, (0, -1, -low), (1, -1, -diag)],
    }


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


# Entries p/q with |p| <= 40 and q <= 6, so the apexes of a matrix rarely
# share a denominator, or small ints, so that ties and boundary apexes
# occur.
ENTRIES = st.one_of(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
                    st.integers(-3, 3))
MATRICES = st.integers(3, 6).flatmap(lambda n: st.lists(
    st.lists(ENTRIES, min_size=n, max_size=n), min_size=3, max_size=3)).map(
        WeightMatrix.from_rows)


@settings(max_examples=300, deadline=None)
@given(MATRICES)
def test_int_arrangement_equals_fraction_reference(M):
    # The matrix keeps its apexes only as ints on the lcm scale D, once;
    # every point it returns and every decision it takes must be the
    # Fraction one.
    pts = reference_apexes(M)
    xs, ys, D = M.apex_ints
    assert [(Fraction(x, D), Fraction(y, D)) for x, y in zip(xs, ys)] == pts
    assert [M.apex(p) for p in range(1, M.n + 1)] == pts
    assert all(type(x) is Fraction for p in range(1, M.n + 1) for x in M.apex(p))
    assert M.apex_ints is M.apex_ints
    assert outcome(lambda: M.x_order) == outcome(reference_x_order, pts)
    for i in range(1, M.n + 1):
        for j in range(1, M.n + 1):
            if i == j:
                continue
            got = outcome(classify, M, i, j)
            if not isinstance(got, tuple):
                got = (got.case, got.colors)
            assert got == outcome(reference_classify, pts, i, j)
            if pts[i - 1][0] < pts[j - 1][0]:
                assert (region_halfplanes(M, i, j)
                        == reference_halfplanes(pts, i, j))


def reference_star_lists(R):
    """The four star lists read off the six region colors: red, blue and
    olive, yellow and green, red and purple."""
    groups = ((Region.RED,), (Region.BLUE, Region.OLIVE),
              (Region.YELLOW, Region.GREEN), (Region.RED, Region.PURPLE))
    return tuple(tuple(sorted(k for k, r in R.colors.items() if r in g))
                 for g in groups)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_star_lists_equal_the_region_colors(M):
    # star reads its lists and flags off the three groups of the swap
    # data; they must equal the lists read off the six colors, and the
    # flags the conditions (a)-(d) on those lists.
    assume(genericity(M).ok)
    try:
        order = M.x_order
    except TiedX:
        assume(False)
    for i, j in zip(order, order[1:]):
        try:
            R = classify(M, i, j)
        except Boundary:
            continue
        S = star(M, i, j)
        red, blue_olive, yellow_green, red_purple = reference_star_lists(R)
        assert (S.red, S.blue_olive, S.yellow_green, S.red_purple) == (
            red, blue_olive, yellow_green, red_purple)
        flags = (bool(red), not blue_olive, bool(yellow_green),
                 len(red_purple) >= 2)
        assert (S.a, S.b, S.c, S.d) == flags
        assert S.overall == all(flags)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@example(WeightMatrix.from_rows([[0] * 6, [-19, -10, -8, 0, 16, -12],
                                 [1, 7, -7, -3, -14, 4]]))
def test_classified_apexes_lie_in_their_own_region_only(M):
    # Every classified apex lies strictly inside each half-plane of its
    # own region and outside the closure of every other region, so the
    # rendered regions do not overlap at an apex.  In the example (case
    # ONE with D_j < D_i), apex 2 of the pair (1, 6) is blue and lies
    # below yellow's lower bound, the blue/green line b = low.
    try:
        order = M.x_order
    except TiedX:
        assume(False)
    for i, j in zip(order, order[1:]):
        try:
            R = classify(M, i, j)
        except Boundary:
            continue
        planes = region_halfplanes(M, i, j)
        for k, color in R.colors.items():
            x, y = M.apex(k)
            assert all(p * x + q * y < c for p, q, c in planes[color])
            assert not any(all(p * x + q * y <= c for p, q, c in planes[r])
                           for r in planes if r != color), (i, j, k, color)
