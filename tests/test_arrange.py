"""Arrangements: apexes, sector types, covectors, and the geometric field."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_generic_matrix, three_line_matrix
from tropmf import (Covector, NotFound, OnBoundary, TiedX, TropicalLine,
                    WeightMatrix, adjacent, apexes, cell111, covector_at,
                    genericity, induce, induce_geometric, triples, type_at,
                    x_order)
from tropmf import arrange


def placement_weight(M, tab):
    """Weight of placing column tab[t] into row t + 1, in Fractions."""
    return sum(M.rows[r][c - 1] for r, c in enumerate(tab))


def cell111_reference(A, T):
    """The closed form of cell111 in Fractions on the apexes themselves:
    (q, cov) of the one ordering whose cell is non-empty, or None."""
    for c in permutations(T):
        (a1, b1), (a2, b2), (a3, b3) = (A.apex(p) for p in c)
        lo, hi = max(b3 - a1, b3 - a3), min(b1 - a2, b2 - a2)
        if a2 < a1 and b3 < b1 and lo < hi:
            s = (lo + hi) / 2
            x = (max(a2, b3 - s) + min(a1, b1 - s)) / 2
            return (x, x + s), Covector(*(frozenset((p,)) for p in c))
    return None


# Entries p/q with |p| <= 40 and q <= 6, so that the lcm of a matrix's
# denominators is usually neither 1 nor its largest denominator.
RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6))


def _rows(n):
    row = st.one_of(st.lists(RATIONALS, min_size=n, max_size=n),
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return st.lists(row, min_size=3, max_size=3)


# 3 x n matrices, n = 4..6, whose rows are rational, or small ints so
# that tied triples occur.
RATIONAL_MATRICES = st.integers(4, 6).flatmap(_rows).map(
    WeightMatrix.from_rows)


def geometric_or_none(M):
    try:
        return induce_geometric(apexes(M))
    except NotFound:
        return None


def test_apexes_diag6(diag6):
    A = apexes(diag6)
    expected = [(6, 11), (5, 9), (4, 7), (3, 5), (2, 3), (1, 1)]
    assert [line.apex for line in A.lines] == [
        (Fraction(a), Fraction(b)) for a, b in expected]


def test_apexes_three_line(fig_three):
    A = apexes(fig_three)
    assert [line.apex for line in A.lines] == [
        (Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(4))]


def test_apexes_zero_matrix():
    A = apexes(WeightMatrix.from_rows([[0] * 3] * 3))
    assert all(line.apex == (0, 0) for line in A.lines)


def test_type_at_three_line(fig_three):
    A = apexes(fig_three)
    q = (Fraction(3, 2), Fraction(9, 5))
    assert type_at(A.line(1), q) == 3
    assert type_at(A.line(2), q) == 2
    assert type_at(A.line(3), q) == 1


def test_type_at_quadrant_and_boundary():
    line = TropicalLine(1, (Fraction(0), Fraction(0)))
    assert type_at(line, (Fraction(-1), Fraction(-5))) == 1
    with pytest.raises(OnBoundary):
        type_at(line, (Fraction(0), Fraction(0)))
    with pytest.raises(OnBoundary):
        type_at(line, (Fraction(-2), Fraction(0)))   # on the leftward ray


def test_covector_at(fig_three, diag6):
    A = apexes(fig_three)
    cov = covector_at(A, (Fraction(3, 2), Fraction(9, 5)), {1, 2, 3})
    assert (cov.s1, cov.s2, cov.s3) == ({3}, {2}, {1})
    assert cov.coarse() == (1, 1, 1)
    A6 = apexes(diag6)
    cov6 = covector_at(A6, (Fraction(11, 2), Fraction(89, 10)), {1, 2, 3})
    assert (cov6.s1, cov6.s2, cov6.s3) == ({1}, {2}, {3})
    empty = covector_at(A6, (Fraction(11, 2), Fraction(89, 10)), set())
    assert empty.coarse() == (0, 0, 0)


def test_covector_partition_at_random_points(five):
    A = apexes(five)
    rng = random.Random(7)
    subset = {1, 2, 3, 4, 5}
    hits = 0
    while hits < 25:
        q = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        try:
            cov = covector_at(A, q, subset)
        except OnBoundary:
            continue
        hits += 1
        assert cov.s1 | cov.s2 | cov.s3 == subset
        assert len(cov.s1) + len(cov.s2) + len(cov.s3) == len(subset)


def test_cell111_fixtures(fig_three, diag6, five):
    A = apexes(fig_three)
    _, cov = cell111(A, (1, 2, 3))
    assert cov.singletons() == (3, 2, 1)
    A6 = apexes(diag6)
    _, cov6 = cell111(A6, (1, 2, 3))
    assert cov6.singletons() == (1, 2, 3)
    A5 = apexes(five)
    _, cov5 = cell111(A5, (1, 3, 4))
    assert cov5.singletons() == (4, 3, 1)


def on_boundary(u, v, index):
    raise OnBoundary(index)


@pytest.mark.parametrize("sector", [lambda u, v, index: 0, on_boundary])
def test_cell111_refuses_a_sample_point_that_fails_the_sector_recheck(
        monkeypatch, five, sector):
    # The re-check reads the sector types with _sector, not with the
    # closed form that chose the point; a _sector that disagrees, or
    # puts the point on a line, refuses it.
    monkeypatch.setattr(arrange, "_sector", sector)
    with pytest.raises(NotFound, match=r"is not in the cell of \(4, 3, 1\)"):
        cell111(apexes(five), (1, 3, 4))


def test_cell111_sample_point_is_interior(five):
    A = apexes(five)
    q, cov = cell111(A, (2, 4, 5))
    again = covector_at(A, q, (2, 4, 5))
    assert again == cov


def test_cell111_not_found_on_degenerate():
    A = apexes(WeightMatrix.from_rows([[0] * 3] * 3))
    with pytest.raises(NotFound):
        cell111(A, (1, 2, 3))


def test_induce_geometric_fixtures(fig_three, diag6, five):
    assert induce_geometric(apexes(diag6)) == induce(diag6)
    assert induce_geometric(apexes(five)) == induce(five)
    geo = induce_geometric(apexes(fig_three))
    assert geo[(1, 2, 3)] == (3, 2, 1)


def test_induce_geometric_random_matrices():
    rng = random.Random(11)
    for n in (4, 5, 6):
        for _ in range(3):
            M = random_generic_matrix(rng, n)
            assert induce_geometric(apexes(M)) == induce(M)


def test_geometry_invariant_under_translation(five):
    shifted = WeightMatrix.from_rows([
        five.rows[0],
        [x + 7 for x in five.rows[1]],
        [y - Fraction(5, 3) for y in five.rows[2]]])
    A, B = apexes(five), apexes(shifted)
    for T in [(1, 2, 3), (1, 3, 4), (2, 4, 5)]:
        assert cell111(A, T)[1] == cell111(B, T)[1]


def test_x_order_and_adjacent(diag6, five):
    A = apexes(diag6)
    assert x_order(A) == (6, 5, 4, 3, 2, 1)
    assert adjacent(A, 3, 4)
    assert not adjacent(A, 2, 6)
    A5 = apexes(five)
    assert x_order(A5) == (2, 1, 3, 4, 5)
    assert adjacent(A5, 3, 4)


def test_x_order_three_values():
    A = apexes(three_line_matrix())
    assert x_order(A) == (1, 2, 3)


def test_x_order_tie():
    M = WeightMatrix.from_rows([[0] * 3, [1, 1, 2], [0, 5, 9]])
    with pytest.raises(TiedX):
        x_order(apexes(M))


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=3, max_size=3)))
def test_geometric_equals_algebraic_property(rows):
    # Small entries make tied triples common; cell111 must succeed on
    # exactly the triples with a unique minimum placement.
    M = WeightMatrix.from_rows(rows)
    A = apexes(M)
    for T in triples(M.n):
        weights = {tab: placement_weight(M, tab) for tab in permutations(T)}
        low = min(weights.values())
        winners = [tab for tab, w in weights.items() if w == low]
        if len(winners) == 1:
            q, cov = cell111(A, T)
            assert cov.singletons() == winners[0]
            assert covector_at(A, q, T) == cov
        else:
            with pytest.raises(NotFound):
                cell111(A, T)
    if genericity(M).ok:
        assert induce_geometric(A) == induce(M)


@settings(max_examples=150, deadline=None)
@given(RATIONAL_MATRICES)
def test_cell111_matches_fraction_reference(M):
    # cell111 decides on ints at scale 4 * lcm of the denominators; it
    # must return exactly the Fraction closed form's point and covector,
    # and fail exactly on the triples whose least placement is tied.
    A = apexes(M)
    for T in triples(M.n):
        weights = [placement_weight(M, tab) for tab in permutations(T)]
        tied = weights.count(min(weights)) > 1
        expected = cell111_reference(A, T)
        assert (expected is None) == tied
        if tied:
            with pytest.raises(NotFound):
                cell111(A, T)
            continue
        q, cov = cell111(A, T)
        assert (q, cov) == expected
        assert all(type(v) is Fraction for v in q)
        assert covector_at(A, q, T) == cov


@settings(max_examples=150, deadline=None)
@given(RATIONAL_MATRICES)
def test_induce_geometric_reads_cell111(M):
    # induce_geometric skips cell111's point and covector but must keep
    # its tableaux and its first NotFound, message and all.
    A = apexes(M)
    if genericity(M).ok:
        expected = {T: cell111(A, T)[1].singletons() for T in triples(M.n)}
        assert induce_geometric(A).assignment == expected
        return
    with pytest.raises(NotFound) as want:
        for T in triples(M.n):
            cell111(A, T)
    with pytest.raises(NotFound) as got:
        induce_geometric(A)
    assert str(got.value) == str(want.value)


@settings(max_examples=60, deadline=None)
@given(RATIONAL_MATRICES, st.integers(0, 2), RATIONALS,
       RATIONALS.filter(lambda x: x > 0), st.data())
def test_geometric_field_invariances(M, r, c, scale, data):
    # Adding c to a whole row or to one column adds c to every
    # placement weight of the affected triples, and a positive scale
    # multiplies all of them, so no argmin and no tie changes.
    p = data.draw(st.integers(0, M.n - 1))
    field = geometric_or_none(M)
    row_shift = [[x + c if k == r else x for x in row]
                 for k, row in enumerate(M.rows)]
    scaled = [[x * scale for x in row] for row in M.rows]
    column_shift = [[x + c if k == p else x for k, x in enumerate(row)]
                    for row in M.rows]
    for rows in (row_shift, scaled, column_shift):
        assert geometric_or_none(WeightMatrix.from_rows(rows)) == field
    if genericity(M).ok:
        assert field == induce(M)
    else:
        assert field is None
