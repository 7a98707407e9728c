"""Polytope vertices and the exact membership / hull-vertex oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import five_line_matrix
from tropmf import (BadIndex, NotInSet, ShapeMismatch, VertexSet, apexes,
                    build_wf, classify, diagonal, hull_equal, induce,
                    is_hull_vertex, member, midpoint, pair, tableau_of,
                    vertex_of, vertices)
from tropmf.polytope import lattice_point, scale


def swapped_five_vertices():
    """Vertex set of the five-line field with (4,3,1) replaced by (3,4,1)."""
    L = induce(five_line_matrix())
    tabs = [tab for _, tab in L.items()]
    tabs.remove((4, 3, 1))
    tabs.append((3, 4, 1))
    return VertexSet(5, frozenset(tabs))


def five_mutation_data():
    M = five_line_matrix()
    A = apexes(M)
    return build_wf(A, 3, 4, classify(A, 3, 4))


def test_vertex_of_patterns():
    p = vertex_of((1, 2, 3), 3)
    assert p == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    q = vertex_of((3, 1, 4), 6)
    assert q[0][2] == 1 and q[1][0] == 1 and q[2][3] == 1
    assert sum(q[0]) == sum(q[1]) == sum(q[2]) == 1
    r = vertex_of((4, 3, 1), 5)
    assert r[0][3] == 1 and r[1][2] == 1 and r[2][0] == 1
    with pytest.raises(BadIndex):
        vertex_of((1, 2, 7), 6)


def test_tableau_of_inverts_vertex_of():
    assert tableau_of(vertex_of((4, 3, 1), 5)) == (4, 3, 1)
    assert tableau_of(lattice_point([[1, 1, 0], [0, 1, 0], [0, 0, 1]])) is None


def test_vertices_counts(five):
    assert len(vertices(diagonal(6))) == 20
    assert len(vertices(diagonal(3))) == 1
    V = vertices(induce(five))
    assert len(V) == 10
    assert (4, 3, 1) in V.points
    assert (5, 2, 4) in V.points


@pytest.mark.parametrize("bad", [(0, 2, 3), (1, 2, 6), (1, 1, 2), (1, 2),
                                 vertex_of((1, 2, 3), 5)])
def test_vertex_set_rejects_non_tableaux(bad):
    with pytest.raises(BadIndex):
        VertexSet(5, frozenset([(1, 2, 3), bad]))


def test_vertices_have_one_one_per_row(five):
    L = induce(five)
    for T, tab in L.items():
        p = vertex_of(tab, 5)
        for row in p:
            assert sorted(row) == [0, 0, 0, 0, 1]
        support = {c + 1 for row in p for c, v in enumerate(row) if v == 1}
        assert support == set(T)


def test_pair_values():
    D = five_mutation_data()
    assert pair(D.f, vertex_of((4, 3, 1), 5)) == -1
    assert pair(D.f, vertex_of((5, 2, 4), 5)) == 1
    zero = lattice_point([[0] * 5] * 3)
    assert pair(zero, D.f) == 0
    with pytest.raises(ShapeMismatch):
        pair(vertex_of((1, 2, 3), 3), vertex_of((1, 2, 3), 4))


def test_member_trivial_cases(five):
    V = vertices(induce(five))
    for t in V:
        assert member(vertex_of(t, 5), V)
    pts = [vertex_of(t, 5) for t in sorted(V.points, reverse=True)]
    assert member(midpoint(pts[0], pts[-1]), V)


def test_member_critical_midpoint_outside_swapped_hull():
    # The midpoint of (4,3,1) and (5,2,4): the only swapped vertex with
    # row-3 mass at column 4 is (5,2,4) itself, which forces the rest of
    # the combination onto the removed vertex (4,3,1); infeasible.
    m = midpoint(vertex_of((4, 3, 1), 5), vertex_of((5, 2, 4), 5))
    assert not member(m, swapped_five_vertices())


def test_member_interior_point():
    V = vertices(diagonal(4))
    pts = [vertex_of(t, 4) for t in sorted(V.points, reverse=True)]
    centroid = scale(Fraction(1, len(pts)),
                     lattice_point([[sum(p[r][c] for p in pts)
                                     for c in range(4)] for r in range(3)]))
    assert member(centroid, V)


def test_member_monotone_under_superset(five):
    V = vertices(induce(five))
    tabs = sorted(V.points, reverse=True)
    small = VertexSet(5, frozenset(tabs[:4]))
    big = VertexSet(5, frozenset(tabs[:7]))
    q = midpoint(vertex_of(tabs[0], 5), vertex_of(tabs[3], 5))
    assert member(q, small)
    assert member(q, big)


def test_member_determinism_under_permutation(five):
    V = vertices(induce(five))
    tabs = sorted(V.points, reverse=True)
    m = midpoint(vertex_of(tabs[0], 5), vertex_of(tabs[5], 5))
    rng = random.Random(3)
    for _ in range(5):
        shuffled = list(tabs)
        rng.shuffle(shuffled)
        assert member(m, VertexSet(5, frozenset(shuffled))) == member(m, V)


def test_is_hull_vertex(five):
    V = vertices(diagonal(6))
    assert all(is_hull_vertex(t, V) for t in V)
    V5 = vertices(induce(five))
    assert is_hull_vertex((5, 2, 4), V5)
    with pytest.raises(NotInSet):
        is_hull_vertex((3, 4, 1), V5)


def test_hull_vertex_and_membership_are_complementary(five):
    V = vertices(induce(five))
    for t in V:
        rest = VertexSet(5, V.points - {t})
        assert is_hull_vertex(t, V) == (not member(vertex_of(t, 5), rest))


def test_hull_equal(five):
    V = vertices(induce(five))
    assert hull_equal(V, V)
    assert not hull_equal(V, swapped_five_vertices())
    with pytest.raises(ShapeMismatch):
        hull_equal(V, vertices(diagonal(6)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_member_accepts_random_convex_combinations(raw_weights):
    rng = random.Random(101)
    tabs = set()
    while len(tabs) < 6:
        tabs.add(tuple(rng.sample(range(1, 6), 3)))
    V = VertexSet(5, frozenset(tabs))
    pts = [vertex_of(t, 5) for t in sorted(V.points, reverse=True)]
    weights = [Fraction(w) for w in raw_weights]
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    total = sum(weights)
    combo = lattice_point([[sum(w * p[r][c] for w, p in zip(weights, pts)) / total
                            for c in range(5)] for r in range(3)])
    assert member(combo, V)


def test_member_rejects_set_of_another_shape():
    S = VertexSet(4, frozenset([(1, 2, 3)]))
    with pytest.raises(ShapeMismatch):
        member(vertex_of((1, 2, 3), 5), S)


def test_member_rejects_far_point(five):
    V = vertices(induce(five))
    far = lattice_point([[2] + [0] * 4, [0] * 5, [0] * 5])
    assert not member(far, V)


def test_member_with_no_live_points():
    # Every vertex of the diagonal field is 1 somewhere the point is 0,
    # so no combination of them reaches it.
    V = vertices(diagonal(4))
    q = lattice_point([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert not member(q, V)


@pytest.mark.parametrize("rows", [[[1], [2]], [[1], [2], [3], [4]],
                                  [[1, 2], [3], [4, 5]]])
def test_lattice_point_rejects_other_shapes(rows):
    with pytest.raises(ShapeMismatch, match="3 equal-length rows"):
        lattice_point(rows)
