"""Mutation data, the tropical map, verified swaps, and certificates."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (blue_obstruction_matrix, closer_threshold_matrix,
                      diag6_matrix, five_line_matrix, golden_texts,
                      random_generic_matrix, shear_matrix)
from test_byte_pins import seeded_matrices
from tropmf import (Boundary, Case, MatchingField, MutationData, NotAdjacent,
                    NotSwappable, PatternMismatch, Region, RegionAssignment,
                    SlabViolation, TieError, TiedX, VertexSet, WeightMatrix,
                    apexes, build_wf, certificate_to_text, certify, classify,
                    expected_flip, genericity, induce, member, mf_diff,
                    midpoint, parse_certificate, plan_block_to_diagonal,
                    star, swap, tableau_of, tropical_map, vertex_of,
                    vertices, witness_table, x_order)
from tropmf import lp, mutate
from tropmf.mutate import _landing_gap
from tropmf.polytope import add, lattice_point, pair as inner, scale


def five_setup():
    M = five_line_matrix()
    A = apexes(M)
    R = classify(A, 3, 4)
    return M, A, R, build_wf(A, 3, 4, R)


# --- build_wf ---------------------------------------------------------------

def test_build_wf_six_column_display():
    # Pair in columns 4 and 5 with one red column (1), two purple (2, 3)
    # and one yellow (6): f is supported on row 1 of column 6 and row 2
    # of columns 4, 5, 6.
    A = apexes(diag6_matrix())
    R = RegionAssignment(i=4, j=5, case=Case.TWO,
                         colors={1: Region.RED, 2: Region.PURPLE,
                                 3: Region.PURPLE, 6: Region.YELLOW})
    D = build_wf(A, 4, 5, R)
    assert D.w == lattice_point([[0, 0, 0, 1, -1, 0],
                                 [0, 0, 0, -1, 1, 0],
                                 [0, 0, 0, 0, 0, 0]])
    assert D.f == lattice_point([[0, 0, 0, 0, 0, 1],
                                 [0, 0, 0, -1, -1, -1],
                                 [0, 0, 0, 0, 0, 0]])
    assert D.group_red == {1}
    assert D.group_two == {6}
    assert D.group_three == {2, 3}


def test_build_wf_five_line():
    _, _, _, D = five_setup()
    assert D.f == lattice_point([[0, 0, 0, 0, 1],
                                 [0, 0, -1, -1, -1],
                                 [0, 0, 0, 0, 0]])
    assert D.w == lattice_point([[0, 0, 1, -1, 0],
                                 [0, 0, -1, 1, 0],
                                 [0, 0, 0, 0, 0]])


def test_build_wf_empty_group_two():
    M = shear_matrix()
    A = apexes(M)
    D = build_wf(A, 3, 4, classify(A, 3, 4))
    assert D.f == lattice_point([[0, 0, 0, 0],
                                 [0, 0, -1, -1],
                                 [0, 0, 0, 0]])


def test_wf_orthogonality():
    _, _, _, D = five_setup()
    assert inner(D.w, D.f) == 0


# --- tropical map -----------------------------------------------------------

def test_tropical_map_moves_only_negative_side():
    _, _, _, D = five_setup()
    u = vertex_of((4, 3, 1), 5)
    assert tropical_map(u, D) == vertex_of((3, 4, 1), 5)
    v = vertex_of((5, 2, 4), 5)
    assert tropical_map(v, D) == v
    zero_pairing = vertex_of((5, 3, 1), 5)
    assert inner(D.f, zero_pairing) == 0
    assert tropical_map(zero_pairing, D) == zero_pairing


def test_tropical_map_preserves_pairing():
    _, _, _, D = five_setup()
    for tab in [(4, 3, 1), (5, 2, 4), (3, 2, 1)]:
        p = vertex_of(tab, 5)
        assert inner(D.f, tropical_map(p, D)) == inner(D.f, p)


# --- expected flip ----------------------------------------------------------

def test_expected_flip_five():
    M, A, R, _ = five_setup()
    L = induce(M)
    flipped = expected_flip(L, 3, 4, R)
    assert mf_diff(L, flipped) == [((1, 3, 4), (4, 3, 1), (3, 4, 1))]


def test_expected_flip_empty_red(five):
    L = induce(five)
    R = RegionAssignment(i=3, j=4, case=Case.ONE, colors={})
    assert expected_flip(L, 3, 4, R) == L


def test_expected_flip_pattern_mismatch(five):
    L = induce(five)
    R = RegionAssignment(i=3, j=4, case=Case.ONE,
                         colors={5: Region.RED})
    with pytest.raises(PatternMismatch):
        expected_flip(L, 3, 4, R)


# --- swap -------------------------------------------------------------------

def test_swap_five_line(five):
    M2, eps = swap(five, 3, 4)
    assert eps == 1
    assert M2.entry(2, 3) == 3
    assert mf_diff(induce(five), induce(M2)) == [
        ((1, 3, 4), (4, 3, 1), (3, 4, 1))]


def test_swap_variant_with_closer_threshold():
    # Raising line 1's apex to (-2, -5) moves the flip threshold of the
    # triple {1,3,5} to landing offset 1; the offset interval is (0, 1),
    # so the swap lands at 1/2 and the diff is still exactly the red flip.
    V = closer_threshold_matrix()
    M2, eps = swap(V, 3, 4)
    assert eps == Fraction(1, 2)
    assert mf_diff(induce(V), induce(M2)) == [
        ((1, 3, 4), (4, 3, 1), (3, 4, 1))]


def test_swap_refuses_blue_obstruction():
    # A line in the blue region whose triple carries the (j, i, k)
    # pattern flips for every positive landing offset, so no offset
    # reproduces the predicted (empty) diff.
    with pytest.raises(NotSwappable):
        swap(blue_obstruction_matrix(), 1, 2)


def test_swap_requires_left_line_first(five):
    with pytest.raises(NotAdjacent):
        swap(five, 4, 3)
    with pytest.raises(NotAdjacent):
        swap(five, 2, 4)
    for i, j in ((0, 3), (1, five.n + 1), (3, 3)):
        with pytest.raises(NotAdjacent, match=r"bad pair \(%d, %d\)" % (i, j)):
            swap(five, i, j)


def test_swap_empty_red_is_field_preserving(diag6):
    M2, _ = swap(diag6, 6, 5)
    assert induce(M2) == induce(diag6)


def test_swap_lands_at_any_power_of_two(five):
    # Raising line 5's apex by 2^70 widens the gap right of line 4 to
    # 2^70 + 2 while the offset interval stays (0, 8), so the landing
    # offset is gap/2^68: past any fixed cap on k, and the (3, 4) swap
    # is REFUTED with the unshifted fixture's k3 failure.
    shift = 2 ** 70
    M = five.with_entry(2, 5, five.entry(2, 5) + shift).with_entry(
        3, 5, five.entry(3, 5) + shift)
    assert swap(M, 3, 4)[1] == Fraction(shift + 2, 2 ** 68)
    cert = certify(M, 3, 4)
    assert cert.verdict == "REFUTED"
    assert cert.k3_failures == [((4, 3, 1), (5, 2, 4))]


def _swap_by_halving(M: WeightMatrix, i: int, j: int):
    """Reference: the halving search that swap replaced, on the Fraction
    apexes.

    Tries eps = gap/2, gap/4, .. (64 steps), gap the room right of j's
    apex (the next apex's x minus j's, or 1 when j is rightmost), and
    accepts the first offset whose matrix is generic, has the transposed
    x order and induces the red-flip prediction.
    """
    report = genericity(M)
    if not report.ok:
        raise TieError(report.offending[0])
    A = apexes(M)
    order = x_order(A)
    ai, aj = A.apex(i)[0], A.apex(j)[0]
    if not ai < aj:
        raise NotAdjacent("line %d is not left of line %d" % (i, j))
    pi, pj = order.index(i), order.index(j)
    if pj != pi + 1:
        raise NotAdjacent("lines %d and %d are not adjacent" % (i, j))
    L = induce(M)
    R = classify(A, i, j)
    expected = expected_flip(L, i, j, R)
    gap = (A.apex(order[pj + 1])[0] - aj if pj + 1 < len(order)
           else Fraction(1))
    target = list(order)
    target[pi], target[pj] = target[pj], target[pi]
    target = tuple(target)
    eps = gap
    m1i = M.entry(1, i)
    for _ in range(64):
        eps = eps / 2
        M2 = M.with_entry(2, i, m1i + aj + eps)
        if not genericity(M2).ok:
            continue
        try:
            order2 = x_order(apexes(M2))
        except TiedX:
            continue
        if order2 != target:
            continue
        if induce(M2) == expected:
            return M2, eps
    raise NotSwappable("no landing offset in (0, %s) realizes the swap of "
                       "lines %d and %d" % (gap, i, j))


def _outcome(fn, M, i, j):
    try:
        return fn(M, i, j)
    except ValueError as e:
        return type(e), str(e)


def swap_pairs(M: WeightMatrix, extra):
    """Consecutive lines in x order (ties kept, so TiedX is reached),
    plus one more ordered pair."""
    keyed = sorted((line.apex[0], line.index) for line in apexes(M).lines)
    pairs = [(a, b) for (_, a), (_, b) in zip(keyed, keyed[1:])]
    return pairs + [extra]


@st.composite
def swap_cases(draw):
    """Int entries, or p/q ones so that the apex ints' scale D exceeds 1."""
    n = draw(st.integers(3, 7))
    entries = (st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
               if draw(st.booleans()) else st.integers(-5, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(3)]
    i = draw(st.integers(1, n))
    j = draw(st.integers(1, n).filter(lambda c: c != i))
    return WeightMatrix.from_rows(rows), (i, j)


@settings(max_examples=60, deadline=None)
@given(swap_cases())
def test_swap_equals_halving_reference(case):
    M, extra = case
    for i, j in swap_pairs(M, extra):
        assert _outcome(swap, M, i, j) == _outcome(_swap_by_halving, M, i, j)


def lower_bound_walk(M0: WeightMatrix, i: int, expected: MatchingField):
    """The largest -d over the placements t with i in row 2 whose
    expected tableau e lacks it, which bounded the offset interval from
    below before the bound was proved to be 0; None without any."""
    rows = M0.rows
    lo = None
    for T in itertools.combinations(range(1, M0.n + 1), 3):
        e = expected[T]
        if i not in T or e[1] == i:
            continue
        for t in itertools.permutations(T):
            if t[1] == i:
                d = sum(rows[r][t[r] - 1] - rows[r][e[r] - 1] for r in range(3))
                lo = -d if lo is None else max(lo, -d)
    return lo


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: st.lists(
    st.lists(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4)),
             min_size=n, max_size=n), min_size=3, max_size=3)))
def test_offset_interval_is_exact_acceptance_set(rows):
    # The moved apex ints and the expected field are built as _swap_core
    # builds them: A's ints with line i moved onto line j's x, kept on A's
    # scale (apexes(M0) may have a smaller lcm), for each adjacent pair
    # (i left of j), and the red-flip prediction; M0 is that move as a
    # matrix, for the probes.  The offsets eps in (0, gap) that give the
    # prediction are then exactly (0, hi): probes just above 0, at hi/2,
    # at hi and beyond hi agree with induce, and the lower bound that
    # _offset_interval no longer computes is never above 0.
    M = WeightMatrix.from_rows(rows)
    try:
        L = induce(M)
        A = apexes(M)
        order = x_order(A)
    except (TieError, TiedX):
        assume(False)
    for i, j in zip(order, order[1:]):
        try:
            expected = expected_flip(L, i, j, classify(A, i, j))
        except (Boundary, PatternMismatch):
            continue
        gap_int = _landing_gap(A, j)
        gap = Fraction(gap_int, A.D)
        m2i = M.entry(1, i) + A.apex(j)[0]
        M0 = M.with_entry(2, i, m2i)
        xs = list(A.xs)
        xs[i - 1] = A.xs[j - 1]
        hi = Fraction(mutate._offset_interval(
            xs, A.ys, i, expected, gap_int, mutate._triples_through(i, M.n)),
            A.D)
        lo = lower_bound_walk(M0, i, expected)
        assert lo is None or lo <= 0
        assert hi <= gap

        def field_at(eps):
            try:
                return induce(M0.with_entry(2, i, m2i + eps))
            except TieError:
                return None

        top = hi if hi > 0 else gap
        for eps in (top / 1000, hi / 2, hi, hi + gap / 1000, (hi + gap) / 2):
            if 0 < eps < gap:
                assert (field_at(eps) == expected) == (eps < hi)


def first_argmins(M: WeightMatrix) -> dict:
    """Per triple, the first least placement in permutation order, tied
    or not, by Fraction enumeration."""
    return {T: min(itertools.permutations(T),
                   key=lambda tab: sum(M.rows[r][c - 1]
                                       for r, c in enumerate(tab)))
            for T in itertools.combinations(range(1, M.n + 1), 3)}


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7).flatmap(lambda n: st.sampled_from([4, 40]).flatmap(
    lambda bound: st.tuples(
        st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                 min_size=3, max_size=3),
        st.integers(1, n), st.fractions(-8, 8, max_denominator=2),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)),
                 max_size=2)))))
def test_recheck_through_i_equals_full_induce(case):
    # The landed matrix differs from M in entry (2, i) only, so the
    # re-check recomputes just the triples through i.  Against a field
    # that agrees with induce(M) off i (the moved matrix's first least
    # placements, tied or not, or induce(M), with some triples through i
    # re-placed) it must accept exactly when a full induce of the moved
    # matrix equals that field, and refuse every tie.
    rows, i, eps, from_moved, edits = case
    M = WeightMatrix.from_rows(rows)
    try:
        L = induce(M)
    except TieError:
        assume(False)
    M2 = M.with_entry(2, i, M.entry(2, i) + eps)
    assignment = first_argmins(M2) if from_moved else dict(L.assignment)
    through = [T for T in assignment if i in T]
    for k, p in edits:
        T = through[k % len(through)]
        assignment[T] = tuple(itertools.permutations(T))[p]
    expected = MatchingField(M.n, assignment)
    try:
        full = induce(M2) == expected
    except TieError:
        full = False
    assert mutate._recheck(apexes(M2), i, expected,
                           mutate._triples_through(i, M.n)) == full


def test_swap_recheck_catches_wrong_interval(monkeypatch):
    # An offset interval widened to the whole gap makes the closer-
    # threshold swap pick gap/2 = 1, where its true interval is (0, 1);
    # there the triple {1, 3, 5} is tied, and the re-check, which reads
    # the landed matrix's own apexes, refuses the matrix.
    monkeypatch.setattr(mutate, "_offset_interval",
                        lambda xs, ys, i, expected, gap, through: gap)
    with pytest.raises(AssertionError, match="re-check"):
        swap(closer_threshold_matrix(), 3, 4)


# --- witness table ----------------------------------------------------------

def test_witness_table_five():
    M, A, R, D = five_setup()
    table = witness_table(vertices(induce(M)), D)
    by_pair = {(e.u, e.v): e for e in table}
    assert len(table) == 3
    e1 = by_pair[((4, 3, 1), (5, 2, 1))]
    assert {e1.t, e1.t2} == {(5, 3, 1), (4, 2, 1)}
    e2 = by_pair[((4, 3, 1), (5, 2, 3))]
    assert {e2.t, e2.t2} == {(5, 3, 1), (4, 2, 3)}
    e3 = by_pair[((4, 3, 1), (5, 2, 4))]
    assert e3.kind == "none"
    assert e3.t is None and e3.t2 is None


def test_witness_sums_and_pairings():
    M, A, R, D = five_setup()
    V = vertices(induce(M))
    for e in witness_table(V, D):
        if e.kind == "none":
            continue
        t, t2 = vertex_of(e.t, 5), vertex_of(e.t2, 5)
        u, v = vertex_of(e.u, 5), vertex_of(e.v, 5)
        assert inner(D.f, t) == inner(D.f, t2) == 0
        for r in range(3):
            for c in range(5):
                assert t[r][c] + t2[r][c] == u[r][c] + v[r][c]
        assert e.t in V.points and e.t2 in V.points


# --- certify ----------------------------------------------------------------

def test_certify_five_is_refuted(five):
    cert = certify(five, 3, 4)
    assert cert.kind == "MUTATION"
    assert cert.star.overall
    assert cert.epsilon == 1
    assert cert.k1 and cert.k2
    assert cert.k3 is False
    assert cert.k3_failures == [((4, 3, 1), (5, 2, 4))]
    assert cert.k4 is False
    assert cert.k4_failures == [((3, 4, 1), (5, 2, 4))]
    assert cert.verdict == "REFUTED"
    assert cert.diff == [((1, 3, 4), (4, 3, 1), (3, 4, 1))]
    moved = [(a, b) for a, b in cert.images if a != b]
    assert moved == [((4, 3, 1), (3, 4, 1))]


def test_failing_midpoint_characterization(five):
    # A forward-midpoint failure is an explicit point of the mapped
    # polytope outside the hull of the mapped vertices: the midpoint is
    # in the original hull, pairs with f to zero, is fixed by the map,
    # and is not in the swapped hull.
    cert = certify(five, 3, 4)
    (u_tab, v_tab), = cert.k3_failures
    D = cert.data
    m = midpoint(vertex_of(u_tab, 5), vertex_of(v_tab, 5))
    V = vertices(induce(five))
    V2 = vertices(induce(cert.matrix_after))
    assert member(m, V)
    assert inner(D.f, m) == 0
    assert tropical_map(m, D) == m
    assert not member(m, V2)


def test_certify_k3_matches_direct_oracle(five):
    cert = certify(five, 3, 4)
    V2 = vertices(induce(cert.matrix_after))
    m = midpoint(vertex_of((4, 3, 1), 5), vertex_of((5, 2, 4), 5))
    direct = member(m, V2)
    assert (((4, 3, 1), (5, 2, 4)) in cert.k3_failures) == (not direct)


def test_certify_noop(diag6):
    cert = certify(diag6, 6, 5)
    assert cert.kind == "NOOP"
    assert cert.verdict == "VERIFIED"
    assert cert.diff == []
    assert all(a == b for a, b in cert.images)


def test_certify_orients_pair(diag6):
    cert = certify(diag6, 5, 6)
    assert (cert.i, cert.j) == (6, 5)
    assert cert.verdict == "VERIFIED"


def test_certify_shear():
    cert = certify(shear_matrix(), 3, 4)
    assert cert.kind == "SHEAR"
    assert cert.verdict == "VERIFIED"
    assert cert.k2
    assert cert.diff == [((1, 3, 4), (4, 3, 1), (3, 4, 1))]


def test_certify_collinear_interior_pair_is_unswappable(diag6):
    # Interior pair of the slope-2 collinear arrangement: the star
    # condition holds (red = {5, 6}), yet the horizontal move of line 4
    # past line 3 necessarily drops its diagonal below red line 5's,
    # flipping the extra triple {2, 4, 5}; no landing offset works.
    cert = certify(diag6, 4, 3)
    assert cert.star.overall
    assert cert.star.red == (5, 6)
    assert cert.verdict == "INAPPLICABLE"
    assert "landing offset" in cert.reason


def test_certify_verified_mutation():
    # Mid-plan state of the block-2 migration: pair (1, 5) with one red
    # line, one purple, two green; a genuine verified mutation.
    M = WeightMatrix.from_rows([[0] * 6,
                                [Fraction(7, 2), Fraction(13, 4), 6, 5, 4, 3],
                                [216, 180, 144, 108, 72, 36]])
    cert = certify(M, 1, 5)
    assert cert.kind == "MUTATION"
    assert cert.star.overall
    assert cert.verdict == "VERIFIED"
    assert cert.epsilon == Fraction(1, 2)
    assert cert.diff == [((1, 5, 6), (5, 1, 6), (1, 5, 6))]
    assert all(e.kind != "none" for e in cert.witnesses)


def test_certify_refuted_with_trailing_pair_vertex():
    # Five lines where the (f = +1) vertex (4, 5, 2) puts the right line
    # of the pair in row 3; its candidate witness (4, 1, 2) is not a
    # vertex and the midpoint falls outside the swapped hull.
    H = WeightMatrix.from_rows([[0] * 5, [0, 1, -1, 2, -2],
                                [0, 2, -5, 6, 1]])
    cert = certify(H, 1, 2)
    assert cert.kind == "MUTATION"
    assert cert.star.overall
    assert cert.verdict == "REFUTED"
    assert cert.k2 is True
    assert ((2, 1, 3), (4, 5, 2)) in cert.k3_failures


def test_certify_inapplicable_non_adjacent(five):
    cert = certify(five, 2, 4)
    assert cert.verdict == "INAPPLICABLE"
    assert "adjacent" in cert.reason
    assert cert.epsilon is None


def test_certify_inapplicable_not_generic():
    M = WeightMatrix.from_rows([[0] * 3] * 3)
    cert = certify(M, 1, 2)
    assert cert.verdict == "INAPPLICABLE"
    assert "not generic" in cert.reason


def test_certify_inapplicable_unswappable():
    cert = certify(blue_obstruction_matrix(), 1, 2)
    assert cert.verdict == "INAPPLICABLE"
    assert "landing offset" in cert.reason
    assert cert.star is not None   # classification is still recorded


def test_slab_invariant_on_fixtures():
    for M, i, j in [(five_line_matrix(), 3, 4), (diag6_matrix(), 4, 3),
                    (shear_matrix(), 3, 4)]:
        A = apexes(M)
        D = build_wf(A, i, j, classify(A, i, j))
        for t in vertices(induce(M)):
            assert inner(D.f, vertex_of(t, M.n)) in (-1, 0, 1)


def test_shear_is_linear_injective_invertible():
    M = shear_matrix()
    A = apexes(M)
    D = build_wf(A, 3, 4, classify(A, 3, 4))
    V = vertices(induce(M))
    pts = [vertex_of(t, 4) for t in V]
    values = [inner(D.f, p) for p in pts]
    assert all(v <= 0 for v in values)
    images = []
    for p in pts:
        img = tropical_map(p, D)
        linear = tuple(tuple(p[r][c] + (-inner(D.f, p)) * D.w[r][c]
                             for c in range(4)) for r in range(3))
        assert img == linear
        back = tuple(tuple(img[r][c] + inner(D.f, img) * D.w[r][c]
                           for c in range(4)) for r in range(3))
        assert back == p
        images.append(img)
    assert len(set(images)) == len(V)


def verified_mutations(count: int, seed: int):
    """(M, certificate) of every VERIFIED MUTATION adjacent swap of count
    seeded generic matrices with n = 4, 5 and entries in [-9, 9]."""
    rng = random.Random(seed)
    for k in range(count):
        M = random_generic_matrix(rng, 4 + k % 2, -9, 9)
        try:
            order = x_order(apexes(M))
        except TiedX:
            continue
        for i, j in zip(order, order[1:]):
            cert = certify(M, i, j)
            if cert.verdict == "VERIFIED" and cert.kind == "MUTATION":
                yield M, cert


def test_tropical_map_carries_hull_onto_hull():
    """Metamorphic check of VERIFIED: the map sends every point q of
    conv(V) into conv(V2), and its inverse q' + min(0, <q', f>) w (an
    inverse as <w, f> = 0) sends conv(V2) into conv(V), decided by the
    LP membership oracle on exact convex combinations of three vertices,
    one of them of f-value -1 so that the shear is exercised."""
    draw = random.Random(3)
    cases = list(verified_mutations(400, 11))
    assert len(cases) >= 5
    sheared = 0
    for M, cert in cases:
        D = cert.data
        V, V2 = vertices(induce(M)), vertices(induce(cert.matrix_after))
        for source, target, inverse in ((V, V2, False), (V2, V, True)):
            points = [vertex_of(t, M.n) for t in source]
            negative = [p for p in points if inner(p, D.f) == -1]
            for _ in range(3):
                chosen = [draw.choice(negative)] + draw.sample(points, 2)
                weights = [draw.randint(1, 5) for _ in chosen]
                q = scale(0, chosen[0])
                for p, w in zip(chosen, weights):
                    q = add(q, scale(Fraction(w, sum(weights)), p))
                value = inner(q, D.f)
                sheared += value < 0
                image = (add(q, scale(min(0, value), D.w)) if inverse
                         else tropical_map(q, D))
                assert member(image, target), (M, cert.i, cert.j, q)
    assert sheared > len(cases)


@st.composite
def certify_matrices(draw):
    """n = 4..7; a small entry range gives ties, a wide one generic draws."""
    n = draw(st.integers(4, 7))
    bound = draw(st.sampled_from([3, 60, 60, 60]))
    return WeightMatrix.from_rows(
        [[draw(st.integers(-bound, bound)) for _ in range(n)]
         for _ in range(3)])


@settings(max_examples=50, deadline=None)
@given(certify_matrices(), st.booleans())
def test_certify_facts_equal_direct_recomputation(M, flip):
    # certify reads the after order and field off the swap search, the
    # star report off its own classification and the genericity verdict
    # off induce; each must equal the value computed from scratch.
    report = genericity(M)
    for i, j in swap_pairs(M, None)[:-1]:
        cert = certify(M, j, i) if flip else certify(M, i, j)
        if not report.ok:
            assert cert.reason == ("not generic: tie at triple %d %d %d"
                                   % report.offending[0])
            continue
        if cert.matrix_after is not None:
            M2 = cert.matrix_after
            assert cert.order_after == x_order(apexes(M2))
            assert cert.diff == mf_diff(induce(M), induce(M2))
        try:
            expected = star(apexes(M), cert.i, cert.j)
        except (Boundary, NotAdjacent, TiedX):
            expected = None
        assert cert.star == expected


@settings(max_examples=50, deadline=None)
@given(certify_matrices(), st.booleans())
@example(five_line_matrix(), False)
@example(closer_threshold_matrix(), True)
def test_certify_with_held_field_writes_the_same_text(M, flip):
    # A plan hands each step the field its previous re-check proved;
    # given induce(M), certify must write what it writes on its own.
    try:
        L = induce(M)
    except TieError:
        assume(False)
    for i, j in swap_pairs(M, None)[:-1]:
        if flip:
            i, j = j, i
        assert (certificate_to_text(certify(M, i, j, field=L))
                == certificate_to_text(certify(M, i, j)))


@settings(max_examples=50, deadline=None)
@given(certify_matrices(), st.data())
def test_f_split_groups_as_pair(M, data):
    # _f_split reads a tableau's f-value off three entries of f.  On a
    # drawn (not necessarily coherent) field it must group exactly as the
    # pairing with the 3 x n vertex does, for the f of every classified
    # adjacent pair and for one drawn f, and raise SlabViolation exactly
    # when some value leaves {-1, 0, 1}.
    n, A = M.n, apexes(M)
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    fs = [lattice_point([data.draw(row) for _ in range(3)])]
    for i, j in swap_pairs(M, None)[:-1]:
        try:
            fs.append(build_wf(A, i, j, classify(A, i, j)).f)
        except (Boundary, NotAdjacent, TiedX):
            pass
    S = VertexSet(n, frozenset(tuple(data.draw(st.permutations(T)))
                               for T in itertools.combinations(
                                   range(1, n + 1), 3)))
    for f in fs:
        values = {t: inner(f, vertex_of(t, n)) for t in S.points}
        if set(values.values()) <= {-1, 0, 1}:
            assert mutate._f_split(S, f) == tuple(
                sorted(t for t in S.points if values[t] == v)
                for v in (-1, 0, 1))
        else:
            with pytest.raises(SlabViolation):
                mutate._f_split(S, f)


def certify_facts(M: WeightMatrix, i: int, j: int) -> tuple:
    """What certify decides for the pair, and classify's colours or
    error, less the landing offset: right of the rightmost line the room
    to land is one unit at any scale, so epsilon and the gap in a "no
    landing offset" reason need not scale with M."""
    c = certify(M, i, j)
    try:
        colors = classify(apexes(M), i, j).colors
    except ValueError as e:
        colors = str(e)
    reason = re.sub(r"\(0, \S+\)", "(0, gap)", c.reason or "")
    return (c.verdict, c.kind, c.case, c.i, c.j, c.order_before, c.data,
            c.diff, c.images, c.witnesses, c.k3_failures, c.k4_failures,
            reason, colors)


def transformed(M: WeightMatrix, rng: random.Random):
    """M scaled by a positive rational, translated along x and along y (a
    rational added to all of row 2 or of row 3), and with a rational
    added to one column."""
    def rational(lo):
        return Fraction(rng.randint(lo, 30), rng.randint(1, 7))

    r1, r2, r3 = M.rows
    s, tx, ty, u = rational(1), rational(-30), rational(-30), rational(-30)
    c = rng.randrange(M.n)
    for rows in ([[s * x for x in row] for row in M.rows],
                 [r1, [x + tx for x in r2], r3],
                 [r1, r2, [y + ty for y in r3]],
                 [[x + u * (k == c) for k, x in enumerate(row)]
                  for row in M.rows]):
        yield WeightMatrix.from_rows(rows)


def test_certify_is_invariant_under_scale_translation_and_column_shift():
    # Every decision of certify compares weight differences of one triple
    # or apex coordinates of one arrangement, so a positive scale, a
    # translation and a column shift (which keeps every apex) keep all of
    # them.  The fixtures add landed MUTATION swaps with k3/k4 failures.
    rng = random.Random(8)
    verdicts = set()
    for M in [five_line_matrix(), closer_threshold_matrix(), shear_matrix(),
              diag6_matrix(), *seeded_matrices(40, seed=8)]:
        pairs = [(i, j) for i in range(1, M.n + 1)
                 for j in range(1, M.n + 1) if i != j]
        facts = [certify_facts(M, i, j) for i, j in pairs]
        verdicts.update(f[0] for f in facts)
        for M2 in transformed(M, rng):
            assert [certify_facts(M2, i, j) for i, j in pairs] == facts, M2
    assert verdicts == {"VERIFIED", "REFUTED", "INAPPLICABLE"}


# --- certificate serialization ----------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: certify(five_line_matrix(), 3, 4),
    lambda: certify(diag6_matrix(), 6, 5),
    lambda: certify(shear_matrix(), 3, 4),
    lambda: certify(five_line_matrix(), 2, 4),
    lambda: certify(blue_obstruction_matrix(), 1, 2),
    *golden_texts("mutate_*.txt"),
])
def test_certificate_roundtrip(build):
    text = build if isinstance(build, str) else certificate_to_text(build())
    assert certificate_to_text(parse_certificate(text)) == text


def test_truncated_certificate_raises_value_error(five):
    lines = certificate_to_text(certify(five, 3, 4)).splitlines(keepends=True)
    for cut in range(len(lines)):
        with pytest.raises(ValueError):
            parse_certificate("".join(lines[:cut]))
    text = "".join(lines)
    assert "k1-slab: pass\n" in text
    with pytest.raises(ValueError):
        parse_certificate(text.replace("k1-slab: pass\n", "k1-slab: maybe\n"))


@pytest.mark.parametrize("key, offset", [("epsilon", 0), ("matrix-after", 2),
                                         ("w", 1), ("f", 1)])
def test_certificate_rejects_exponent_tokens(five, key, offset):
    lines = certificate_to_text(certify(five, 3, 4)).splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith(key + ":"))
    if offset:
        lines[at + offset] = "  2E-1 " + lines[at + offset].split(None, 1)[1]
    else:
        lines[at] = "%s: 1e3" % key
    # epsilon, w and f are derived, not parsed: the re-write refuses
    # their edit.
    message = "written back" if key in ("epsilon", "w", "f") else "exponent"
    with pytest.raises(ValueError, match=message):
        parse_certificate("\n".join(lines) + "\n")


def test_reader_builds_a_landed_witness_table_once(monkeypatch):
    """A landed certificate's witness lines are checked by the re-write
    against the table _vertex_facts recomputes, and not rebuilt from the
    lines first: 728 entries over the 36 landed steps, not 1,092."""
    texts = [certificate_to_text(cert) for n, ell in ((6, 2), (7, 3), (8, 4))
             for cert in plan_block_to_diagonal(n, ell).steps]
    assert len(texts) == 36
    assert all("matrix-after: -" not in text for text in texts)
    built = [0]

    def counted(*args, witnesses=mutate._witnesses):
        for entry in witnesses(*args):
            built[0] += 1
            yield entry
    monkeypatch.setattr(mutate, "_witnesses", counted)
    for text in texts:
        parse_certificate(text)
    assert built[0] == 728
    # A duplicated first witness line is refused at the copy.
    lines = next(text for text in texts
                 if "\ncount: 0\n" not in text).splitlines(keepends=True)
    at = lines.index("WITNESSES\n") + 2
    with pytest.raises(ValueError, match="line %d reads " % (at + 2)):
        parse_certificate("".join(lines[:at + 1] + lines[at:]))


def test_certificate_text_sections(five):
    text = certificate_to_text(certify(five, 3, 4))
    for section in ("CERTIFICATE", "STAR", "SWAP", "WF", "DIFF", "IMAGES",
                    "CHECKS", "WITNESSES", "END"):
        assert "\n" + section + "\n" in "\n" + text
    assert "verdict: REFUTED" in text
    assert "k3-fail: 4 3 1 | 5 2 4" in text


# --- midpoint cube rule and tableau images ----------------------------------

# d = 1, 2, 3 differing rows; every tuple of each cube is a tableau on 6
# columns, and (2, 1, 3) is no cube tableau of any of them.
CUBES = [((1, 2, 3), (4, 2, 3)), ((1, 2, 3), (4, 5, 3)), ((1, 2, 3), (4, 5, 6))]


@pytest.mark.parametrize("u, v", CUBES, ids=["d1", "d2", "d3"])
def test_midpoint_rule_equals_lp_on_every_cube_subset(u, v):
    cube = [t for t, _ in mutate._cube(u, v)]
    assert cube == sorted(cube)
    assert len(cube) == 2 ** sum(a != b for a, b in zip(u, v))
    q = midpoint(vertex_of(u, 6), vertex_of(v, 6))
    for size in range(len(cube) + 1):
        for subset in itertools.combinations(cube, size):
            for extra in ((), ((2, 1, 3),)):
                P = VertexSet(6, frozenset(subset + extra))
                expected = member(q, P)
                combo = mutate._midpoint_combination(u, v, P)
                assert (combo is not None) == expected, subset + extra
                assert mutate._midpoint_in_hull(u, v, P) == expected


def test_midpoint_rule_checks_its_answers(monkeypatch):
    u, v = (1, 2, 3), (4, 5, 6)
    P = VertexSet(6, frozenset([u, v]))
    monkeypatch.setattr(mutate, "_midpoint_combination",
                        lambda u, v, P: [(u, Fraction(1, 2)), (u, Fraction(1, 2))])
    with pytest.raises(AssertionError, match="substitute back"):
        mutate._midpoint_in_hull(u, v, P)
    monkeypatch.setattr(mutate, "_midpoint_combination", lambda u, v, P: None)
    with pytest.raises(AssertionError, match="separator fails"):
        mutate._midpoint_in_hull(u, v, P)


def check_separator(u, v, P):
    """lp.check_farkas on _separator's (y, y0) over member's dense system:
    one column per tableau of P, each 3 x n coordinate plus the sum row.
    Returns y."""
    y, y0 = mutate._separator(u, v, P)

    def column(p):
        return [x for row in p for x in row] + [1]

    lp.check_farkas([column(vertex_of(t, P.n)) for t in P],
                    column(midpoint(vertex_of(u, P.n), vertex_of(v, P.n))),
                    [x for row in y for x in row] + [y0])
    return y


@pytest.mark.parametrize("u, v", CUBES, ids=["d1", "d2", "d3"])
def test_separator_is_a_farkas_vector_of_every_cube_no(u, v):
    # A "no" holds at most one tableau of each antipodal pair, so the
    # separator's entries stay in -4..4 besides the -C fill.
    cube = [t for t, _ in mutate._cube(u, v)]
    for size in range(len(cube) + 1):
        for subset in itertools.combinations(cube, size):
            for extra in ((), ((2, 1, 3),)):
                P = VertexSet(6, frozenset(subset + extra))
                if mutate._midpoint_combination(u, v, P) is None:
                    y = check_separator(u, v, P)
                    assert all(abs(y[r][c - 1]) <= 4
                               for r in range(3) for c in (u[r], v[r]))


@st.composite
def drawn_midpoints(draw):
    """(u, v, P): P part of a drawn (not necessarily coherent) field on n
    columns, u and v tableaux of that field or any tableaux."""
    n = draw(st.integers(3, 6))
    tabs = [tuple(draw(st.permutations(T)))
            for T in itertools.combinations(range(1, n + 1), 3)]
    P = VertexSet(n, frozenset(draw(st.lists(st.sampled_from(tabs),
                                             unique=True))))
    tableau = st.one_of(st.sampled_from(tabs), st.permutations(
        range(1, n + 1)).map(lambda p: tuple(p[:3])))
    return draw(tableau), draw(tableau), P


@settings(max_examples=150, deadline=None)
@given(drawn_midpoints())
def test_midpoint_rule_equals_member_on_drawn_sets(case):
    u, v, P = case
    inside = member(midpoint(vertex_of(u, P.n), vertex_of(v, P.n)), P)
    assert mutate._midpoint_in_hull(u, v, P) == inside
    if not inside:
        check_separator(u, v, P)


@st.composite
def drawn_batteries(draw):
    """(entries, P): the witness entries of a drawn pair on a vertex set
    that is no field (every tableau of f-value 0, so that witness pairs
    exist, and one to three drawn tableaux of f-value -1 and +1 each), and
    P a drawn part of that set, so that a witness pair can lie outside P."""
    n = draw(st.integers(4, 5))
    i, j, *others = draw(st.permutations(range(1, n + 1)))
    two = draw(st.frozensets(st.sampled_from(others), min_size=1,
                             max_size=len(others) - 1))
    D = MutationData(n, i, j, frozenset(), two, frozenset())
    tableaux = VertexSet(n, frozenset(
        t for T in itertools.combinations(range(1, n + 1), 3)
        for t in itertools.permutations(T)))
    neg, zero, pos = mutate._f_split(tableaux, D.f)
    neg, pos = (draw(st.lists(st.sampled_from(g), min_size=1, max_size=3,
                              unique=True)) for g in (neg, pos))
    P = VertexSet(n, frozenset(t for t in neg + zero + pos
                               if draw(st.booleans())))
    entries = list(mutate._witnesses(neg, zero, pos, D))
    assert [(e.u, e.v) for e in entries] == [(u, v) for u in neg for v in pos]
    return entries, P


@settings(max_examples=40, deadline=None)
@given(drawn_batteries())
def test_battery_equals_member_with_witnesses_outside_the_hull(case):
    # On a coherent field the witnesses lie in both vertex sets; here they
    # need not lie in P, and the battery must test that they do.
    entries, P = case
    for e in entries:
        if e.kind != "none":
            assert all({e.t[r], e.t2[r]} == {e.u[r], e.v[r]} for r in range(3))
    assert mutate._battery(entries, P) == [
        (e.u, e.v) for e in entries
        if not member(midpoint(vertex_of(e.u, P.n), vertex_of(e.v, P.n)), P)]


def generic_certificates(M, flip):
    """(vertex sets before and after, certificate) of every consecutive
    pair of M that reaches the midpoint batteries."""
    assume(genericity(M).ok)
    V = vertices(induce(M))
    for i, j in swap_pairs(M, None)[:-1]:
        cert = certify(M, j, i) if flip else certify(M, i, j)
        if cert.k3 is not None:
            yield V, vertices(induce(cert.matrix_after)), cert


@settings(max_examples=30, deadline=None)
@given(certify_matrices(), st.booleans())
@example(five_line_matrix(), False)
@example(closer_threshold_matrix(), True)
def test_midpoint_batteries_equal_lp(M, flip):
    for V, V2, cert in generic_certificates(M, flip):
        for failures, P, Q in ((cert.k3_failures, V, V2),
                               (cert.k4_failures, V2, V)):
            neg, _, pos = mutate._f_split(P, cert.data.f)
            assert failures == [
                (u, v) for u in neg for v in pos
                if not member(midpoint(vertex_of(u, M.n), vertex_of(v, M.n)), Q)]


@settings(max_examples=30, deadline=None)
@given(certify_matrices(), st.booleans())
@example(five_line_matrix(), False)
@example(closer_threshold_matrix(), True)
@example(WeightMatrix.from_rows([[0] * 5, [0, 1, -1, 2, -2],
                                 [0, 2, -5, 6, 1]]), False)
def test_k4_equals_the_battery_on_the_whole_swapped_split(M, flip):
    # k4 takes only the afters (i, j, k) as u's; the reference runs the
    # battery on every (f = -1, f = +1) pair of the swapped vertex set.
    for V, V2, cert in generic_certificates(M, flip):
        D = cert.data
        assert cert.k4_failures == mutate._battery(
            mutate._witnesses(*mutate._f_split(V2, D.f), D), V)


def landed_certificates():
    """Every landed certificate of the ordered pairs of the seeded
    matrices and of the steps of three block plans."""
    for M in seeded_matrices():
        for i, j in itertools.permutations(range(1, M.n + 1), 2):
            cert = certify(M, i, j)
            if cert.matrix_after is not None:
                yield cert
    for n, ell in ((6, 2), (7, 3), (8, 4)):
        yield from plan_block_to_diagonal(n, ell).steps


def test_moved_images_are_the_diff_and_swapped_negatives_its_afters():
    # What k2 and k4 read off the diff: the map moves exactly the red
    # (j, i, k) to (i, j, k), and the swapped vertex set's f = -1
    # tableaux are exactly those afters.
    landed = 0
    for cert in landed_certificates():
        landed += 1
        assert [(t, image) for t, image in cert.images if image != t] == [
            (before, after) for _, before, after in cert.diff]
        V2 = vertices(induce(cert.matrix_after))
        assert mutate._f_split(V2, cert.data.f)[0] == [
            after for _, _, after in cert.diff]
    assert landed > 100


def test_landed_certify_splits_once_and_diffs_no_fields(monkeypatch, five):
    # The diff is derived from the red group, and the swapped vertex set
    # shares the f = 0 and f = +1 lists of the one before the swap.
    calls = {"_f_split": 0, "mf_diff": 0}

    def counting(name, compute):
        def counted(*args):
            calls[name] += 1
            return compute(*args)
        return counted
    monkeypatch.setattr(mutate, "_f_split",
                        counting("_f_split", mutate._f_split))
    monkeypatch.setattr(mutate, "mf_diff", counting("mf_diff", mf_diff),
                        raising=False)
    cert = certify(five, 3, 4)
    assert cert.matrix_after is not None and cert.diff
    assert calls == {"_f_split": 1, "mf_diff": 0}


def mapped_tableaux(P, D):
    return [(t, tableau_of(tropical_map(vertex_of(t, P.n), D))) for t in P]


@settings(max_examples=50, deadline=None)
@given(certify_matrices(), st.booleans())
@example(five_line_matrix(), False)
def test_images_equal_tropical_map(M, flip):
    for V, _, cert in generic_certificates(M, flip):
        assert cert.images == mapped_tableaux(V, cert.data)


@settings(max_examples=50, deadline=None)
@given(certify_matrices(), st.data())
def test_images_equal_tropical_map_on_drawn_fields(M, data):
    # A drawn (not necessarily coherent) field also has f-value -1
    # vertices that do not place j over i; their image is no tableau.
    n, A = M.n, apexes(M)
    S = VertexSet(n, frozenset(tuple(data.draw(st.permutations(T)))
                               for T in itertools.combinations(
                                   range(1, n + 1), 3)))
    for i, j in swap_pairs(M, None)[:-1]:
        try:
            D = build_wf(A, i, j, classify(A, i, j))
            neg, _, _ = mutate._f_split(S, D.f)
        except (Boundary, NotAdjacent, TiedX, SlabViolation):
            continue
        assert mutate._images(S, neg, D.i, D.j) == mapped_tableaux(S, D)


def test_certify_sorts_apexes_once_per_matrix(monkeypatch, five):
    # A matrix sorts its apex xs once and keeps the order: certify sorts M
    # and, in the swap's re-check, M2, and the classification and the
    # landing gap read M's.  A plan step's landed matrix is the next
    # step's input, so the 8-step (6, 2) plan sorts each of its 9
    # matrices once (17 sorts when each step sorted its input again).
    prop = vars(WeightMatrix)["x_order"]
    sorts = []

    def counted(M, compute=prop.func):
        sorts.append(M)
        return compute(M)
    monkeypatch.setattr(prop, "func", counted)
    certify(five, 3, 4)
    assert len(sorts) == 2
    sorts.clear()
    plan = plan_block_to_diagonal(6, 2)
    assert len(plan.steps) == 8
    assert len(sorts) == 9
