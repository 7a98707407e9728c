"""Mutation data, the tropical map, verified swaps, and certificates."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (blue_obstruction_matrix, closer_threshold_matrix,
                      diag6_matrix, five_line_matrix, golden_texts,
                      shear_matrix)
from tropmf import (Boundary, Case, NotAdjacent, NotSwappable,
                    PatternMismatch, Region, RegionAssignment, SlabViolation,
                    TieError, TiedX, VertexSet, WeightMatrix, apexes,
                    build_wf, certificate_to_text, certify, classify,
                    expected_flip, genericity, induce, member, mf_diff,
                    midpoint, parse_certificate, star, swap, tableau_of,
                    tropical_map, vertex_of, vertices, witness_table, x_order)
from tropmf import arrange, mutate, regions
from tropmf.mutate import _landing_gap
from tropmf.polytope import lattice_point, pair as inner


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


def test_swap_empty_red_is_field_preserving(diag6):
    M2, _ = swap(diag6, 6, 5)
    assert induce(M2) == induce(diag6)


def _swap_by_halving(M: WeightMatrix, i: int, j: int):
    """Reference: the halving search that swap replaced, kept verbatim.

    Tries eps = gap/2, gap/4, .. (64 steps) and accepts the first offset
    whose matrix is generic, has the transposed x order and induces the
    red-flip prediction.
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
    gap = _landing_gap(A, order, j)
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
    n = draw(st.integers(3, 7))
    rows = [[draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(3)]
    i = draw(st.integers(1, n))
    j = draw(st.integers(1, n).filter(lambda c: c != i))
    return WeightMatrix.from_rows(rows), (i, j)


@settings(max_examples=60, deadline=None)
@given(swap_cases())
def test_swap_equals_halving_reference(case):
    M, extra = case
    for i, j in swap_pairs(M, extra):
        assert _outcome(swap, M, i, j) == _outcome(_swap_by_halving, M, i, j)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
             min_size=3, max_size=3),
    st.integers(1, n), st.integers(1, 40))))
def test_offset_interval_is_exact_acceptance_set(case):
    # In a swap the lower end of the interval is always 0 (a red line
    # lies below line j), so this drives _offset_interval directly: the
    # field induced at some offset is the target, and probes at and
    # around both ends must agree with induce.
    rows, i, quarters = case
    M0 = WeightMatrix.from_rows(rows)
    m2i = M0.entry(2, i)

    def field_at(eps):
        try:
            return induce(M0.with_entry(2, i, m2i + eps))
        except TieError:
            return None

    star_eps = Fraction(quarters, 4)
    expected = field_at(star_eps)
    assume(expected is not None)
    gap = Fraction(100)
    lo, hi = mutate._offset_interval(M0, i, expected, gap)
    assert lo < star_eps < hi
    probes = {(lo + star_eps) / 2, (star_eps + hi) / 2, lo, hi,
              lo - Fraction(1, 8), hi + Fraction(1, 8)}
    for eps in probes:
        if 0 < eps < gap:
            assert (field_at(eps) == expected) == (lo < eps < hi)


def test_swap_recheck_catches_wrong_interval(monkeypatch):
    # Scaling every placement weight by 1000 keeps each sign but widens
    # the offset interval of the closer-threshold swap from (0, 1) to
    # (0, 1000), so gap/2 = 1 is picked; there the triple {1, 3, 5} is
    # tied, and the re-check with the true weights refuses the matrix.
    real = mutate.placement_weight
    monkeypatch.setattr(mutate, "placement_weight",
                        lambda M, tab: 1000 * real(M, tab))
    with pytest.raises(AssertionError, match="re-check"):
        swap(closer_threshold_matrix(), 3, 4)


# --- witness table ----------------------------------------------------------

def test_witness_table_five():
    M, A, R, D = five_setup()
    table = witness_table(vertices(induce(M)), D, R)
    by_pair = {(e.u, e.v): e for e in table}
    assert len(table) == 3
    e1 = by_pair[((4, 3, 1), (5, 2, 1))]
    assert {e1.t, e1.t2} == {(5, 3, 1), (4, 2, 1)}
    e2 = by_pair[((4, 3, 1), (5, 2, 3))]
    assert {e2.t, e2.t2} == {(5, 3, 1), (4, 2, 3)}
    e3 = by_pair[((4, 3, 1), (5, 2, 4))]
    assert e3.kind == "none"
    assert e3.t is None and e3.t2 is None


def test_witness_table_rejects_out_of_slab_points():
    M, _, R, D = five_setup()
    # A tableau pairs with a build_wf f to -1, 0 or 1, so put an entry 2
    # in f: every vertex with 5 in row 1 pairs to 2.
    bad = replace(D, f=lattice_point([[0, 0, 0, 0, 2], [0] * 5, [0] * 5]))
    with pytest.raises(SlabViolation):
        witness_table(vertices(induce(M)), bad, R)


def test_witness_sums_and_pairings():
    M, A, R, D = five_setup()
    V = vertices(induce(M))
    for e in witness_table(V, D, R):
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
    with pytest.raises(ValueError, match="exponent"):
        parse_certificate("\n".join(lines) + "\n")


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
    with pytest.raises(AssertionError, match="the LP does"):
        mutate._midpoint_in_hull(u, v, P)


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
    # One x_order for M in certify and one in the swap's re-check of M2;
    # the classification reads certify's order instead of sorting again.
    calls = []

    def counted(A):
        calls.append(A)
        return x_order(A)

    for module in (arrange, mutate, regions):
        if hasattr(module, "x_order"):
            monkeypatch.setattr(module, "x_order", counted)
    certify(five, 3, 4)
    assert len(calls) == 2
