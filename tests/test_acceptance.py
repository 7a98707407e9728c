"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every numeric assertion is exact rational equality; the time
limits are generous end-to-end budgets, checked with a wall clock.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import (diag6_matrix, five_line_matrix, random_generic_matrix,
                      shear_matrix, three_line_matrix)
from tropmf import (Boundary, VertexSet, apexes, block_diagonal,
                    block_diagonal_weights, build_wf, cell111, certify,
                    classify, covector_at, diagonal, induce, induce_geometric,
                    is_hull_vertex, member, midpoint, mf_diff,
                    plan_block_to_diagonal, plucker_weights, star, swap,
                    tropical_map, triples, vertex_of, vertices, x_order)
from tropmf.cli import RenderOptions, render
from tropmf.planner import plan_to_text
from tropmf.polytope import pair as inner

_RANDOM_POOL = None


def random_pool():
    """100 random generic integer matrices, 25 per size 4..7, seeded."""
    global _RANDOM_POOL
    if _RANDOM_POOL is None:
        rng = random.Random(20240901)
        _RANDOM_POOL = [random_generic_matrix(rng, n)
                        for n in (4, 5, 6, 7) for _ in range(25)]
    return _RANDOM_POOL


def report(number, name, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, "criterion %d took %.1fs (limit %ds)" % (
        number, elapsed, limit)
    print("ACCEPTANCE %2d (%s): PASS in %.2fs" % (number, name, elapsed))


def test_criterion_01_weights_and_diagonal_field():
    t0 = time.perf_counter()
    M = diag6_matrix()
    w = plucker_weights(M)
    assert w[(1, 2, 3)] == 12
    assert w[(1, 2, 4)] == 10
    assert w[(4, 5, 6)] == 3
    L = induce(M)
    D = diagonal(6)
    assert len(L.assignment) == 20
    for T in triples(6):
        assert L[T] == D[T]
    report(1, "collinear matrix weights and field", t0, 1)


def test_criterion_02_three_line_covector():
    t0 = time.perf_counter()
    A = apexes(three_line_matrix())
    q = (Fraction(3, 2), Fraction(9, 5))
    cov = covector_at(A, q, {1, 2, 3})
    rightmost, middle, leftmost = 3, 2, 1
    assert cov.s1 == {rightmost}
    assert cov.s2 == {middle}
    assert cov.s3 == {leftmost}
    _, cell_cov = cell111(A, (1, 2, 3))
    assert cell_cov == cov
    report(2, "three-line cell covector", t0, 1)


def test_criterion_03_geometric_equals_algebraic():
    t0 = time.perf_counter()
    checked = 0
    for M in [diag6_matrix(), five_line_matrix()]:
        assert induce_geometric(apexes(M)) == induce(M)
        checked += 1
    for n in range(3, 9):
        for ell in range(n + 1):
            M = block_diagonal_weights(n, ell)
            assert induce_geometric(apexes(M)) == induce(M)
            checked += 1
    pool = random_pool()
    assert len(pool) >= 100
    for M in pool:
        assert induce_geometric(apexes(M)) == induce(M)
        checked += 1
    assert checked >= 102
    report(3, "geometric/algebraic agreement x%d" % checked, t0, 60)


def test_criterion_04_block_diagonal_oracle():
    t0 = time.perf_counter()
    for n in range(3, 9):
        for ell in range(n + 1):
            assert induce(block_diagonal_weights(n, ell)) == block_diagonal(n, ell)
    report(4, "block-diagonal weight construction", t0, 30)


def test_criterion_05_five_line_swap_pipeline():
    t0 = time.perf_counter()
    M = five_line_matrix()
    S = star(apexes(M), 3, 4)
    assert (S.a, S.b, S.c, S.d) == (True, True, True, True)
    assert S.red == (1,)
    assert S.red_purple == (1, 2)
    assert S.yellow_green == (5,)
    M2, eps = swap(M, 3, 4)
    assert mf_diff(induce(M), induce(M2)) == [
        ((1, 3, 4), (4, 3, 1), (3, 4, 1))]
    cert = certify(M, 3, 4)
    assert cert.k2 is True
    critical = ((4, 3, 1), (5, 2, 4))
    direct = member(midpoint(vertex_of(critical[0], 5),
                             vertex_of(critical[1], 5)),
                    vertices(induce(M2)))
    assert (critical in cert.k3_failures) == (not direct)
    expected_verdict = ("VERIFIED" if cert.k1 and cert.k2 and cert.k3
                        and cert.k4 else "REFUTED")
    assert cert.verdict == expected_verdict
    report(5, "five-line swap pipeline, verdict %s" % cert.verdict, t0, 5)


def test_criterion_06_slab_invariant():
    t0 = time.perf_counter()
    from tropmf import TiedX
    matrices = [diag6_matrix(), five_line_matrix(), shear_matrix(),
                three_line_matrix()] + random_pool()
    pairs_checked = 0
    for M in matrices:
        A = apexes(M)
        try:
            order = x_order(A)
        except TiedX:
            continue    # no left-right order, hence no adjacent pairs
        V = vertices(induce(M))
        for i, j in zip(order, order[1:]):
            try:
                R = classify(A, i, j)
            except Boundary:
                continue
            D = build_wf(A, i, j, R)
            for t in V:
                assert inner(D.f, vertex_of(t, M.n)) in (-1, 0, 1)
            pairs_checked += 1
    assert pairs_checked >= 100
    report(6, "slab invariant over %d pairs" % pairs_checked, t0, 120)


def test_criterion_07_block2_plan():
    t0 = time.perf_counter()
    plan = plan_block_to_diagonal(6, 2)
    assert len(plan.steps) == 8
    migrations = {}
    for s in plan.steps:
        migrations[s.i] = migrations.get(s.i, 0) + 1
    assert migrations == {1: 4, 2: 4}
    field = dict(induce(block_diagonal_weights(6, 2)).assignment)
    for s in plan.steps:
        for T, before, after in s.diff:
            assert field[T] == before
            field[T] = after
    assert field == diagonal(6).assignment
    for s in plan.steps:
        if s.kind == "MUTATION":
            assert s.k2 is True
    text1 = plan_to_text(plan, source="block-diagonal 6 2")
    text2 = plan_to_text(plan_block_to_diagonal(6, 2),
                         source="block-diagonal 6 2")
    assert text1 == text2
    counts = plan.summary()
    assert counts["noop"] + counts["shear"] + counts["mutation"] == 8
    report(7, "block-2 plan: %(noop)d noop / %(shear)d shear / "
              "%(mutation)d mutation" % counts, t0, 60)


def test_criterion_08_hull_oracle():
    t0 = time.perf_counter()
    V = vertices(diagonal(6))
    assert len(V) == 20
    assert all(is_hull_vertex(t, V) for t in V)
    tabs = sorted(V.points, reverse=True)
    pts = [vertex_of(t, 6) for t in tabs]
    assert member(midpoint(pts[0], pts[-1]), V)
    assert member(midpoint(pts[3], pts[11]), V)
    rng = random.Random(5)
    m = midpoint(pts[2], pts[9])
    baseline = member(m, V)
    for _ in range(3):
        shuffled = list(tabs)
        rng.shuffle(shuffled)
        assert member(m, VertexSet(6, frozenset(shuffled))) == baseline
    report(8, "hull oracle on the 20-vertex polytope", t0, 10)


def test_criterion_09_shear_fixture():
    t0 = time.perf_counter()
    M = shear_matrix()
    cert = certify(M, 3, 4)
    assert cert.kind == "SHEAR"
    assert cert.verdict == "VERIFIED"
    A = apexes(M)
    D = build_wf(A, 3, 4, classify(A, 3, 4))
    V = vertices(induce(M))
    images = set()
    for t in V:
        p = vertex_of(t, 4)
        img = tropical_map(p, D)
        linear = tuple(tuple(p[r][c] - inner(D.f, p) * D.w[r][c]
                             for c in range(4)) for r in range(3))
        assert img == linear
        undone = tuple(tuple(img[r][c] + inner(D.f, img) * D.w[r][c]
                             for c in range(4)) for r in range(3))
        assert undone == p
        images.add(img)
    assert len(images) == len(V)
    report(9, "one-sided swap is an invertible shear", t0, 5)


def test_criterion_10_render():
    t0 = time.perf_counter()
    import xml.etree.ElementTree as ET
    ns = "{http://www.w3.org/2000/svg}"
    svg = render(apexes(diag6_matrix()), RenderOptions())
    root = ET.fromstring(svg)
    groups = [g for g in root.iter(ns + "g") if g.get("class") == "tropline"]
    rays = [ln for g in groups for ln in g.findall(ns + "line")]
    assert len(groups) == 6
    assert len(rays) == 18
    opts = RenderOptions(pair=(3, 4), draw_regions=True)
    svg_a = render(apexes(five_line_matrix()), opts)
    svg_b = render(apexes(five_line_matrix()), opts)
    assert svg_a == svg_b
    root5 = ET.fromstring(svg_a)
    regions = [p for p in root5.iter(ns + "polygon")
               if "region" in (p.get("class") or "")]
    assert len(regions) == 6
    report(10, "deterministic SVG with regions", t0, 10)
