"""Locality: each verdict of a swap is decided on at most six lines.

A triple's tableau depends only on its own three columns, a line k's
region only on the apexes of i, j and k, and w and f restrict column by
column.  So the k1-k4 facts of a vertex pair (u, v) are decided by the
lines of u, v, i and j, and a landing is refused by one triple through
i.  Each property restricts a generic matrix M to a set S of its
columns, M|S, and certifies the pair there.
"""

import itertools

from hypothesis import assume, example, given, settings, strategies as st

from conftest import five_line_matrix
from tropmf import TiedX, WeightMatrix, certify, genericity

NO_LANDING = "no landing offset"


def restrict(M: WeightMatrix, S) -> tuple:
    """(M|S, label): the columns S of M, kept in order and relabelled
    1..|S|, and the map from an old column to its new label."""
    cols = sorted(S)
    label = {c: k for k, c in enumerate(cols, 1)}
    return (WeightMatrix.from_rows([[row[c - 1] for c in cols]
                                    for row in M.rows]), label)


def certify_on(M: WeightMatrix, cert, S):
    """The certificate of cert's pair on M|S, and the column relabelling."""
    local, label = restrict(M, S)
    return certify(local, label[cert.i], label[cert.j]), label


@st.composite
def generic_matrices(draw):
    n = draw(st.integers(5, 8))
    row = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    return WeightMatrix.from_rows(draw(st.lists(row, min_size=3,
                                                max_size=3)))


def adjacent_swaps(M: WeightMatrix):
    """certify on every adjacent pair of M, left line first."""
    assume(genericity(M).ok)
    try:
        order = M.x_order
    except TiedX:
        assume(False)
    return [certify(M, i, j) for i, j in zip(order, order[1:])]


@settings(max_examples=150, deadline=None)
@given(generic_matrices())
@example(five_line_matrix())
def test_battery_failures_come_back_on_their_own_lines(M):
    for cert in adjacent_swaps(M):   # a stop has no battery failures
        for battery in ("k3_failures", "k4_failures"):
            for u, v in getattr(cert, battery):
                local, label = certify_on(M, cert, {*u, *v, cert.i, cert.j})
                assert local.matrix_after is not None
                pair = (tuple(label[c] for c in u), tuple(label[c] for c in v))
                assert pair in getattr(local, battery)


@settings(max_examples=40, deadline=None)
@given(generic_matrices())
@example(five_line_matrix())
def test_verified_swaps_pass_on_every_four_other_lines(M):
    # The star groups shrink on M|S, so its verdict may be INAPPLICABLE.
    for cert in adjacent_swaps(M):
        if cert.verdict != "VERIFIED":
            continue
        others = [c for c in range(1, M.n + 1) if c not in (cert.i, cert.j)]
        for four in itertools.combinations(others, min(4, len(others))):
            local, _ = certify_on(M, cert, {cert.i, cert.j, *four})
            assert local.matrix_after is not None
            assert (local.k1, local.k2, local.k3, local.k4) == (True,) * 4


@settings(max_examples=60, deadline=None)
@given(generic_matrices())
@example(five_line_matrix())
def test_no_landing_offset_comes_back_on_two_other_lines(M):
    for cert in adjacent_swaps(M):
        if not (cert.stop or "").startswith(NO_LANDING):
            continue
        others = [c for c in range(1, M.n + 1) if c not in (cert.i, cert.j)]
        assert any((certify_on(M, cert, {cert.i, cert.j, *few})[0].stop
                    or "").startswith(NO_LANDING)
                   for size in (1, 2)
                   for few in itertools.combinations(others, size))
