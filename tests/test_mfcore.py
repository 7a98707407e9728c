"""Weight matrices, induced fields, block-diagonal constructions, diffs."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropmf import (BadSize, SizeMismatch, TieError,
                    WeightMatrix, block_diagonal, block_diagonal_weights,
                    diagonal, genericity, induce, matching_field_from_text,
                    matching_field_to_text, mf_diff, normalize,
                    plucker_weights, tableau_sign, triples,
                    weight_matrix_from_text, weight_matrix_to_text)
from tropmf.mfcore import _rational


def brute_minimum(M, T):
    """Independent enumeration of the six placements of a triple."""
    weights = sorted(
        (M.rows[0][a - 1] + M.rows[1][b - 1] + M.rows[2][c - 1], (a, b, c))
        for a, b, c in itertools.permutations(T))
    return weights[0]


def fraction_argmins(M):
    """Reference in Fractions: per triple, the least placement weight and
    every placement that attains it."""
    out = {}
    for T in itertools.combinations(range(1, M.n + 1), 3):
        weights = {tab: sum(M.rows[r][c - 1] for r, c in enumerate(tab))
                   for tab in itertools.permutations(T)}
        low = min(weights.values())
        out[T] = low, [tab for tab, w in weights.items() if w == low]
    return out


@st.composite
def rational_matrices(draw):
    """3 x n entries p/q with |p| <= 40 and q <= 6; a narrow p range in
    some draws makes tied triples common."""
    n = draw(st.integers(3, 7))
    bound = draw(st.sampled_from([2, 40]))
    entry = st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 6))
    return WeightMatrix.from_rows(
        [[draw(entry) for _ in range(n)] for _ in range(3)])


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
@example(WeightMatrix.from_rows([[0] * 4] * 3))
@example(WeightMatrix.from_rows([[Fraction(1, 6), Fraction(-5, 4), 2],
                                 [Fraction(1, 3), 0, Fraction(7, 5)],
                                 [-40, Fraction(1, 2), Fraction(-2, 3)]]))
def test_int_core_equals_fraction_reference(M):
    # induce, genericity and plucker_weights decide on ints scaled by the
    # common denominator; each must equal the Fraction enumeration.
    ref = fraction_argmins(M)
    tied = tuple(T for T, (_, winners) in ref.items() if len(winners) > 1)
    assert plucker_weights(M) == {T: low for T, (low, _) in ref.items()}
    report = genericity(M)
    assert report.ok == (not tied) and report.offending == tied
    if tied:
        with pytest.raises(TieError) as e:
            induce(M)
        assert e.value.triple == tied[0]
    else:
        assert induce(M).assignment == {T: winners[0]
                                        for T, (_, winners) in ref.items()}


# --- normalize -------------------------------------------------------------

def test_normalize_identity_when_first_row_zero(diag6):
    assert normalize(diag6) == diag6


def test_normalize_shifts_columns():
    M = WeightMatrix.from_rows([[1] * 4, [3, 1, 4, 0], [5, 9, 2, 6]])
    N = normalize(M)
    assert all(x == 0 for x in N.rows[0])
    assert N.rows[1] == tuple(Fraction(v) for v in (2, 0, 3, -1))
    assert N.rows[2] == tuple(Fraction(v) for v in (4, 8, 1, 5))
    assert induce(N) == induce(M)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_normalize_preserves_induced_field(rows):
    M = WeightMatrix.from_rows(rows)
    if not genericity(M).ok:
        return
    assert induce(normalize(M)) == induce(M)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=3, max_size=3),
       st.integers(1, 4), st.integers(-5, 5))
def test_column_shift_preserves_induced_field(rows, col, shift):
    M = WeightMatrix.from_rows(rows)
    if not genericity(M).ok:
        return
    shifted = M
    for r in (1, 2, 3):
        shifted = shifted.with_entry(r, col, M.entry(r, col) + shift)
    assert induce(shifted) == induce(M)


# --- genericity ------------------------------------------------------------

def test_genericity_of_fixtures(diag6, five):
    assert genericity(diag6).ok
    assert genericity(five).ok


def test_genericity_total_tie():
    M = WeightMatrix.from_rows([[0] * 3] * 3)
    rep = genericity(M)
    assert not rep.ok
    assert rep.offending == ((1, 2, 3),)


# --- induce ----------------------------------------------------------------

def test_induce_diagonal(diag6):
    assert induce(diag6) == diagonal(6)


def test_induce_five_line_values(five):
    L = induce(five)
    assert L[(1, 3, 4)] == (4, 3, 1)
    assert L[(2, 4, 5)] == (5, 2, 4)


def test_induce_tie_error():
    M = WeightMatrix.from_rows([[0] * 3] * 3)
    with pytest.raises(TieError) as err:
        induce(M)
    assert err.value.triple == (1, 2, 3)


def test_induce_matches_brute_force(five, diag6):
    for M in (five, diag6):
        L = induce(M)
        for T in triples(M.n):
            assert L[T] == brute_minimum(M, T)[1]


# --- plucker weights -------------------------------------------------------

def test_plucker_weights_on_diag6(diag6):
    w = plucker_weights(diag6)
    assert w[(1, 2, 3)] == 12
    assert w[(1, 2, 4)] == 10
    assert w[(4, 5, 6)] == 3
    assert w[(1, 3, 4)] == 9


def test_plucker_weights_zero_matrix():
    M = WeightMatrix.from_rows([[0] * 4] * 3)
    assert all(v == 0 for v in plucker_weights(M).values())


def test_plucker_weights_match_enumeration(five):
    w = plucker_weights(five)
    for T in triples(5):
        assert w[T] == brute_minimum(five, T)[0]


# --- diagonal / block diagonal ---------------------------------------------

def test_diagonal_small():
    assert diagonal(3).assignment == {(1, 2, 3): (1, 2, 3)}
    L = diagonal(5)
    assert len(L.assignment) == 10
    assert all(tab == T for T, tab in L.assignment.items())
    with pytest.raises(BadSize):
        diagonal(2)


def test_block_diagonal_rules():
    assert block_diagonal(6, 0) == diagonal(6)
    B2 = block_diagonal(6, 2)
    assert B2[(1, 3, 4)] == (3, 1, 4)
    assert B2[(1, 2, 5)] == (1, 2, 5)
    with pytest.raises(BadSize):
        block_diagonal(6, 7)


def test_block_diagonal_weights_construction():
    M = block_diagonal_weights(6, 2)
    assert M.rows[1] == tuple(Fraction(v) for v in (2, 1, 6, 5, 4, 3))
    assert M.rows[2] == tuple(36 * Fraction(v) for v in (6, 5, 4, 3, 2, 1))
    assert induce(M)[(1, 3, 4)] == (3, 1, 4)


@pytest.mark.parametrize("n", range(3, 9))
def test_block_diagonal_weights_induce_block_diagonal(n):
    for ell in range(n + 1):
        M = block_diagonal_weights(n, ell)
        assert M.is_normalized
        assert genericity(M).ok
        assert induce(M) == block_diagonal(n, ell)


# --- tableau sign ----------------------------------------------------------

def test_tableau_sign():
    assert tableau_sign((1, 2, 3)) == 1
    assert tableau_sign((3, 1, 4)) == -1
    assert tableau_sign((4, 3, 1)) == -1
    for tab in itertools.permutations((2, 5, 7)):
        swapped = (tab[1], tab[0], tab[2])
        assert tableau_sign(tab) == -tableau_sign(swapped)


# --- diff ------------------------------------------------------------------

def test_mf_diff_empty_and_block(five):
    L = induce(five)
    assert mf_diff(L, L) == []
    d = mf_diff(diagonal(6), block_diagonal(6, 1))
    assert [entry[0] for entry in d] == [T for T in triples(6) if 1 in T]
    for T, a, b in d:
        assert a == T
        assert b == (T[1], T[0], T[2])
    with pytest.raises(SizeMismatch):
        mf_diff(diagonal(5), diagonal(6))


# --- file formats ----------------------------------------------------------

def test_weight_matrix_roundtrip():
    M = WeightMatrix.from_rows([[0, Fraction(-3, 7), 2],
                                [Fraction(1, 2), 5, -1],
                                [9, Fraction(22, 3), 0]])
    text = weight_matrix_to_text(M)
    assert weight_matrix_from_text(text) == M
    assert weight_matrix_to_text(weight_matrix_from_text(text)) == text


def test_cached_apex_ints_and_text_stay_with_their_rows(five):
    """A copy with one entry replaced computes its own apex ints and text,
    equal to those of a fresh matrix of the same rows."""
    cached = (five.apex_ints, five.text)
    M = five.with_entry(3, 2, Fraction(5, 3))
    fresh = WeightMatrix.from_rows(M.rows)
    assert (M.apex_ints, M.text) == (fresh.apex_ints, fresh.text)
    assert M.apex_ints != cached[0] and M.text != cached[1]
    assert (five.apex_ints, five.text) == cached
    assert fresh.text == "3 5\n0 0 0 0 0\n-2 -3 0 2 4\n-12 5/3 0 4 8\n"
    assert fresh.apex_ints == ((-6, -9, 0, 6, 12), (-36, 5, 0, 12, 24), 3)


def test_matching_field_roundtrip(five):
    L = induce(five)
    text = matching_field_to_text(L)
    assert matching_field_from_text(text) == L
    assert matching_field_to_text(matching_field_from_text(text)) == text


def test_weight_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        weight_matrix_from_text("3 2\n0 0\n0 0\n")
    with pytest.raises(ValueError):
        weight_matrix_from_text("2 3\n0 0 0\n0 0 0\n")


@pytest.mark.parametrize("token", ["1e3", "2E-1"])
def test_weight_matrix_rejects_exponent_tokens(token):
    with pytest.raises(ValueError, match=token):
        weight_matrix_from_text("3 2\n0 0\n%s 0\n0 0\n" % token)
    M = weight_matrix_from_text("3 2\n0 0\n1/2 0.25\n-3 0\n")
    assert M.rows[1] == (Fraction(1, 2), Fraction(1, 4))


def test_weight_matrix_rejects_zero_denominator():
    with pytest.raises(ValueError, match="1/0"):
        weight_matrix_from_text("3 2\n0 0\n1/0 0\n0 0\n")


@pytest.mark.parametrize("token, message", [
    ("7", None), ("-0", None), ("007", None), ("+7", None), ("1_000", None),
    ("\u0663", None), ("0.25", None), ("-3/4", None),
    ("-", "Invalid literal for Fraction: '-'"),
    ("--1", "Invalid literal for Fraction: '--1'"),
    ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),
    ("1/0", "zero denominator: '1/0'"),
    ("1e3", "exponent notation is not accepted: '1e3'"),
    ("2E-1", "exponent notation is not accepted: '2E-1'"),
])
def test_rational_token_is_fraction_or_refused(token, message):
    # Integer tokens skip Fraction's parser; every token must still give
    # Fraction(token) or the same refusal as before.
    if message is None:
        value = _rational(token)
        assert value == Fraction(token) and type(value) is Fraction
    else:
        with pytest.raises(ValueError) as refused:
            _rational(token)
        assert str(refused.value) == message


@pytest.mark.parametrize("sign", ["", "-"])
def test_rational_refuses_integers_past_the_digit_limit(sign):
    token = sign + "9" * 5000
    with pytest.raises(ValueError) as want:
        Fraction(token)
    with pytest.raises(ValueError) as got:
        _rational(token)
    assert str(got.value) == str(want.value)


def test_from_rows_gives_fraction_entries():
    rows = [[1, -2, 0], ["3/4", "-0.5", "7"], [Fraction(5, 3), 0.25, -1.5]]
    M = WeightMatrix.from_rows(rows)
    assert all(type(x) is Fraction for row in M.rows for x in row)
    assert M.rows == tuple(tuple(Fraction(x) for x in row) for row in rows)
    assert M.rows[2][0] is rows[2][0]


@pytest.mark.parametrize("extra", ["3 2 1 : 1 2 3", "0 1 2 : 0 1 2"])
def test_matching_field_rejects_keys_outside_triples(extra):
    with pytest.raises(ValueError):
        matching_field_from_text("1 2 3 : 1 2 3\n%s\n" % extra)


def test_matching_field_rejects_duplicate_triple():
    with pytest.raises(ValueError, match="duplicate"):
        matching_field_from_text("1 2 3 : 1 2 3\n1 2 3 : 3 2 1\n")


def test_matching_field_rejects_missing_triple_and_foreign_tableau():
    text = matching_field_to_text(diagonal(4))
    with pytest.raises(ValueError,
                       match=re.escape("missing triple (1, 3, 4)")):
        matching_field_from_text(text.replace("1 3 4 : 1 3 4\n", ""))
    with pytest.raises(ValueError, match=re.escape(
            "tableau (1, 3, 2) is not a permutation of (1, 3, 4)")):
        matching_field_from_text(text.replace("1 3 4 : 1 3 4",
                                              "1 3 4 : 1 3 2"))


@pytest.mark.parametrize("rows, message", [
    ([[0, 0, 0], [1, 2, 3]], "a weight matrix has exactly 3 rows"),
    ([[0, 0, 0], [1, 2, 3], [4, 5]], "rows must have equal length >= 2")])
def test_from_rows_rejects_bad_shapes(rows, message):
    with pytest.raises(BadSize, match=message):
        WeightMatrix.from_rows(rows)
