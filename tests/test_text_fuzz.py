"""The four text formats: weight matrix, field, certificate and plan.

Certificate and plan texts are read back only when they are exactly
what the writer gives: every single-token edit either raises ValueError
or parses to an object whose writer gives back the edited text.  Every
reader raises only ValueError on arbitrary text, and drawn matrices and
fields survive their writer followed by their reader.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import five_line_matrix
from tropmf import (MatchingField, WeightMatrix, certificate_to_text, certify,
                    matching_field_from_text, matching_field_to_text,
                    parse_certificate, parse_plan, plan_block_to_diagonal,
                    plan_to_text, weight_matrix_from_text,
                    weight_matrix_to_text)

REPLACEMENTS = ("", "x", "1/0", "1 2", "1 2 3 4", "*")

CERTIFICATE = certificate_to_text(certify(five_line_matrix(), 3, 4))
PLAN = plan_to_text(plan_block_to_diagonal(5, 2), source="block-diagonal 5 2")


def rewrite_plan(text):
    return plan_to_text(*parse_plan(text))


def rewrite_certificate(text):
    return certificate_to_text(parse_certificate(text))


READERS = (weight_matrix_from_text, matching_field_from_text,
           parse_certificate, parse_plan)


@st.composite
def token_edits(draw, text):
    """text with one whitespace-separated token replaced."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    start, end = draw(st.sampled_from(spans))
    return text[:start] + draw(st.sampled_from(REPLACEMENTS)) + text[end:]


def assert_exact_or_value_error(rewrite, text):
    try:
        written = rewrite(text)
    except ValueError:
        return
    assert written == text


@settings(max_examples=400, deadline=None)
@given(token_edits(CERTIFICATE))
def test_edited_certificate_parses_or_raises_value_error(text):
    assert_exact_or_value_error(rewrite_certificate, text)


@settings(max_examples=200, deadline=None)
@given(token_edits(PLAN))
def test_edited_plan_parses_or_raises_value_error(text):
    assert_exact_or_value_error(rewrite_plan, text)


@pytest.mark.parametrize("line, value", [
    ("epsilon: 1", "epsilon: 1/0"),
    ("  0 0 0 0 0", "  1/0 0 0 0 0"),
    ("5 2 1 -> 5 2 1", "5 2 1 -> 5 1 2 1"),
    ("1 3 4 : 4 3 1 -> 3 4 1", "1 3 4 5 : 4 3 1 -> 3 4 1"),
    ("k3-fail: 4 3 1 | 5 2 4", "k3-fail: 4 3 | 5 2 4"),
    ("verdict: REFUTED", "verdict: FOO"),
    ("kind: MUTATION", "kind: mutation"),
    ("case: ONE", "case: THREE"),
    ("version: 1", "version: 2"),
    ("overall: true", "overall: false"),
    ("a: true", "a: x"),
    ("  3 5", "  3 6"),
    ("k1-slab: pass", "k1-slab: maybe"),
])
def test_certificate_edit_raises_value_error(line, value):
    assert line + "\n" in CERTIFICATE
    with pytest.raises(ValueError):
        parse_certificate(CERTIFICATE.replace(line + "\n", value + "\n", 1))


def test_rewrite_mismatch_names_the_line():
    edited = CERTIFICATE.replace("a: true\n", "a: x\n", 1)
    at = edited.splitlines().index("a: x") + 1
    with pytest.raises(ValueError, match="line %d reads 'a: x" % at):
        parse_certificate(edited)


@pytest.mark.parametrize("line, value", [
    ("verified: 6", "verified: 5"),
    ("n: 5", "n: 4"),
    ("END-PLAN", "END"),
])
def test_plan_edit_raises_value_error(line, value):
    assert line + "\n" in PLAN
    with pytest.raises(ValueError):
        parse_plan(PLAN.replace(line + "\n", value + "\n", 1))


def test_plan_steps_must_chain():
    # Step 3 as written by itself is a well-formed certificate; it must
    # also start from step 2's matrix and x order.
    lines = PLAN.splitlines()
    step = lines.index("STEP 3")
    digest = next(k for k in range(step, len(lines))
                  if lines[k].startswith("digest: "))
    before = next(k for k in range(step, len(lines))
                  if lines[k].startswith("order-before: "))
    first = next(ln for ln in lines if ln.startswith("order-before: "))
    assert lines[before] != first
    for at, value in ((digest, "digest: x"), (before, first)):
        edited = list(lines)
        edited[at] = value
        with pytest.raises(ValueError, match="plan step 3"):
            parse_plan("\n".join(edited) + "\n")


@pytest.mark.parametrize("read, text", [(parse_certificate, CERTIFICATE),
                                        (parse_plan, PLAN)],
                         ids=["certificate", "plan"])
def test_trailing_text_and_line_ends_raise_value_error(read, text):
    for bad in (text + "\n", text + "END\n", text[:-1],
                text.replace("\n", "\r\n")):
        with pytest.raises(ValueError):
            read(bad)


def test_plan_matrix_zero_denominator_raises_value_error():
    lines = PLAN.splitlines()
    at = lines.index("matrix:") + 2
    lines[at] = "  1/0 " + lines[at].split(None, 1)[1]
    with pytest.raises(ValueError, match="1/0"):
        parse_plan("\n".join(lines) + "\n")


# --- arbitrary text --------------------------------------------------------

def format_lines():
    """Lines of every format, whole and cut at a space."""
    pool = set(CERTIFICATE.splitlines()) | set(PLAN.splitlines())
    pool |= {"3 5", "0 0 0", "1 2 3 : 3 2 1", "1 2 4 : 1 2 4"}
    cut = {ln.rsplit(" ", 1)[0] for ln in pool}
    return sorted(pool | cut)


arbitrary_text = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(format_lines()),
                       st.text(alphabet="0123456789 -/:|*>.eExabc\t\r"))
             ).map(lambda lines: "\n".join(lines) + "\n"),
    token_edits(CERTIFICATE),
    token_edits(PLAN),
)


@settings(max_examples=300, deadline=None)
@given(arbitrary_text)
def test_readers_raise_only_value_error(text):
    for read in READERS:
        try:
            read(text)
        except ValueError:
            pass


# --- drawn objects ---------------------------------------------------------

rationals = st.fractions(max_denominator=50).filter(
    lambda q: abs(q.numerator) < 10 ** 6)


@st.composite
def weight_matrices(draw):
    n = draw(st.integers(2, 7))
    return WeightMatrix.from_rows(
        [[draw(rationals) for _ in range(n)] for _ in range(3)])


@st.composite
def fields(draw):
    """A (not necessarily coherent) field: one row order per triple."""
    n = draw(st.integers(3, 7))
    perms = list(itertools.permutations(range(3)))
    assignment = {}
    for T in itertools.combinations(range(1, n + 1), 3):
        perm = draw(st.sampled_from(perms))
        assignment[T] = tuple(T[t] for t in perm)
    return MatchingField(n, assignment)


@settings(max_examples=100, deadline=None)
@given(weight_matrices())
def test_weight_matrix_survives_its_text(M):
    text = weight_matrix_to_text(M)
    assert weight_matrix_from_text(text) == M
    assert weight_matrix_to_text(weight_matrix_from_text(text)) == text


@settings(max_examples=100, deadline=None)
@given(fields())
def test_field_survives_its_text(L):
    text = matching_field_to_text(L)
    assert matching_field_from_text(text) == L
    assert matching_field_to_text(matching_field_from_text(text)) == text
