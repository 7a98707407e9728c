"""Single-token edits of the certificate and plan text formats: each
edited text either parses to an object the matching writer accepts, or
raises ValueError."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import five_line_matrix
from tropmf import (certificate_to_text, certify, parse_certificate,
                    parse_plan, plan_block_to_diagonal, plan_to_text)
from tropmf.planner import parsed_plan_to_text

REPLACEMENTS = ("", "x", "1/0", "1 2", "1 2 3 4", "*")

CERTIFICATE = certificate_to_text(certify(five_line_matrix(), 3, 4))
PLAN = plan_to_text(plan_block_to_diagonal(5, 2), source="block-diagonal 5 2")


@st.composite
def token_edits(draw, text):
    """text with one whitespace-separated token replaced."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    start, end = draw(st.sampled_from(spans))
    return text[:start] + draw(st.sampled_from(REPLACEMENTS)) + text[end:]


def parse_and_write(parse, write, text):
    try:
        parsed = parse(text)
    except ValueError:
        return
    write(parsed)


@settings(max_examples=400, deadline=None)
@given(token_edits(CERTIFICATE))
def test_edited_certificate_parses_or_raises_value_error(text):
    parse_and_write(parse_certificate, certificate_to_text, text)


@settings(max_examples=200, deadline=None)
@given(token_edits(PLAN))
def test_edited_plan_parses_or_raises_value_error(text):
    parse_and_write(parse_plan, parsed_plan_to_text, text)


@pytest.mark.parametrize("line, value", [
    ("epsilon: 1", "epsilon: 1/0"),
    ("  0 0 0 0 0", "  1/0 0 0 0 0"),
    ("5 2 1 -> 5 2 1", "5 2 1 -> 5 1 2 1"),
    ("1 3 4 : 4 3 1 -> 3 4 1", "1 3 4 5 : 4 3 1 -> 3 4 1"),
    ("k3-fail: 4 3 1 | 5 2 4", "k3-fail: 4 3 | 5 2 4"),
])
def test_certificate_edit_raises_value_error(line, value):
    assert line + "\n" in CERTIFICATE
    with pytest.raises(ValueError):
        parse_certificate(CERTIFICATE.replace(line + "\n", value + "\n", 1))


def test_plan_matrix_zero_denominator_raises_value_error():
    lines = PLAN.splitlines()
    at = lines.index("matrix:") + 2
    lines[at] = "  1/0 " + lines[at].split(None, 1)[1]
    with pytest.raises(ValueError, match="1/0"):
        parse_plan("\n".join(lines) + "\n")
