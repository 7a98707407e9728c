"""The four text formats: weight matrix, field, certificate and plan.

Certificate and plan texts are read back only when they are exactly
what the writer gives: every single-token edit either raises ValueError
or parses to an object whose writer gives back the edited text.  Every
reader raises only ValueError on arbitrary text, and drawn matrices and
fields survive their writer followed by their reader.
"""

import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN, blue_obstruction_matrix, five_line_matrix,
                      golden_texts)
from test_byte_pins import seeded_matrices
from tropmf import (MatchingField, WeightMatrix, certificate_to_text, certify,
                    induce, matching_field_from_text, matching_field_to_text,
                    mutate,
                    parse_certificate, parse_plan, plan_block_to_diagonal,
                    plan_to_text, weight_matrix_from_text)

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


BLUE = certificate_to_text(certify(blue_obstruction_matrix(), 1, 2))


def line_edits(text, stop=None):
    """The lines of text with one whole line among the first stop deleted,
    duplicated, swapped with the next line, or copied in after the first
    line, ahead of every line the writer puts there."""
    lines = text.splitlines()
    for at, ln in enumerate(lines[:stop]):
        yield lines[:at] + lines[at + 1:]
        yield lines[:at] + [ln] + lines[at:]
        yield lines[:at] + lines[at + 1:at + 2] + [ln] + lines[at + 2:]
        yield lines[:1] + [ln] + lines[1:]


@pytest.mark.parametrize("rewrite, text, stop", [
    (rewrite_certificate, CERTIFICATE, None),
    (rewrite_certificate, BLUE, None),
    # Reading a plan runs it, so only the header and the first step are
    # edited; every step is a certificate block.
    (rewrite_plan, PLAN, PLAN.splitlines().index("STEP 2")),
], ids=["certificate", "stopped", "plan"])
def test_line_edit_parses_or_raises_value_error(rewrite, text, stop):
    edits = list(line_edits(text, stop))
    assert edits
    for lines in edits:
        assert_exact_or_value_error(rewrite, "\n".join(lines) + "\n")


@pytest.mark.parametrize("line, value", [
    ("epsilon: 1", "epsilon: 1/0"),
    ("  0 0 0 0 0", "  1/0 0 0 0 0"),
    ("5 2 1 -> 5 2 1", "5 2 1 -> 5 1 2 1"),
    ("5 2 1 -> 5 2 1", "* -> *"),
    ("1 3 4 : 4 3 1 -> 3 4 1", "1 3 4 5 : 4 3 1 -> 3 4 1"),
    ("k3-fail: 4 3 1 | 5 2 4", "k3-fail: 4 3 | 5 2 4"),
    ("verdict: REFUTED", "verdict: FOO"),
    ("verdict: REFUTED", "verdict: VERIFIED"),
    ("pair: 3 4", "pair: 4 3"),
    ("n: 5", "n: 9"),
    ("kind: MUTATION", "kind: mutation"),
    ("case: ONE", "case: THREE"),
    ("version: 1", "version: 2"),
    ("overall: true", "overall: false"),
    ("a: true", "a: x"),
    ("  3 5", "  3 6"),
    ("k1-slab: pass", "k1-slab: maybe"),
    ("red: 1", "red: 2"),
    ("yellow-green: 5", "yellow-green: 2"),
    ("red-purple: 1 2", "red-purple: 2 1"),
    ("red-purple: 1 2", "red-purple: 1 5"),
    ("group-3: 2", "group-3: 1 2"),
    ("group-3: 2", "group-3: 9"),
    ("group-1: 1", "group-1: 1 3"),
])
def test_certificate_edit_raises_value_error(line, value):
    assert line + "\n" in CERTIFICATE
    with pytest.raises(ValueError):
        parse_certificate(CERTIFICATE.replace(line + "\n", value + "\n", 1))


def edit_lines(text, edits, start=0):
    """text with each (line, value) of edits replacing the first such line
    from line start on; a value of None deletes the line."""
    lines = text.splitlines()
    for line, value in edits:
        assert line in lines[start:]
        at = lines.index(line, start)
        lines[at:at + 1] = [] if value is None else [value]
    return "\n".join(lines) + "\n"


def test_matrix_after_must_swap_the_pair():
    # Line 3 put back left of line 4, with epsilon and order-after edited
    # to match: every derived line agrees, but line 3 never passed line 4.
    edited = edit_lines(CERTIFICATE, (
        ("  -2 -3 3 2 4", "  -2 -3 1 2 4"),
        ("epsilon: 1", "epsilon: -1"),
        ("order-after: 2 1 4 3 5", "order-after: 2 1 3 4 5")))
    with pytest.raises(ValueError, match="3 and 4 transposed"):
        parse_certificate(edited)


def test_matrix_after_must_carry_the_red_flips():
    # A matrix-after with the swap's x order 2 1 4 3 5 and case ONE whose
    # field places 4 over 1 over 3 on the red triple {1, 3, 4}; with every
    # derived line written from its fields, the DIFF line below states the
    # red flip to (3, 4, 1), which that field does not hold.
    cert = certify(five_line_matrix(), 3, 4)
    M2 = WeightMatrix.from_rows([[0] * 5, [-5, -7, 7, 2, 9],
                                 [10, -6, -2, 1, 6]])
    L2 = induce(M2)
    L = MatchingField(5, {**L2.assignment, (1, 3, 4): (4, 3, 1)})
    forged = certificate_to_text(dataclasses.replace(
        cert, matrix_after=M2, **mutate._vertex_facts(cert.data, L, L2)))
    assert cert.data.red == (1,) and M2.x_order == cert.order_after
    assert "1 3 4 : 4 3 1 -> 3 4 1\n" in forged
    with pytest.raises(ValueError, match="red triple 1 3 4"):
        parse_certificate(forged)


def test_pair_outside_the_columns_raises_value_error():
    # order-before set to the landed x order, so transposing the absent
    # lines 8 and 9 gives it back and only the pair itself is wrong.
    edited = edit_lines(CERTIFICATE, (
        ("pair: 3 4", "pair: 8 9"),
        ("order-before: 2 1 3 4 5", "order-before: 2 1 4 3 5")))
    with pytest.raises(ValueError, match="bad pair") as refused:
        parse_certificate(edited)
    assert type(refused.value) is ValueError


def test_certificate_n_must_fit_the_wf_rows():
    # w and f are derived from n, so a large n is refused before the
    # re-write would build rows of that length.
    edited = CERTIFICATE.replace("n: 5\n", "n: 1000000\n", 1)
    with pytest.raises(ValueError, match="1000000 entries"):
        parse_certificate(edited)


def test_stopped_certificate_needs_a_reason():
    reason = next(ln for ln in BLUE.splitlines() if ln.startswith("reason: "))
    assert "matrix-after: -\n" in BLUE
    with pytest.raises(ValueError, match="neither"):
        parse_certificate(BLUE.replace(reason, "reason: -"))


def test_rewrite_mismatch_names_the_line():
    edited = CERTIFICATE.replace("a: true\n", "a: x\n", 1)
    at = edited.splitlines().index("a: x") + 1
    with pytest.raises(ValueError, match="line %d reads 'a: x" % at):
        parse_certificate(edited)


# --- derived lines -----------------------------------------------------------

DERIVED_WORDS = {
    "verdict": ("VERIFIED", "REFUTED", "INAPPLICABLE"),
    **dict.fromkeys(("k1-slab", "k2-vertex-image", "k3-forward-midpoints",
                     "k4-backward-midpoints"), ("pass", "fail", "-")),
    **dict.fromkeys(("a", "b", "c", "d", "overall"), ("true", "false")),
    "kind": ("NOOP", "SHEAR", "MUTATION", "-"),
    "epsilon": ("-", "1", "1/2", "1/1024"),
    **dict.fromkeys(("red", "blue-olive", "yellow-green", "red-purple"),
                    ("-", "1", "1 2")),
}
LANDED_WORDS = {
    "reason": ("-", "star condition fails for a two-sided swap", "x"),
    "case": ("ONE", "TWO", "-"),
}


def landed_fact_edit(block, ln):
    """A well-formed edit of a line of a landed swap's DIFF, IMAGES,
    CHECKS or WITNESSES block that states a recomputed fact, or None:
    a diff line with its tableaux exchanged, an image sent to its source
    or to no tableau, a k3 or k4 failure with its pair exchanged, and a
    witness entry made none (a none entry gets its pair exchanged)."""
    head, _, rest = ln.partition(" : ")
    if block == "DIFF" and " -> " in ln:
        before, _, after = rest.partition(" -> ")
        return "%s : %s -> %s" % (head, after, before)
    if block == "IMAGES" and " -> " in ln:
        src, _, dst = ln.partition(" -> ")
        return "%s -> %s" % (src, src if dst == "*" else "*")
    key, _, pair = ln.partition(": ")
    if key in ("k3-fail", "k4-fail"):
        return "%s: %s" % (key, " | ".join(reversed(pair.split(" | "))))
    if block == "WITNESSES" and " | " in ln:
        if rest == "none":
            head = " | ".join(reversed(head.split(" | ")))
        return head + " : none"
    return None


def derived_line_edits(lines):
    """(line index, key, new line) for every single-line edit of a line
    that the writer derives or the reader checks: the kind, the verdict,
    k1-k4, the star flags a-d and overall, the four star lists, epsilon,
    order-after, each w and f entry (key "w:" or "f:"), and the reason
    and the case after a landed swap.  One more edit (key "IMAGES")
    repeats the first image line and raises the image count to match.
    Every DIFF, IMAGES, k3-fail, k4-fail and witness line of a landed
    swap, which the reader recomputes, gets one landed_fact_edit (key
    "fact: " and its block)."""
    landed = block = None
    for at, ln in enumerate(lines):
        if ln.startswith("matrix-after:"):
            landed = ln != "matrix-after: -"
        block = ln if ln.isupper() else block
        edit = landed and landed_fact_edit(block, ln)
        if edit:
            yield at, "fact: " + block, edit
        key, _, value = ln.partition(": ")
        if key in DERIVED_WORDS:
            words = DERIVED_WORDS[key]
        elif key == "order-after":
            words = ("-", "1 2", " ".join(reversed(value.split())))
        elif key in LANDED_WORDS and next(
                other for other in lines[at:]
                if other.startswith("matrix-after:")) != "matrix-after: -":
            words = LANDED_WORDS[key]
        else:
            words = ()
        yield from ((at, key, "%s: %s" % (key, w)) for w in words if w != value)
        if ln == "IMAGES" and lines[at + 1] != "count: 0":
            count = int(lines[at + 1].split()[1])
            yield at + 1, ln, "count: %d\n%s" % (count + 1, lines[at + 2])
        if ln in ("w:", "f:"):
            for row in range(at + 1, at + 4):
                entries = lines[row].split()
                for c, x in enumerate(entries):
                    for y in ("-1", "0", "1"):
                        if y != x:
                            yield row, ln, "  " + " ".join(
                                entries[:c] + [y] + entries[c + 1:])


@pytest.mark.parametrize("text", golden_texts("*.txt"))
def test_every_derived_line_edit_raises_value_error(text):
    # An edit is read by the certificate reader on its own CERTIFICATE ..
    # END block (a plan step is a certificate); in a plan, the first edit
    # of each key is also read as a whole plan.
    lines = text.splitlines()
    starts = [k for k, ln in enumerate(lines) if ln == "CERTIFICATE"]
    blocks = {start: lines.index("END", start) + 1 for start in starts}
    for start, end in blocks.items():
        parse_certificate("\n".join(lines[start:end]) + "\n")
    edits = list(derived_line_edits(lines))
    assert edits
    planned = set()
    for at, key, value in edits:
        start = max(k for k in starts if k <= at)
        edited = lines[:at] + [value] + lines[at + 1:]
        with pytest.raises(ValueError):
            parse_certificate("\n".join(edited[start:blocks[start]]) + "\n")
        if text.startswith("PLAN\n") and key not in planned:
            planned.add(key)
            with pytest.raises(ValueError):
                parse_plan("\n".join(edited) + "\n")


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


FIVE = (GOLDEN / "mutate_five_3_4.txt").read_text(encoding="utf-8")


NOT_ADJACENT = certificate_to_text(certify(five_line_matrix(), 2, 4))


@pytest.mark.parametrize("text, edits", [
    # No failures, so every check passes: VERIFIED.
    (FIVE, [("k3-fail: 4 3 1 | 5 2 4", None), ("k4-fail: 3 4 1 | 5 2 4", None),
            ("k3-fail-count: 1", "k3-fail-count: 0"),
            ("k4-fail-count: 1", "k4-fail-count: 0"),
            ("k3-forward-midpoints: fail", "k3-forward-midpoints: pass"),
            ("k4-backward-midpoints: fail", "k4-backward-midpoints: pass"),
            ("verdict: REFUTED", "verdict: VERIFIED")]),
    # A witness pair whose second member is not a tableau.
    (FIVE, [
        ("4 3 1 | 5 2 4 : none", "4 3 1 | 5 2 4 : search : 5 2 1 + 4 3 4")]),
    # No diff, and the flipped vertex its own image: k2 still passes.
    (FIVE, [("1 3 4 : 4 3 1 -> 3 4 1", None), ("count: 1", "count: 0"),
            ("4 3 1 -> 3 4 1", "4 3 1 -> 4 3 1")]),
    # Stopped swaps: certify sets the case together with the groups, and
    # writes order-before as the x order with i left of j, next to it
    # once the pair has groups.
    (NOT_ADJACENT, [("case: -", "case: ONE")]),
    (BLUE, [("case: ONE", "case: -")]),
    (BLUE, [("order-before: 1 2 3", "order-before: 1 2 2")]),
    (NOT_ADJACENT, [("order-before: 2 1 3 4 5", "order-before: 4 1 3 2 5")]),
    (BLUE, [("order-before: 1 2 3", "order-before: 1 3 2")]),
    (BLUE, [("order-before: 1 2 3", "order-before: -")]),
], ids=["verified-without-failures", "witness-not-a-tableau",
        "images-without-diff", "case-without-groups", "groups-without-case",
        "order-not-a-permutation", "order-with-j-left-of-i",
        "order-with-the-pair-apart", "order-empty-beside-groups"])
def test_forged_certificate_facts_raise_value_error(text, edits):
    # Each edit keeps every derived line consistent with the facts as
    # written; the reader recomputes those facts from matrix-after, and
    # checks a stopped certificate's case and order-before against its
    # groups and pair.
    forged = edit_lines(text, edits)
    with pytest.raises(ValueError):
        parse_certificate(forged)


def test_forged_plan_step_names_the_step():
    text = (GOLDEN / "plan_block_6_2.txt").read_text(encoding="utf-8")
    step = text.splitlines().index("STEP 3")
    edited = edit_lines(text, [
        ("verdict: VERIFIED", "verdict: REFUTED"),
        ("k3-forward-midpoints: pass", "k3-forward-midpoints: fail"),
        ("k3-fail-count: 0", "k3-fail-count: 1\nk3-fail: 1 2 3 | 1 2 3"),
        ("verified: 8", "verified: 7"), ("refuted: 0", "refuted: 1")], step)
    with pytest.raises(ValueError, match="plan step 3, "):
        parse_plan(edited)


STOPPED = certificate_to_text(certify(weight_matrix_from_text(
    "3 5\n0 0 0 0 0\n-6 0 5 3 -1\n2 -2 2 -3 -6\n"), 2, 4))


@pytest.mark.parametrize("value", [
    "4 2 5 | 3 1 4 : bogus : 4 1 5 + 3 2 4",
    "4 2 5 | 3 1 4 : case1 : 4 1 5 + 3 2 4",
    "4 2 5 | 3 1 4 : case3 : 9 9 9 + 3 2 4",
])
def test_stopped_certificate_witness_must_be_one_the_search_writes(value):
    # The swap found no landing offset, so the witness lines are read as
    # facts; each must be an entry the witness search could write.
    line = "4 2 5 | 3 1 4 : case3 : 4 1 5 + 3 2 4"
    assert "matrix-after: -\n" in STOPPED and line + "\n" in STOPPED
    assert parse_certificate(STOPPED) is not None
    with pytest.raises(ValueError, match="witness"):
        parse_certificate(STOPPED.replace(line, value))


def stopped_witness_tables():
    """The texts of the stopped certificates of every ordered pair of the
    seeded matrices whose witness table has at least two lines, each
    with the index of its first witness line."""
    for M in seeded_matrices():
        for i, j in itertools.permutations(range(1, M.n + 1), 2):
            cert = certify(M, i, j)
            if cert.matrix_after is None and len(cert.witnesses or ()) >= 2:
                lines = certificate_to_text(cert).splitlines()
                yield lines, lines.index("WITNESSES") + 3


def test_stopped_witness_table_must_be_the_one_the_search_writes():
    # Each line on its own is one the search writes, so only the table
    # as a whole shows a duplicated or an exchanged line.
    def text(lines):
        return "\n".join(lines) + "\n"

    tables = list(stopped_witness_tables())
    assert len(tables) == 48
    for lines, at in tables:
        count = "count: %d" % (len(lines) - at - 1)
        assert lines[at - 1] == count
        parse_certificate(text(lines))
        duplicated = (lines[:at - 1] + ["count: %d" % (len(lines) - at)]
                      + lines[at:at + 1] + lines[at:])
        exchanged = lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2:]
        for edited in (duplicated, exchanged):
            with pytest.raises(ValueError, match="witness"):
                parse_certificate(text(edited))


def test_stopped_witness_table_is_built_no_longer_than_its_lines(monkeypatch):
    # Lines that each name a new u or a new v name every u and v of the
    # table, so the product the reader recomputes is longer than they are
    # (quadratically, for text written to that end); the reader builds
    # one entry past the lines and refuses.
    built = []

    def counted(*args):
        for entry in witnesses(*args):
            built.append(entry)
            yield entry

    witnesses = mutate._witnesses
    monkeypatch.setattr(mutate, "_witnesses", counted)
    cases = 0
    for lines, at in stopped_witness_tables():
        table = lines[at:-1]
        kept, seen = [], set()
        for ln in table:
            u, v = ln.split(" : ")[0].split(" | ")
            if ("u", u) not in seen or ("v", v) not in seen:
                kept.append(ln)
                seen |= {("u", u), ("v", v)}
        if len(kept) == len(table):
            continue
        cases += 1
        built.clear()
        edited = lines[:at - 1] + ["count: %d" % len(kept)] + kept + ["END"]
        with pytest.raises(ValueError, match="witness"):
            parse_certificate("\n".join(edited) + "\n")
        assert len(built) == len(kept) + 1
    assert cases == 14


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
    text = M.text
    assert weight_matrix_from_text(text) == M
    assert weight_matrix_from_text(text).text == text


@settings(max_examples=100, deadline=None)
@given(fields())
def test_field_survives_its_text(L):
    text = matching_field_to_text(L)
    assert matching_field_from_text(text) == L
    assert matching_field_to_text(matching_field_from_text(text)) == text
