"""Plans: chained certified swaps from one x order to another."""

import dataclasses
import os
import random
import re
import subprocess
import sys

import pytest

import tropmf
from conftest import (blue_obstruction_matrix, five_line_matrix,
                      golden_texts, pair_matrix, random_generic_matrix,
                      tied_start_matrix)
from tropmf import (MatchingField, MutationCertificate, Plan, PlanError,
                    TiedX, TieError, VertexSet, WeightMatrix, apexes,
                    block_diagonal, block_diagonal_weights,
                    certificate_to_text, certify, diagonal, induce,
                    plan_block_to_diagonal, plan_to_order, x_order)
from tropmf import planner
from tropmf.cli import cli_main
from tropmf.planner import parse_plan, plan_to_text


def replay(initial_field, steps):
    assignment = dict(initial_field.assignment)
    for step in steps:
        for T, before, after in step.diff:
            assert assignment[T] == before
            assignment[T] = after
    return MatchingField(initial_field.n, assignment)


def test_plan_already_in_order(diag6):
    plan = plan_to_order(diag6, (6, 5, 4, 3, 2, 1))
    assert plan.steps == []
    assert plan.final_field == diagonal(6)


def test_plan_single_transposition():
    M = block_diagonal_weights(6, 2)
    assert x_order(apexes(M)) == (2, 1, 6, 5, 4, 3)
    plan = plan_to_order(M, (2, 6, 1, 5, 4, 3))
    assert len(plan.steps) == 1
    assert (plan.steps[0].i, plan.steps[0].j) == (1, 6)


def test_plan_rejects_non_permutation(diag6):
    with pytest.raises(ValueError):
        plan_to_order(diag6, (1, 1, 2, 3, 4, 5))


def test_block2_to_diagonal_full_run():
    plan = plan_block_to_diagonal(6, 2)
    assert len(plan.steps) == 8
    assert [(s.i, s.j) for s in plan.steps] == [
        (1, 6), (2, 6), (1, 5), (2, 5), (1, 4), (2, 4), (1, 3), (2, 3)]
    kinds = [s.kind for s in plan.steps]
    assert kinds == ["NOOP", "NOOP", "MUTATION", "SHEAR", "MUTATION",
                     "MUTATION", "SHEAR", "MUTATION"]
    assert all(s.verdict == "VERIFIED" for s in plan.steps)
    assert plan.final_field == diagonal(6)
    assert plan.summary() == {"noop": 2, "shear": 2, "mutation": 4,
                              "verified": 8, "refuted": 0, "inapplicable": 0}


def test_block2_replay_identity():
    plan = plan_block_to_diagonal(6, 2)
    start = induce(block_diagonal_weights(6, 2))
    assert start == block_diagonal(6, 2)
    assert replay(start, plan.steps) == plan.final_field == diagonal(6)


def test_block1_to_diagonal_step_count():
    # The construction puts the x order at (1, 6, 5, 4, 3, 2), which has
    # five inversions against (6, 5, 4, 3, 2, 1).
    M = block_diagonal_weights(6, 1)
    assert x_order(apexes(M)) == (1, 6, 5, 4, 3, 2)
    plan = plan_block_to_diagonal(6, 1)
    assert len(plan.steps) == 5
    assert plan.final_field == diagonal(6)


def test_block0_and_blockn_are_trivial():
    assert plan_block_to_diagonal(6, 0).steps == []
    assert plan_block_to_diagonal(6, 6).steps == []


def test_step_count_equals_inversion_count():
    for n, ell in [(4, 1), (5, 2), (6, 3), (7, 2)]:
        M = block_diagonal_weights(n, ell)
        order = x_order(apexes(M))
        target = tuple(range(n, 0, -1))
        pos = {line: t for t, line in enumerate(target)}
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if pos[order[a]] > pos[order[b]])
        plan = plan_block_to_diagonal(n, ell)
        assert len(plan.steps) == inversions


def test_plan_chains_matrices():
    plan = plan_block_to_diagonal(6, 2)
    current = plan.initial
    for step in plan.steps:
        assert step.digest  # recorded per step
        assert step.matrix_after is not None
        current = step.matrix_after
    assert induce(current) == plan.final_field


def test_plan_error_carries_partial_plan():
    # Third line in blue with the (j, i, k) pattern: the very first swap
    # is unrealizable.
    from fractions import Fraction
    B = pair_matrix([(0, 0), (1, 2), (3, Fraction(1, 2))])
    with pytest.raises(PlanError) as err:
        plan_to_order(B, (2, 1, 3))
    assert err.value.partial.steps == []


def test_stop_partial_plan_reads_back():
    # The reader runs the plan again and keeps the partial plan of the
    # PlanError, so a plan that stopped reads back byte for byte.
    from fractions import Fraction
    B = pair_matrix([(0, 0), (1, 2), (3, Fraction(1, 2))])
    with pytest.raises(PlanError) as err:
        plan_to_order(B, (2, 1, 3))
    text = plan_to_text(err.value.partial, source="stopped")
    parsed, source = parse_plan(text)
    assert parsed.steps == [] and source == "stopped"
    assert plan_to_text(parsed, source) == text


def test_strict_mode_aborts_on_refuted_step():
    # Arrangement whose (1, 2) swap is refuted; the order transposition
    # itself is fine, so the default mode completes and flags it.
    H = pair_matrix([(0, 0), (1, 2), (-1, -5), (2, 6), (-2, 1)])
    assert x_order(apexes(H)) == (5, 3, 1, 2, 4)
    target = (5, 3, 2, 1, 4)
    plan = plan_to_order(H, target)
    assert len(plan.steps) == 1
    assert plan.steps[0].verdict == "REFUTED"
    assert plan.summary()["refuted"] == 1
    with pytest.raises(PlanError) as err:
        plan_to_order(H, target, strict=True)
    assert len(err.value.partial.steps) == 1


def test_plan_computes_each_matrix_fact_once(monkeypatch):
    """The (6, 2) plan and its text compute the apex ints and the text of
    each of its 9 matrices once: a step's matrix after is the next step's
    input, and its digest and matrix-after lines share one text."""
    counts = dict.fromkeys(("apex_ints", "text"), 0)
    for name in counts:
        prop = vars(WeightMatrix)[name]

        def counted(M, compute=prop.func, name=name):
            counts[name] += 1
            return compute(M)
        monkeypatch.setattr(prop, "func", counted)
    plan = plan_block_to_diagonal(6, 2)
    plan_to_text(plan)
    assert len(plan.steps) == 8
    assert counts == {"apex_ints": 9, "text": 9}


def test_plan_derives_each_verdict_once(monkeypatch):
    """The (6, 2) plan's text and SUMMARY counts, which tropmf plan writes
    and reads for its exit code, compute the k2 flag, the verdict and the
    reason of each of its 8 certificates once; a certificate is frozen."""
    counts = dict.fromkeys(("k2", "verdict", "reason"), 0)
    for name in counts:
        prop = vars(MutationCertificate)[name]

        def counted(cert, compute=prop.func, name=name):
            counts[name] += 1
            return compute(cert)
        monkeypatch.setattr(prop, "func", counted)
    plan = plan_block_to_diagonal(6, 2)
    plan_to_text(plan)
    plan.summary()
    assert len(plan.steps) == 8
    assert counts == {"k2": 8, "verdict": 8, "reason": 8}
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.steps[0].diff = []


def test_plan_builds_one_vertex_set_per_field(monkeypatch):
    """Each step hands the field its re-check proved, with that field's
    vertex set, to the next step, and a NOOP step proves the field before
    it again, so the 8-step (6, 2) plan builds and validates one vertex
    set per distinct field it visits: 7, the start's and one per step
    with red lines (a vertex set per field and step would be 16)."""
    built = []
    post_init = VertexSet.__post_init__

    def counted(V):
        built.append(V.points)
        post_init(V)
    monkeypatch.setattr(VertexSet, "__post_init__", counted)
    plan = plan_block_to_diagonal(6, 2)
    fields = {frozenset(induce(M).assignment.values()) for M in
              [plan.initial] + [step.matrix_after for step in plan.steps]}
    assert [step.kind for step in plan.steps].count("NOOP") == 2
    assert len(built) == len(set(built)) == len(fields) == 7


def plans_with_partial_ones():
    """Block plans for n = 4..8, and plans to the diagonal order from
    seeded random matrices and the five-line fixture, each as the plan or
    as the partial plan its PlanError carries."""
    for n in range(4, 9):
        for ell in range(1, n):
            yield plan_block_to_diagonal(n, ell)
    rng = random.Random(31)
    starts = [random_generic_matrix(rng, rng.randint(4, 7)) for _ in range(30)]
    for M in starts + [five_line_matrix()]:
        try:
            yield plan_to_order(M, tuple(range(M.n, 0, -1)))
        except PlanError as e:
            yield e.partial
        except TiedX:
            pass


def test_plan_step_blocks_equal_standalone_certificates():
    """plan_to_text shares one tableau table across its steps; each STEP
    block must still be what certificate_to_text writes for that step on
    its own.  The pool holds plans that stop, the five-line one after its
    first step."""
    stopped = 0
    for plan in plans_with_partial_ones():
        text = plan_to_text(plan)
        body = text[text.index("steps: %d\n" % len(plan.steps)):
                    text.rindex("SUMMARY\n")]
        blocks = re.split(r"^STEP \d+\n", body, flags=re.M)[1:]
        assert blocks == [certificate_to_text(step) for step in plan.steps]
        stopped += bool(plan.steps) and (plan.steps[-1].order_after
                                         != plan.target)
    assert stopped >= 2


def test_plan_text_roundtrip_and_stability():
    plan = plan_block_to_diagonal(6, 2)
    text = plan_to_text(plan, source="block-diagonal 6 2")
    parsed, source = parse_plan(text)
    assert source == "block-diagonal 6 2"
    assert plan_to_text(parsed, source) == text
    again = plan_to_text(plan_block_to_diagonal(6, 2),
                         source="block-diagonal 6 2")
    assert again == text
    assert parsed.summary() == {"noop": 2, "shear": 2, "mutation": 4,
                                "verified": 8, "refuted": 0, "inapplicable": 0}


@pytest.mark.parametrize("text", golden_texts("plan_block_*.txt"))
def test_golden_plan_roundtrip(text):
    plan, source = parse_plan(text)
    assert plan_to_text(plan, source) == text
    assert plan.final_field == diagonal(plan.initial.n)


def test_plan_step_without_swapped_matrix_raises_value_error():
    M = blue_obstruction_matrix()
    unswapped = certify(M, 1, 2)
    assert unswapped.matrix_after is None
    text = plan_to_text(Plan(initial=M, target=(2, 1, 3), steps=[unswapped]))
    with pytest.raises(ValueError, match="reads 'steps: 1"):
        parse_plan(text)


def test_truncated_plan_raises_value_error():
    text = plan_to_text(plan_block_to_diagonal(5, 2),
                        source="block-diagonal 5 2")
    lines = text.splitlines(keepends=True)
    for cut in range(len(lines)):
        with pytest.raises(ValueError):
            parse_plan("".join(lines[:cut]))


def test_plan_rejects_exponent_tokens():
    text = plan_to_text(plan_block_to_diagonal(5, 2),
                        source="block-diagonal 5 2")
    lines = text.splitlines()
    at = lines.index("matrix:") + 2
    lines[at] = "  1e3 " + lines[at].split(None, 1)[1]
    with pytest.raises(ValueError, match="1e3"):
        parse_plan("\n".join(lines) + "\n")


def test_plan_refuses_non_generic_start_before_any_step(monkeypatch):
    def no_certify(*args):
        raise AssertionError("certify called on a non-generic start")

    monkeypatch.setattr(planner, "certify", no_certify)
    with pytest.raises(TieError, match="tie at triple 1 2 4"):
        plan_to_order(tied_start_matrix(), (4, 3, 2, 1))


def test_block_plan_refuses_a_final_field_that_is_not_diagonal(
        monkeypatch, capsys):
    # The plan lands on the diagonal field; held against another field,
    # plan_block_to_diagonal raises and tropmf plan --block exits 1.
    monkeypatch.setattr(planner, "diagonal",
                        lambda n: block_diagonal(n, 2))
    with pytest.raises(planner.EndpointMismatch, match="diagonal field"):
        plan_block_to_diagonal(5, 2)
    assert cli_main(["plan", "--block", "5", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "final field differs from the diagonal field\n"


def test_module_entry_point_runs_a_block_plan():
    src = os.path.dirname(os.path.dirname(tropmf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "tropmf.cli", "plan",
                          "--block", "5", "2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "END-PLAN"
