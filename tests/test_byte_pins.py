"""Byte-stable outputs beyond the golden files, pinned by SHA-256.

The golden files pin a few fixtures byte for byte; these pins cover
every block plan for 4 <= n <= 10, which parse_plan also reads back to
the same text, every ordered pair of 60 seeded matrices, rational or
with small int entries so that ties, tied apex x coordinates and
boundary apexes occur, and the command line's output and exit code on
the 141 inputs of acceptance criterion 3 and on those 60 matrices,
including the region picture of every adjacent pair, the certificate
of every ordered pair and the plan to the diagonal order.  A
change of any byte changes the hash; re-record only after an intended
output change.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from conftest import (diag6_matrix, five_line_matrix, pair_matrix,
                      random_generic_matrix, write_matrix)
from tropmf import (WeightMatrix, block_diagonal_weights,
                    certificate_to_text, certify, plan_block_to_diagonal)
from tropmf.cli import cli_main
from tropmf.planner import parse_plan, plan_to_text


def seeded_matrices(count: int = 60, seed: int = 14):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        if rng.random() < 0.25:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
        else:
            rows = [[Fraction(rng.randint(-40, 40), rng.randint(1, 6))
                     for _ in range(n)] for _ in range(3)]
        yield WeightMatrix.from_rows(rows)


def test_block_plans_are_byte_stable():
    h = hashlib.sha256()
    for n in range(4, 11):
        for ell in range(1, n):
            h.update(plan_to_text(plan_block_to_diagonal(n, ell)).encode())
    assert h.hexdigest() == (
        "7659debb95f5c62825e842a45c9e2977d1254404567e45d58aa7f2b972aacff3")


def test_block_plans_read_back_byte_for_byte():
    # parse_plan runs each plan again from its matrix and target.
    for n in range(4, 11):
        for ell in range(1, n):
            text = plan_to_text(plan_block_to_diagonal(n, ell), "block")
            assert plan_to_text(*parse_plan(text)) == text


def test_certificates_of_seeded_matrices_are_byte_stable():
    h = hashlib.sha256()
    for M in seeded_matrices():
        for i in range(1, M.n + 1):
            for j in range(1, M.n + 1):
                if i != j:
                    h.update(certificate_to_text(certify(M, i, j)).encode())
    assert h.hexdigest() == (
        "b9798afb759b7031727a9aa8916be596df9c5612ace7ed6d1c59cbdb1ee00c76")


def criterion_3_matrices():
    """The 141 inputs of acceptance criterion 3, in its order."""
    yield diag6_matrix()
    yield five_line_matrix()
    for n in range(3, 9):
        for ell in range(n + 1):
            yield block_diagonal_weights(n, ell)
    rng = random.Random(20240901)
    for n in (4, 5, 6, 7):
        for _ in range(25):
            yield random_generic_matrix(rng, n)


def cli_digest(tmp_path, capsys, runs, matrices) -> str:
    """SHA-256 of the exit code, stdout and stderr of every command line
    runs(M) gives for each matrix M, with M read from a file; the file's
    directory, which a plan names in its source line, is hashed as <tmp>."""
    h = hashlib.sha256()
    for k, M in enumerate(matrices):
        path = write_matrix(tmp_path, "m%d.wm" % k, M)
        for argv in runs(M):
            code = cli_main(argv + ["-m", path])
            captured = capsys.readouterr()
            h.update(b"%d\n" % code)
            for stream in (captured.out, captured.err):
                h.update(stream.replace(str(tmp_path), "<tmp>").encode())
    return h.hexdigest()


def commands(*names):
    """runs for cli_digest: each named command with -m only."""
    return lambda M: [[name] for name in names]


def test_check_covectors_of_criterion_3_is_byte_stable(tmp_path, capsys):
    matrices = list(criterion_3_matrices())
    assert len(matrices) == 141
    runs = commands("check-covectors")
    assert cli_digest(tmp_path, capsys, runs, matrices) == (
        "8ebcee839828a4faafe338239eca7934ce4eba239a5fe6afdc6cad1a4617f9cc")


def test_field_commands_on_seeded_matrices_are_byte_stable(tmp_path, capsys):
    runs = commands("check-covectors", "induce", "weights")
    assert cli_digest(tmp_path, capsys, runs, seeded_matrices()) == (
        "c3fc27c4721282c35bd76245892f7b26b055881fa6f08ee472e23d4c84922444")


def swap_runs(M):
    """mutate on every ordered pair, then plan -m to the diagonal order,
    in the default and the strict mode."""
    return [["mutate", "-i", str(i), "-j", str(j)]
            for i in range(1, M.n + 1) for j in range(1, M.n + 1)
            if i != j] + [["plan"], ["plan", "--strict"]]


def test_swap_commands_on_seeded_matrices_are_byte_stable(tmp_path, capsys):
    # VERIFIED, REFUTED and INAPPLICABLE certificates, with exit codes 0,
    # 1 and 2, and plans that end or stop on a TieError, a TiedX or a
    # stopped step.  The last matrix's plan is one REFUTED step: exit 1,
    # and exit 2 in the strict mode.
    matrices = list(seeded_matrices()) + [pair_matrix(
        [(2, 6), (0, 0), (1, 2), (-1, -5), (-2, 1)])]
    assert cli_digest(tmp_path, capsys, swap_runs, matrices) == (
        "ba169cf2a0e0fe6c0f6c1c8760e9e05a867f9f0810f4db484ef21d842cd397a6")


def region_runs(M):
    """star on every ordered pair, and render --regions on every pair
    adjacent in the apexes' x order (ties broken by index) in both
    orders."""
    xs = M.apex_ints[0]
    order = sorted(range(1, M.n + 1), key=lambda p: (xs[p - 1], p))
    pairs = [(i, j) for i in range(1, M.n + 1)
             for j in range(1, M.n + 1) if i != j]
    runs = [["star", "-i", str(i), "-j", str(j)] for i, j in pairs]
    runs += [["render", "--pair", "%d,%d" % pair, "--regions"]
             for a, b in zip(order, order[1:]) for pair in ((a, b), (b, a))]
    return runs


def test_region_commands_on_seeded_matrices_are_byte_stable(tmp_path, capsys):
    # The last matrix has a case ONE pair (1, 6) with D_j < D_i, where
    # the yellow region is bounded by the blue one.
    matrices = list(seeded_matrices()) + [WeightMatrix.from_rows(
        [[0] * 6, [-19, -10, -8, 0, 16, -12], [1, 7, -7, -3, -14, 4]])]
    assert cli_digest(tmp_path, capsys, region_runs, matrices) == (
        "629ced3c5f6b7867cf3104a0f36979902bc5dfa86ee2f48ae5e8c204ffc3caed")
