"""Seeded inputs and output checks for the benchmark workloads.

Inputs are generated here, without calling tropmf: the package receives
only the generated weight-matrix files and CLI arguments.  Each workload
has a fixed input set and --seed sets the order of its units.  Unit
costs are heavy-tailed (a MUTATION battery can cost a hundred INAPPLICABLE
swaps) and multimodal (one mode per matrix size), so a set drawn afresh
per seed moves the run's figures by more than host noise does.  Checks
hold on any input; for inputs recorded in expected.json the output must
also match the recorded SHA-256 digest and exit code byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("plan-block", "swap-pool", "covectors")

# The swap pool: matrices per size, every adjacent pair of each a unit.
SWAP_POOL_PER_SIZE = 6
SWAP_POOL_SEED = 7
# The random pool of the test suite's geometric == algebraic criterion.
COVECTORS_POOL_SEED = 20240901

# Fixtures of the test suite: the five-line (3, 4) swap (REFUTED), its
# shear restriction (VERIFIED SHEAR), and six collinear apexes.
FIVE_LINE = [[0, 0, 0, 0, 0], [-2, -3, 0, 2, 4], [-12, 2, 0, 4, 8]]
SHEAR = [[0, 0, 0, 0], [-2, -3, 0, 2], [-12, 2, 0, 4]]
DIAG6 = [[0] * 6, [6, 5, 4, 3, 2, 1], [11, 9, 7, 5, 3, 1]]
FIVE_LINE_FAILING_PAIR = ((4, 3, 1), (5, 2, 4))

VERDICT_EXIT = {"VERIFIED": 0, "REFUTED": 1, "INAPPLICABLE": 2}
STAR_FAILS = "star condition fails for a two-sided swap"


@dataclass(frozen=True)
class Unit:
    """One CLI command.  `key` names the input: the command plus a digest
    of the matrix, under which expected.json records the answer."""

    key: str
    args: tuple           # CLI arguments before -m / -o
    matrix: str | None    # weight-matrix file text, if the command reads one
    check: str            # which output check applies
    fixture: str | None = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_text(rows) -> str:
    """The `3 n` file format, byte-identical to tropmf's writer on integers."""
    lines = ["3 %d" % len(rows[0])]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def argmin_tableau(rows, triple):
    """The unique minimum-weight placement of the triple, or None on a tie."""
    ranked = sorted((sum(rows[r][c - 1] for r, c in enumerate(tab)), tab)
                    for tab in itertools.permutations(triple))
    return ranked[0][1] if ranked[0][0] < ranked[1][0] else None


def is_generic(rows) -> bool:
    n = len(rows[0])
    return all(argmin_tableau(rows, T) is not None
               for T in itertools.combinations(range(1, n + 1), 3))


def apex_x(rows):
    return [rows[1][c] - rows[0][c] for c in range(len(rows[0]))]


def random_generic_rows(rng: random.Random, n: int, distinct_x: bool = False):
    """Draws rows with rng.randint in the order the test suite's
    random_generic_matrix does, resampling until generic (and, if asked,
    until no two apexes share an x coordinate)."""
    for _ in range(1000):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(3)]
        if is_generic(rows) and (not distinct_x or len(set(apex_x(rows))) == n):
            return rows
    raise RuntimeError("could not sample a generic %d-column matrix" % n)


def block_diagonal_rows(n: int, ell: int):
    """Weights inducing the block-diagonal field: row 2 ranks the block
    {1..ell} below the rest, row 3 forces each triple's largest column
    into row 3 (the construction of Mohammadi and Shaw)."""
    return [[0] * n, list(range(ell, 0, -1)) + list(range(n, ell, -1)),
            [n * n * (n - c) for c in range(n)]]


def _covectors_unit(rows) -> Unit:
    text = matrix_text(rows)
    return Unit(key="check-covectors m=%s" % sha256(text)[:16],
                args=("check-covectors",), matrix=text, check="covectors")


def _mutate_unit(rows, i, j, fixture=None) -> Unit:
    text = matrix_text(rows)
    return Unit(key="mutate -i %d -j %d m=%s" % (i, j, sha256(text)[:16]),
                args=("mutate", "-i", str(i), "-j", str(j)), matrix=text,
                check="mutate", fixture=fixture)


def make_units(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "plan-block":
        units = [Unit(key="plan --block %d %d" % (n, ell),
                      args=("plan", "--block", str(n), str(ell)),
                      matrix=None, check="plan")
                 for n in (5, 6, 7) for ell in (1, 2, 3)]
        rng.shuffle(units)
        return units
    if workload == "swap-pool":
        units = []
        draw = random.Random(SWAP_POOL_SEED)
        for n in (6, 7, 8):
            for _ in range(SWAP_POOL_PER_SIZE):
                rows = random_generic_rows(draw, n, distinct_x=True)
                xs = apex_x(rows)
                order = sorted(range(1, n + 1), key=lambda c: xs[c - 1])
                units.extend(_mutate_unit(rows, a, b)
                             for a, b in zip(order, order[1:]))
        units.append(_mutate_unit(FIVE_LINE, 3, 4, fixture="five-line"))
        units.append(_mutate_unit(SHEAR, 3, 4, fixture="shear"))
        rng.shuffle(units)
        return units
    if workload == "covectors":
        # Every input of the test suite's geometric == algebraic criterion:
        # two fixtures, the block-diagonal matrices, and 25 seeded random
        # matrices for each n = 4..7.
        fixed = [DIAG6, FIVE_LINE] + [block_diagonal_rows(n, ell)
                                      for n in range(3, 9) for ell in range(n + 1)]
        draw = random.Random(COVECTORS_POOL_SEED)
        pool = [random_generic_rows(draw, n) for n in (4, 5, 6, 7) for _ in range(25)]
        units = [_covectors_unit(rows) for rows in fixed + pool]
        rng.shuffle(units)
        return units
    raise ValueError("unknown workload %r" % workload)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["units"]


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right

def check(unit: Unit, rc, text: str, expected: dict) -> list:
    if rc is None:
        return ["raised an exception"]
    known = expected.get(unit.key)
    if known is not None and known != [sha256(text), rc]:
        return ["output or exit code differs from the recorded answer"]
    checker = {"plan": _check_plan, "mutate": _check_mutate,
               "covectors": _check_covectors}[unit.check]
    try:
        return checker(unit, rc, text)
    except (ValueError, IndexError, KeyError) as e:
        return ["output does not parse: %r" % e]


def certificate_problems(text: str, rc, matrix: str | None = None,
                         pair=None) -> tuple:
    """(certificate, problems) for one certificate text and its exit code."""
    from tropmf import certificate_to_text, parse_certificate
    try:
        cert = parse_certificate(text)
    except (ValueError, IndexError, KeyError) as e:
        return None, ["certificate does not parse: %s" % e]
    problems = []
    if certificate_to_text(cert) != text:
        problems.append("certificate does not round-trip through parse_certificate")
    s = cert.star
    if s is not None:
        overall = s.a and s.b and s.c and s.d
        if "overall: %s" % ("true" if overall else "false") not in text.splitlines():
            problems.append("star 'overall' disagrees with a-d")
        if (s.a, s.b, s.c, s.d) != (bool(s.red), not s.blue_olive,
                                    bool(s.yellow_green), len(s.red_purple) >= 2):
            problems.append("star flags a-d disagree with the region lists")
    if matrix is not None and cert.digest != sha256(matrix):
        problems.append("digest is not the SHA-256 of the input file")
    if pair is not None and {cert.i, cert.j} != set(pair):
        problems.append("certificate names another pair")
    if rc != VERDICT_EXIT.get(cert.verdict):
        problems.append("exit code %r for verdict %s" % (rc, cert.verdict))
    checks = (cert.k1, cert.k2, cert.k3, cert.k4)
    if cert.k3 is not None and cert.k3 != (not cert.k3_failures):
        problems.append("k3 flag disagrees with its failure list")
    if cert.k4 is not None and cert.k4 != (not cert.k4_failures):
        problems.append("k4 flag disagrees with its failure list")
    star_blocks = cert.kind == "MUTATION" and s is not None and not s.overall
    if cert.verdict == "VERIFIED":
        if not all(c is True for c in checks) or star_blocks or cert.reason:
            problems.append("VERIFIED without k1-k4 passing and the star condition")
    elif cert.verdict == "REFUTED":
        if cert.matrix_after is None or all(c is True for c in checks) or star_blocks:
            problems.append("REFUTED without a swapped matrix and a failed check")
    elif cert.verdict == "INAPPLICABLE":
        if cert.reason is None:
            problems.append("INAPPLICABLE without a reason")
        elif cert.reason == STAR_FAILS:
            if not star_blocks or cert.matrix_after is None:
                problems.append("star-condition reason on a swap it does not block")
        elif cert.matrix_after is not None or cert.k2 is not None:
            problems.append("INAPPLICABLE after a successful swap, without the star reason")
    else:
        problems.append("unknown verdict %r" % cert.verdict)
    return cert, problems


def _check_mutate(unit: Unit, rc, text: str) -> list:
    i, j = int(unit.args[2]), int(unit.args[4])
    cert, problems = certificate_problems(text, rc, unit.matrix, (i, j))
    if cert is None:
        return problems
    rows = [[int(t) for t in ln.split()] for ln in unit.matrix.splitlines()[1:]]
    xs = apex_x(rows)
    if xs[cert.i - 1] >= xs[cert.j - 1]:
        problems.append("certificate pair is not ordered left to right")
    if unit.fixture == "five-line":
        if cert.verdict != "REFUTED" or FIVE_LINE_FAILING_PAIR not in cert.k3_failures:
            problems.append("five-line fixture is not REFUTED on 4 3 1 | 5 2 4")
    if unit.fixture == "shear" and (cert.verdict, cert.kind) != ("VERIFIED", "SHEAR"):
        problems.append("shear fixture is not VERIFIED SHEAR")
    return problems


def _plan_steps(lines, count):
    """Certificate texts of the plan's STEP blocks."""
    out = []
    pos = lines.index("steps: %d" % count) + 1
    for k in range(1, count + 1):
        if lines[pos] != "STEP %d" % k:
            raise ValueError("missing STEP %d" % k)
        end = lines.index("END", pos)
        out.append("\n".join(lines[pos + 1:end + 1]) + "\n")
        pos = end + 1
    return out, lines[pos:]


def _check_plan(unit: Unit, rc, text: str) -> list:
    n, ell = int(unit.args[2]), int(unit.args[3])
    steps = ell * (n - ell)
    lines = text.splitlines()
    if rc != 0:
        return ["plan exited with %r" % rc]
    head = ["PLAN", "n: %d" % n, "source: block-diagonal %d %d" % (n, ell)]
    if lines[:3] != head or "steps: %d" % steps not in lines:
        return ["plan header is not block-diagonal %d %d with %d steps"
                % (n, ell, steps)]
    if "target: %s" % " ".join(str(c) for c in range(n, 0, -1)) not in lines:
        return ["plan target is not the diagonal order"]
    blocks, tail = _plan_steps(lines, steps)
    problems = []
    cert = None
    for block in blocks:
        cert, found = certificate_problems(block, 0)
        problems += found
        if cert is not None and cert.verdict != "VERIFIED":
            problems.append("a plan step is %s" % cert.verdict)
    kinds = [ln.partition(": ") for ln in tail[1:4]]
    if (tail[:1] != ["SUMMARY"] or [k[0] for k in kinds] != ["noop", "shear", "mutation"]
            or sum(int(k[2]) for k in kinds if k[2].isdigit()) != steps
            or tail[4:] != ["verified: %d" % steps, "refuted: 0", "inapplicable: 0",
                            "END-PLAN"]):
        problems.append("plan summary is not %d VERIFIED steps" % steps)
    final = cert.matrix_after if cert is not None else None
    if final is None or any(argmin_tableau(final.rows, T) != T
                            for T in itertools.combinations(range(1, n + 1), 3)):
        problems.append("plan does not end on diagonal(%d)" % n)
    return problems


def _check_covectors(unit: Unit, rc, text: str) -> list:
    rows = [[int(t) for t in ln.split()] for ln in unit.matrix.splitlines()[1:]]
    n = len(rows[0])
    triples = list(itertools.combinations(range(1, n + 1), 3))
    want = ["%d %d %d : algebraic %d %d %d | geometric %d %d %d | ok"
            % (T + argmin_tableau(rows, T) * 2) for T in triples]
    want.append("%d/%d triples agree" % (len(triples), len(triples)))
    if rc != 0 or text.splitlines() != want:
        return ["check-covectors does not report %d/%d agreeing triples"
                % (len(triples), len(triples))]
    return []
