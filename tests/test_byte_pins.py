"""Byte-stable outputs beyond the golden files, pinned by SHA-256.

The golden files pin a few fixtures byte for byte; these two pins cover
every block plan for 4 <= n <= 10 and every ordered pair of 60 seeded
matrices, rational or with small int entries so that ties, tied apex x
coordinates and boundary apexes occur.  A change of any byte changes
the hash; re-record only after an intended output change.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from tropmf import (WeightMatrix, certificate_to_text, certify,
                    plan_block_to_diagonal)
from tropmf.planner import plan_to_text


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


def test_certificates_of_seeded_matrices_are_byte_stable():
    h = hashlib.sha256()
    for M in seeded_matrices():
        for i in range(1, M.n + 1):
            for j in range(1, M.n + 1):
                if i != j:
                    h.update(certificate_to_text(certify(M, i, j)).encode())
    assert h.hexdigest() == (
        "b9798afb759b7031727a9aa8916be596df9c5612ace7ed6d1c59cbdb1ee00c76")
