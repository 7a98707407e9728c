"""Shared fixtures: small weight matrices with known behaviour."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from tropmf import WeightMatrix, genericity

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_texts(pattern: str) -> list:
    """pytest params, one per golden output file matching the pattern."""
    return [pytest.param(path.read_text(encoding="utf-8"), id=path.name)
            for path in sorted(GOLDEN.glob(pattern))]


def diag6_matrix() -> WeightMatrix:
    """Six collinear apexes on a slope-2 line; induces the diagonal field."""
    return WeightMatrix.from_rows([[0] * 6, [6, 5, 4, 3, 2, 1],
                                   [11, 9, 7, 5, 3, 1]])


def five_line_matrix() -> WeightMatrix:
    """Five lines whose (3, 4) swap is the main verification fixture."""
    return WeightMatrix.from_rows([[0] * 5, [-2, -3, 0, 2, 4],
                                   [-12, 2, 0, 4, 8]])


def three_line_matrix() -> WeightMatrix:
    """Three lines at (0,0), (1,2), (2,4); the covector walkthrough fixture."""
    return WeightMatrix.from_rows([[0] * 3, [0, 1, 2], [0, 2, 4]])


def shear_matrix() -> WeightMatrix:
    """The five-line fixture with column 5 removed; its (3, 4) swap is
    one-sided, so the map is a single shear."""
    return WeightMatrix.from_rows([[0] * 4, [-2, -3, 0, 2], [-12, 2, 0, 4]])


def closer_threshold_matrix() -> WeightMatrix:
    """The five-line fixture with line 1's apex raised to (-2, -5): the
    (3, 4) swap must land at offset 1/2, below the flip threshold 1 of
    the triple {1, 3, 5}."""
    return WeightMatrix.from_rows([[0] * 5, [-2, -3, 0, 2, 4],
                                   [-5, 2, 0, 4, 8]])


def pair_matrix(apexes) -> WeightMatrix:
    """Arrangement with prescribed apexes (row 1 zero)."""
    xs = [a for a, _ in apexes]
    ys = [b for _, b in apexes]
    return WeightMatrix.from_rows([[0] * len(apexes), xs, ys])


def blue_obstruction_matrix() -> WeightMatrix:
    """Three lines where line 3 sits in the blue region of the pair
    (1, 2) and flips for every landing offset, so no swap exists."""
    return pair_matrix([(0, 0), (1, 2), (3, Fraction(1, 2))])


@pytest.fixture
def diag6():
    return diag6_matrix()


@pytest.fixture
def five():
    return five_line_matrix()


@pytest.fixture
def fig_three():
    return three_line_matrix()


@pytest.fixture
def shear4():
    return shear_matrix()


def random_generic_matrix(rng: random.Random, n: int,
                          lo: int = -50, hi: int = 50) -> WeightMatrix:
    """Random integer weight matrix, resampled until generic."""
    for _ in range(1000):
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(3)]
        M = WeightMatrix.from_rows(rows)
        if genericity(M).ok:
            return M
    raise AssertionError("could not sample a generic matrix")


def tied_start_matrix() -> WeightMatrix:
    """Four lines in x order 1 4 2 3 whose triple {1, 2, 4} is tied."""
    return WeightMatrix.from_rows([[0, 0, 0, 0], [-3, 0, 2, -2],
                                   [0, 2, -3, 1]])


def write_matrix(tmp_path, name: str, M: WeightMatrix) -> str:
    from tropmf import weight_matrix_to_text
    path = tmp_path / name
    path.write_text(weight_matrix_to_text(M), encoding="utf-8")
    return str(path)
