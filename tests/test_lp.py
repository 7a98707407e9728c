"""The exact LP's refusals: malformed input and certificates that fail
their substitution back into the system."""

from fractions import Fraction

import pytest

from tropmf import lp


def test_feasible_combination_rejects_a_column_of_another_length():
    with pytest.raises(ValueError, match="column length 1 != 2"):
        lp.feasible_combination([[Fraction(1)]], [Fraction(1), Fraction(2)])


def test_check_feasible_refuses_a_negative_coefficient():
    with pytest.raises(AssertionError, match="negative coefficient"):
        lp._check_feasible([[Fraction(1)]], [Fraction(-1)], [Fraction(-1)])


def test_check_feasible_refuses_a_point_off_a_row():
    with pytest.raises(AssertionError, match="fails row 1"):
        lp._check_feasible([[Fraction(1), Fraction(1)]],
                           [Fraction(2), Fraction(3)], [Fraction(2)])


def test_check_farkas_refuses_a_vector_positive_on_a_column():
    # y = (1) pairs with the second column to 1 > 0.
    with pytest.raises(AssertionError, match="fails on column 1"):
        lp.check_farkas([[Fraction(-1)], [Fraction(1)]], [Fraction(1)],
                        [Fraction(1)])


def test_check_farkas_refuses_a_vector_that_does_not_separate():
    # y.col <= 0 on the one column, but y.rhs = -1 is not positive.
    with pytest.raises(AssertionError, match="does not separate"):
        lp.check_farkas([[Fraction(-1)]], [Fraction(-1)], [Fraction(1)])
