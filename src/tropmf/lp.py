"""Exact rational feasibility of  A x = b,  x >= 0.

Phase-1 simplex over `fractions.Fraction` with Bland's rule, which
cannot cycle, so termination is unconditional.  The answer is returned
together with a certificate and the certificate is re-verified before
returning: a feasible point is substituted back into the system, an
infeasible verdict comes with a Farkas vector y satisfying y.col <= 0
for every column and y.b > 0.  Callers therefore never depend on the
pivoting logic being bug-free.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def feasible_combination(columns, rhs):
    """Decide whether rhs is a nonnegative combination of the columns.

    columns: sequence of equal-length sequences of Fractions.
    rhs: sequence of Fractions.

    Returns (True, x) with x >= 0 and sum x_j * columns[j] = rhs, or
    (False, y) with a verified Farkas certificate y.
    """
    m = len(rhs)
    nvars = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length %d != %d" % (len(col), m))
    sign = [_ONE if rhs[r] >= 0 else -_ONE for r in range(m)]
    width = nvars + m
    rows = []
    for r in range(m):
        row = [sign[r] * columns[c][r] for c in range(nvars)]
        row.extend(_ONE if k == r else _ZERO for k in range(m))
        row.append(sign[r] * rhs[r])
        rows.append(row)
    basis = list(range(nvars, width))
    # Reduced costs for minimizing the sum of artificials; the last cell
    # holds minus the objective value.
    cost = [_ZERO] * (width + 1)
    for jj in range(width + 1):
        total = _ZERO
        for r in range(m):
            total += rows[r][jj]
        cj = _ONE if nvars <= jj < width else _ZERO
        cost[jj] = cj - total

    while True:
        enter = -1
        for jj in range(width):
            # Bland's rule: the first negative reduced cost enters.
            if cost[jj] < 0:
                enter = jj
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(m):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rows[r][width] / coef
                if (best is None or ratio < best
                        or (ratio == best and basis[r] < basis[leave])):
                    best = ratio
                    leave = r
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded below; "
                                  "input is malformed")
        _pivot(rows, cost, basis, leave, enter)

    objective = -cost[width]
    if objective == 0:
        x = [_ZERO] * nvars
        for r, var in enumerate(basis):
            if var < nvars:
                x[var] = rows[r][width]
        _check_feasible(columns, rhs, x)
        return True, x
    y = [sign[r] * (_ONE - cost[nvars + r]) for r in range(m)]
    check_farkas(columns, rhs, y)
    return False, y


def _pivot(rows, cost, basis, leave, enter):
    m = len(rows)
    width = len(cost) - 1
    prow = rows[leave]
    factor = prow[enter]
    for jj in range(width + 1):
        prow[jj] /= factor
    for r in range(m):
        if r == leave:
            continue
        coef = rows[r][enter]
        if coef != 0:
            row = rows[r]
            for jj in range(width + 1):
                row[jj] -= coef * prow[jj]
    coef = cost[enter]
    if coef != 0:
        for jj in range(width + 1):
            cost[jj] -= coef * prow[jj]
    basis[leave] = enter


def _check_feasible(columns, rhs, x):
    m = len(rhs)
    if any(v < 0 for v in x):
        raise AssertionError("simplex returned a negative coefficient")
    for r in range(m):
        total = _ZERO
        for c, v in enumerate(x):
            if v:
                total += v * columns[c][r]
        if total != rhs[r]:
            raise AssertionError("simplex solution fails row %d" % r)


def check_farkas(columns, rhs, y):
    """Raise AssertionError unless y.col <= 0 for every column and
    y.rhs > 0, i.e. unless y proves rhs is no nonnegative combination."""
    m = len(rhs)
    for c, col in enumerate(columns):
        total = _ZERO
        for r in range(m):
            total += y[r] * col[r]
        if total > 0:
            raise AssertionError("Farkas vector fails on column %d" % c)
    total = _ZERO
    for r in range(m):
        total += y[r] * rhs[r]
    if total <= 0:
        raise AssertionError("Farkas vector does not separate")
