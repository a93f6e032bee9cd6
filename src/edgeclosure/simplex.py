"""Exact rational simplex and fraction-free linear solving.

Everything here works over `fractions.Fraction` (or plain ints), so
optima are exact.  The simplex is specialized to the only shape this
package needs: maximize c.x subject to A x <= b, x >= 0 with b >= 0,
which makes the all-slack basis feasible and removes any phase-1 step.
Bland's rule guarantees termination and makes every solve deterministic.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class UnboundedProgramError(Exception):
    """The linear program has unbounded objective value."""


def simplex_maximize(
    objective: Sequence[int | Fraction],
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Solve max objective.x s.t. rows.x <= rhs, x >= 0 exactly.

    Requires rhs >= 0 componentwise (callers arrange this).  Returns the
    optimal value and one optimal vertex, both exact.  The pivot choice
    is Bland's rule: smallest eligible column, then smallest basic
    variable on ratio ties.
    """
    m = len(objective)
    n = len(rows)
    for r in rows:
        if len(r) != m:
            raise ValueError("constraint row length does not match objective")
    if len(rhs) != n:
        raise ValueError("rhs length does not match row count")
    if any(Fraction(b) < 0 for b in rhs):
        raise ValueError("rhs must be componentwise non-negative")

    # Tableau columns: m structural vars, n slacks, rhs.
    tab = [
        [Fraction(v) for v in rows[i]]
        + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        + [Fraction(rhs[i])]
        for i in range(n)
    ]
    cost = [Fraction(c) for c in objective] + [Fraction(0)] * (n + 1)
    basis = list(range(m, m + n))

    while True:
        enter = next((j for j in range(m + n) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(n):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][m + n] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedProgramError("objective increases without bound")
        _pivot(tab, cost, leave, enter)
        basis[leave] = enter

    x = [Fraction(0)] * m
    for i, bv in enumerate(basis):
        if bv < m:
            x[bv] = tab[i][m + n]
    value = -cost[m + n]
    return value, tuple(x)


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [v - f * p for v, p in zip(r, prow)]
    f = cost[col]
    if f:
        for j, p in enumerate(prow):
            cost[j] -= f * p


def solve_integer_system_scaled(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int] | None:
    """Solve the square integer system rows.x = rhs exactly.

    Fraction-free Bareiss elimination followed by all-integer
    back-substitution over the common denominator: returns (num, den)
    with den > 0 and solution x = num / den (not necessarily reduced),
    or None for a singular matrix.

    The library itself no longer calls this solver: the dual vertices
    come from `packing.dual_functionals`.  It stays public for callers
    and for the basis-by-basis reference enumeration in the tests.
    """
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    prev = 1
    for col in range(n):
        piv_row = next((r for r in range(col, n) if aug[r][col]), None)
        if piv_row is None:
            return None
        if piv_row != col:
            aug[col], aug[piv_row] = aug[piv_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            row = aug[r]
            factor = row[col]
            lead = aug[col]
            for c in range(col, n + 1):
                row[c] = (row[c] * pivot - factor * lead[c]) // prev
        prev = pivot
    # den = last pivot = determinant of the row-permuted matrix; each
    # den * x_i is an integer by Cramer, so the divisions are exact.
    den = aug[n - 1][n - 1]
    num = [0] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n] * den
        row = aug[i]
        for j in range(i + 1, n):
            acc -= row[j] * num[j]
        num[i] = acc // row[i]
    if den < 0:
        den = -den
        num = [-v for v in num]
    return tuple(num), den

