"""Exact fraction-free simplex and fraction-free linear solving.

One pivot, `_pivot`, serves both solvers, in Python integers only.  The
simplex solves the one program this package asks: the packing LP
max 1.x subject to A x <= b, x >= 0 with integer data and b >= 0,
whose all-slack basis is feasible, so no phase-1 step is needed.  Its
two callers, `packing._solve_lp` and `packing._solve_box_lp`, build
only such programs from a query checked where it entered, so it checks
nothing.  It pivots a condensed integer tableau (Avis 2000, as in lrs):
rows for the basic variables and the cost, columns for the nonbasic
variables and the rhs only, no identity block of slack columns.  Its
entries share one denominator, the last pivot, and every update divides
exactly by the previous one (Bareiss 1968; Edmonds 1967); a pivot
negates its column and writes the old denominator at the pivot.  The
optimum is read off as integer numerators over that denominator, with
no `Fraction` built.  Bland's rule makes every solve terminate and
deterministic.  The square solver is Gauss-Jordan on the same pivot.
"""
from __future__ import annotations

from typing import Sequence


class UnboundedProgramError(Exception):
    """The linear program has unbounded objective value."""


def simplex_maximize(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Solve max 1.x s.t. rows.x <= rhs, x >= 0 exactly.

    Unchecked precondition, met by both callers: at least one row, rows
    of one length (the number of variables), int entries, rhs >= 0.
    Returns (x, den): one optimal vertex x / den, over the tableau's
    common denominator den > 0, not reduced; the optimal value is
    sum(x) / den.  The pivot choice is Bland's rule: the smallest
    variable label with positive reduced cost enters, and the smallest
    basic label leaves on ratio ties.  An unbounded objective raises
    UnboundedProgramError.  The true tableau is T / D with D > 0: D
    starts at 1 and becomes each pivot, which is positive, so every sign
    test on T reads as it would on T / D.
    """
    m = len(rows[0])
    n = len(rows)
    # Variables 0..m-1 are structural, m..m+n-1 slack.  Row i holds basic
    # variable basis[i], column j nonbasic cobasis[j]; row n is the cost.
    tab = [list(row) + [b] for row, b in zip(rows, rhs)] + [[1] * m + [0]]
    basis = list(range(m, m + n))
    cobasis = list(range(m))
    den = 1

    while True:
        cost = tab[n]
        enter = -1  # the column of the smallest label with cost > 0
        for j in range(m):
            if cost[j] > 0 and (enter < 0 or cobasis[j] < cobasis[enter]):
                enter = j
        if enter < 0:
            break
        leave, b_best, a_best = None, 1, 0  # b_best / a_best = +infinity
        for i in range(n):
            coef = tab[i][enter]
            if coef > 0:
                b = tab[i][-1]
                d = b * a_best - b_best * coef  # sign of b/coef - b_best/a_best
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave, b_best, a_best = i, b, coef
        if leave is None:
            raise UnboundedProgramError("objective increases without bound")
        den = _pivot(tab, leave, enter, den)
        basis[leave], cobasis[enter] = cobasis[enter], basis[leave]

    x = [0] * (m + n)
    for bv, r in zip(basis, tab):
        x[bv] = r[-1]
    return tuple(x[:m]), den


def _pivot(tab: list[list[int]], row: int, col: int, den: int) -> int:
    """Pivot on p = tab[row][col] in place; return p, the new denominator.

    On the condensed tableau (Avis 2000) this swaps the basic variable
    of `row` with the nonbasic one of `col`: the pivot row stays, the
    pivot column is negated, den is written at the pivot, and each other
    entry v becomes (v*p - f*q) / den, exact as every entry is a minor.
    """
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i != row:
            f = r[col]
            if f:
                r = [(v * p - f * q) // den for v, q in zip(r, prow)]
                r[col] = -f
                tab[i] = r
            elif p != den:  # with f = 0 the row only scales by p / den
                tab[i] = [v * p // den for v in r]
    prow[col] = den
    return p


def solve_integer_system_scaled(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int] | None:
    """Solve the square integer system rows.x = rhs exactly.

    Fraction-free Gauss-Jordan elimination on `_pivot`: each column is
    pivoted on the first row not pivoted yet with a nonzero entry there,
    and a column with no such row means a singular matrix, answered by
    None.  After the last pivot, den, which is +-det(rows), each
    unknown is its pivot row's right-hand side over den.  Returns
    (num, den) with den > 0 and solution x = num / den (not necessarily
    reduced).  No library code calls it: it stays public for callers and
    for the basis-by-basis reference enumeration in the tests.
    """
    n = len(rows)
    tab = [list(row) + [b] for row, b in zip(rows, rhs)]
    order: list[int] = []  # order[j]: the row pivoted on column j
    den = 1
    for col in range(n):
        row = next((i for i in range(n) if i not in order and tab[i][col]), None)
        if row is None:
            return None
        den = _pivot(tab, row, col, den)
        order.append(row)
    sign = 1 if den > 0 else -1
    return tuple(sign * tab[i][n] for i in order), sign * den
