"""Exact fraction-free simplex and fraction-free linear solving.

One pivot, `_pivot`, serves both solvers, in Python integers only.  The
simplex solves the one program this package asks: the packing LP
max 1.x subject to A x <= b, x >= 0 with integer data and b >= 0,
whose all-slack basis is feasible, so no phase-1 step is needed.  Its
two callers, `packing._solve_lp` and `packing._solve_box_lp`, build
only such programs from a query checked where it entered, so it checks
nothing.  It keeps one integer tableau over a common denominator, the
last pivot, and divides every update exactly by the previous one
(Bareiss 1968; Edmonds 1967), so the optimum is read off the tableau as
integer numerators over that denominator, and no `Fraction` is built
here at all.  Bland's rule guarantees termination and makes every solve
deterministic.  The square solver is Gauss-Jordan elimination with the
same pivot.
"""
from __future__ import annotations

from typing import Sequence


class UnboundedProgramError(Exception):
    """The linear program has unbounded objective value."""


def simplex_maximize(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Solve max 1.x s.t. rows.x <= rhs, x >= 0 exactly.

    The number of variables is the row length.  Unchecked precondition,
    met by both callers: at least one row, rows of one length, int
    entries, rhs >= 0.  `packing._solve_lp` passes a proper ideal's
    `exponent_matrix()` and a checked bound; `packing._solve_box_lp`
    adds 0/1 unit rows and returns None before a negative shifted rhs.
    Returns (x, den): one optimal vertex x / den, over the tableau's
    common denominator den > 0, not reduced; the optimal value is
    sum(x) / den.  The pivot choice is Bland's rule: smallest
    eligible column, then smallest basic variable on ratio ties.  An
    unbounded objective raises UnboundedProgramError.

    The tableau holds integers T with a common denominator D > 0: the
    true tableau is T / D.  D starts at 1 and becomes the pivot after
    each pivot; pivots are positive, so every sign test on T reads as
    it would on T / D.
    """
    m = len(rows[0])
    n = len(rows)
    # Tableau columns: m structural vars, n slacks, rhs.  Row n is the
    # cost row, all ones on the structural columns, pivoted like the
    # constraint rows.
    tab = [
        list(rows[i]) + [int(j == i) for j in range(n)] + [rhs[i]]
        for i in range(n)
    ]
    tab.append([1] * m + [0] * (n + 1))
    basis = list(range(m, m + n))
    den = 1

    while True:
        cost = tab[n]
        enter = next((j for j in range(m + n) if cost[j] > 0), None)
        if enter is None:
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
        basis[leave] = enter

    x = [0] * m
    for i, bv in enumerate(basis):
        if bv < m:
            x[bv] = tab[i][-1]
    return tuple(x), den


def _pivot(tab: list[list[int]], row: int, col: int, den: int) -> int:
    """Pivot on (row, col) in place; return the new common denominator.

    Each entry outside the pivot row becomes (v*p - f*q) / den, an exact
    division because every entry is a minor of the input data.
    """
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i != row:
            f = r[col]
            tab[i] = [(v * p - f * q) // den for v, q in zip(r, prow)]
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
    reduced).

    The library itself no longer calls this solver: the dual vertices
    come from `packing.dual_functionals`.  It stays public for callers
    and for the basis-by-basis reference enumeration in the tests.
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
