from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeclosure.closure import (
    PowerIdentityCertificate,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from edgeclosure.ideals import MonomialIdeal
from edgeclosure.packing import (
    MembershipCertificate,
    fractional_packing,
    integer_packing,
    verify_certificate,
)
from edgeclosure.simplex import (
    UnboundedProgramError,
    simplex_maximize,
    solve_integer_system_scaled,
)

from oracles import simplex_maximize_fractions, solve_integer_system


def simplex_fractions(rows, rhs):
    """`simplex_maximize` read as exact values: each numerator over den."""
    x, den = simplex_maximize(rows, rhs)
    assert den > 0
    return Fraction(sum(x), den), tuple(Fraction(t, den) for t in x)


def fraction_det(rows):
    """det(rows) by Gaussian elimination over `Fraction`s."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return det


def _solve(solver, rows, rhs):
    try:
        return solver(rows, rhs)
    except UnboundedProgramError:
        return "unbounded"


@st.composite
def packing_lps(draw):
    """max 1.y s.t. M y <= b: n, m <= 6, entries <= 4, rhs <= 12.

    Zero right-hand sides and duplicated rows are drawn on purpose, so
    degenerate pivots and Bland's tie-break on equal ratios occur.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 4), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    rhs = draw(st.lists(st.one_of(st.just(0), st.integers(0, 12)), min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows.append(list(rows[i]))
        rhs.append(draw(st.sampled_from((rhs[i], 0, 12))))
    return rows, rhs


@st.composite
def box_lps(draw):
    """The shape `packing._solve_box_lp` builds: a packing LP over shifted
    right-hand sides plus one unit row y_i <= span per bounded variable."""
    rows, rhs = draw(packing_lps())
    m = len(rows[0])
    for i, span in draw(st.dictionaries(st.integers(0, m - 1), st.integers(0, 3))).items():
        rows.append([int(t == i) for t in range(m)])
        rhs.append(span)
    return rows, rhs


# Ratio ties whose tie-break changes the returned vertex are rare in
# random draws (about one LP in 15,000, and far fewer once pivots have
# reordered the basis, as in the last one), so four are pinned, each with
# its raw, unreduced (x, den), as a full slack tableau returns it too.
TIES = [
    (([[4, 0, 2], [4, 3, 3], [1, 3, 0]], [11, 11, 11]), ((0, 0, 11), 3)),
    (
        ([[2, 3, 3], [0, 0, 0], [3, 2, 2], [3, 1, 3], [0, 0, 0]], [9, 0, 10, 10, 0]),
        ((12, 7, 0), 5),
    ),
    (
        (
            [[2, 1, 1, 1], [0, 0, 4, 0], [2, 0, 2, 3], [0, 0, 4, 0], [0, 0, 4, 0]],
            [2, 0, 2, 0, 0],
        ),
        ((0, 2, 0, 0), 1),
    ),
    (([[1, 4, 2, 4], [4, 2, 3, 1], [4, 2, 3, 1]], [6, 3, 3]), ((6, 0, 0, 21), 15)),
]

# Two branch-and-bound children of a slow seed-1 `certificates` query: the
# exponent matrix of (0,0,4,3,4), (1,0,1,4,3), (1,0,3,4,0), (2,0,2,1,4),
# (4,4,0,1,3), (4,4,2,0,3) under a = (8, 8, 5, 10, 10), with three and
# four unit bound rows, and their raw (x, den), the first not in lowest
# terms.
EXPONENTS = [
    [0, 1, 1, 2, 4, 4],
    [0, 0, 0, 0, 4, 4],
    [4, 1, 3, 2, 0, 2],
    [3, 4, 4, 1, 1, 0],
    [4, 3, 0, 4, 3, 3],
]
UNITS = [[int(t == i) for t in range(6)] for i in range(6)]
BOX_CHILDREN = [
    (
        (EXPONENTS + [UNITS[0], UNITS[3], UNITS[4]], [8, 8, 5, 10, 10, 0, 0, 0]),
        ((0, 110, 10, 0, 0, 50), 48),
    ),
    (
        (EXPONENTS + [UNITS[0], UNITS[1], UNITS[3], UNITS[4]], [8, 8, 5, 10, 10, 0, 2, 0, 0]),
        ((0, 18, 1, 0, 0, 12), 9),
    ),
]


class TestSimplex:
    def test_two_variable_polygon(self):
        # max y1 + y2 with 2y1 <= 1, 2y1 + 2y2 <= 4, 2y2 <= 1
        value, y = simplex_fractions([[2, 0], [2, 2], [0, 2]], [1, 4, 1])
        assert value == 1
        assert y == (Fraction(1, 2), Fraction(1, 2))

    def test_single_variable(self):
        assert simplex_maximize([[3]], [7]) == ((7,), 3)
        value, y = simplex_fractions([[3]], [7])
        assert value == Fraction(7, 3)
        assert y == (Fraction(7, 3),)

    def test_zero_rhs_pins_solution_at_origin(self):
        value, y = simplex_fractions([[1, 0], [0, 1]], [0, 0])
        assert value == 0
        assert y == (Fraction(0), Fraction(0))

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedProgramError):
            simplex_maximize([[1, 0]], [5])

    def test_deterministic(self):
        args = ([[2, 1, 0], [0, 1, 2], [1, 1, 1]], [5, 7, 4])
        assert simplex_maximize(*args) == simplex_maximize(*args)

    def test_degenerate_constraints_terminate(self):
        # redundant and degenerate rows exercise Bland's rule
        value, y = simplex_fractions([[1, 1], [1, 1], [2, 2], [1, 0]], [2, 2, 4, 2])
        assert value == 2

    @settings(max_examples=400, deadline=None)
    @given(packing_lps())
    @example(TIES[0][0])
    @example(TIES[1][0])
    @example(TIES[2][0])
    @example(TIES[3][0])
    def test_matches_fraction_tableau_on_packing_lps(self, lp):
        assert _solve(simplex_fractions, *lp) == _solve(simplex_maximize_fractions, *lp)

    @pytest.mark.parametrize(
        "lp, raw", TIES + BOX_CHILDREN, ids=["tie-0", "tie-1", "tie-2", "tie-3", "box-3", "box-4"]
    )
    def test_raw_output_pinned(self, lp, raw):
        # The exact numerators and denominator, unreduced: a pivot sequence
        # that reaches the same vertex over another denominator fails here,
        # where the Fraction comparisons pass.
        assert simplex_maximize(*lp) == raw

    @settings(max_examples=300, deadline=None)
    @given(box_lps())
    def test_matches_fraction_tableau_on_box_lps(self, lp):
        assert _solve(simplex_fractions, *lp) == _solve(simplex_maximize_fractions, *lp)

    @pytest.mark.parametrize(
        "bad",
        [Fraction(1, 2), Fraction(2), 1.0, True],
        ids=["half", "two-as-fraction", "float", "bool"],
    )
    @pytest.mark.parametrize("where", ["rows", "rhs"])
    def test_non_integer_entries_rejected(self, bad, where, solve_keys):
        # The simplex trusts its callers, so a bad entry is refused where
        # it enters the package: a row is a generator of the ideal, the
        # rhs is the bound of a query.  No LP is solved either way.
        if where == "rows":
            entries = (lambda: MonomialIdeal(3, [(2, 2, 0), (0, 2, bad)]),)
        else:
            ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
            bound = (1, bad, 1)
            cert = MembershipCertificate((0, 0), 1)
            identity = PowerIdentityCertificate(scale=1, multiplicities=(1, 0), slack=(0, 0, 0))
            entries = (
                lambda: fractional_packing(ideal, bound),
                lambda: integer_packing(ideal, bound),
                lambda: power_identity_certificate(ideal, bound, 1),
                lambda: scaling_membership(ideal, bound, 1),
                lambda: verify_certificate(ideal, bound, cert),
                lambda: verify_power_identity(ideal, bound, 1, identity),
            )
        for enter in entries:
            with pytest.raises(TypeError, match="exponent entries must be int"):
                enter()
        assert solve_keys == []


class TestIntegerSystem:
    def test_known_solution(self):
        sol = solve_integer_system([[2, 1], [1, 3]], [5, 10])
        assert sol == (Fraction(1), Fraction(3))

    def test_rational_solution(self):
        sol = solve_integer_system([[2, 0], [0, 4]], [1, 1])
        assert sol == (Fraction(1, 2), Fraction(1, 4))

    def test_singular_returns_none(self):
        assert solve_integer_system([[1, 2], [2, 4]], [1, 2]) is None
        assert solve_integer_system([[0, 0], [0, 0]], [0, 0]) is None

    def test_scaled_matches_fractions(self):
        num, den = solve_integer_system_scaled([[2, 0], [0, 4]], [1, 1])
        assert den > 0
        assert (Fraction(num[0], den), Fraction(num[1], den)) == (
            Fraction(1, 2),
            Fraction(1, 4),
        )

    @settings(max_examples=80)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            )
        )
    )
    def test_roundtrip_against_constructed_solution(self, case):
        rows, x = case
        rhs = [sum(r[j] * x[j] for j in range(len(x))) for r in rows]
        scaled = solve_integer_system_scaled(rows, rhs)
        det = fraction_det(rows)
        if scaled is None:
            assert det == 0
            return
        num, den = scaled
        # solution of a nonsingular system is unique, so it must be x
        assert tuple(Fraction(v, den) for v in num) == tuple(Fraction(v) for v in x)
        assert den > 0
        assert den == abs(det)

    def test_negative_determinant_gives_positive_den(self):
        # det = -3, and the last pivot is -3 before the sign is normalized
        assert fraction_det([[2, 1], [1, -1]]) == -3
        assert solve_integer_system_scaled([[2, 1], [1, -1]], [3, 0]) == ((3, 3), 3)
