from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeclosure.simplex import (
    UnboundedProgramError,
    simplex_maximize,
    solve_integer_system_scaled,
)

from oracles import solve_integer_system


class TestSimplex:
    def test_two_variable_polygon(self):
        # max y1 + y2 with 2y1 <= 1, 2y1 + 2y2 <= 4, 2y2 <= 1
        value, y = simplex_maximize(
            [1, 1], [[2, 0], [2, 2], [0, 2]], [1, 4, 1]
        )
        assert value == 1
        assert y == (Fraction(1, 2), Fraction(1, 2))

    def test_single_variable(self):
        value, y = simplex_maximize([1], [[3]], [7])
        assert value == Fraction(7, 3)
        assert y == (Fraction(7, 3),)

    def test_zero_rhs_pins_solution_at_origin(self):
        value, y = simplex_maximize([1, 1], [[1, 0], [0, 1]], [0, 0])
        assert value == 0
        assert y == (Fraction(0), Fraction(0))

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedProgramError):
            simplex_maximize([1, 1], [[1, 0]], [5])

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            simplex_maximize([1], [[1]], [-1])

    def test_deterministic(self):
        args = ([1, 1, 1], [[2, 1, 0], [0, 1, 2], [1, 1, 1]], [5, 7, 4])
        assert simplex_maximize(*args) == simplex_maximize(*args)

    def test_degenerate_constraints_terminate(self):
        # redundant and degenerate rows exercise Bland's rule
        value, y = simplex_maximize(
            [1, 1],
            [[1, 1], [1, 1], [2, 2], [1, 0]],
            [2, 2, 4, 2],
        )
        assert value == 2


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
        sol = solve_integer_system(rows, rhs)
        if sol is None:
            return  # singular matrix: nothing to check
        # solution of a nonsingular system is unique, so it must be x
        assert sol == tuple(Fraction(v) for v in x)
