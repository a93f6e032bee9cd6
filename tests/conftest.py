import random

import pytest
from hypothesis import strategies as st

import edgeclosure.packing
from edgeclosure.ideals import MonomialIdeal, minimalize


def random_proper_ideal(
    rng: random.Random, n_max: int = 5, m_max: int = 4, entry_max: int = 4
) -> MonomialIdeal:
    """A random non-zero, non-unit ideal for fuzz-style checks."""
    while True:
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_max)
        gens = set()
        attempts = 0
        while len(gens) < m and attempts < 50:
            attempts += 1
            v = tuple(rng.randint(0, entry_max) for _ in range(n))
            if any(v):
                gens.add(v)
        ideal = minimalize(gens)
        if not ideal.is_zero and not ideal.is_unit:
            return ideal


@st.composite
def proper_ideals(draw) -> MonomialIdeal:
    """Hypothesis strategy: n <= 6 variables, at most 6 generators, entries <= 4."""
    n = draw(st.integers(1, 6))
    vectors = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=6)
    )
    return minimalize(vectors, n)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture
def solve_keys(monkeypatch) -> list:
    """The (rows, rhs) of every packing LP solved while the test runs."""
    keys = []
    solve = edgeclosure.packing.simplex_maximize

    def counting(rows, rhs):
        keys.append((tuple(map(tuple, rows)), tuple(rhs)))
        return solve(rows, rhs)

    monkeypatch.setattr(edgeclosure.packing, "simplex_maximize", counting)
    return keys
