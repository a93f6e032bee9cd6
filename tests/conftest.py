import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

import edgeclosure.packing
from edgeclosure.graphs import WeightedGraph
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


@st.composite
def weighted_graphs(draw, n_max: int = 7, weight_max: int = 3) -> WeightedGraph:
    """Hypothesis strategy: a labeled graph on 1..n, n <= n_max, each
    pair absent or weighted 1..weight_max."""
    n = draw(st.integers(1, n_max))
    pairs = list(combinations(range(1, n + 1), 2))
    ws = draw(st.lists(st.integers(0, weight_max), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(pairs, ws) if w))


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
