import math
import random
from fractions import Fraction
from itertools import product

import pytest

from edgeclosure import covers
from edgeclosure.covers import (
    PathInstance,
    extract_cover,
    first_violated_inequality,
)
from edgeclosure.errors import (
    DimensionMismatchError,
    InfeasibleInstanceError,
    ResourceCapError,
)
from edgeclosure.graphs import edge_ideal, path_graph
from edgeclosure.packing import fractional_packing

from oracles import _alternating_sums, extract_cover_by_segments, find_cover_bruteforce


def make_instance(n, a, y):
    return PathInstance(n, tuple(a), tuple(Fraction(v) for v in y))


def random_feasible_instance(rng: random.Random, n_max: int = 10) -> PathInstance:
    """Random y first, then exponents built to satisfy the system."""
    n = rng.randint(2, n_max)
    y = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n - 1)]
    a = []
    for i in range(n):
        if i == 0:
            need = y[0]
        elif i == n - 1:
            need = y[n - 2]
        else:
            need = y[i - 1] + y[i]
        a.append(math.ceil(need) + rng.randint(0, 2))
    return PathInstance(n, tuple(a), tuple(y))


class TestExamples:
    def test_disjoint_edges(self):
        inst = make_instance(4, (1, 1, 1, 1), (1, 0, 1))
        assert extract_cover(inst) == ((1, 2), (3, 4))
        assert inst.target_size() == 2

    def test_adjacent_edges(self):
        inst = make_instance(3, (1, 2, 1), (1, 1))
        assert extract_cover(inst) == ((1, 2), (2, 3))

    def test_documented_infeasible_case(self):
        # this exact input violates its own inequality system (the third
        # inner inequality), and indeed no size-3 multiset divides x^a
        with pytest.raises(InfeasibleInstanceError, match=r"y\[3\] \+ y\[4\]"):
            make_instance(5, (2, 1, 3, 1, 2), (1, 0, 1, 1))
        assert find_cover_bruteforce((2, 1, 3, 1, 2), 3) is None
        assert find_cover_bruteforce((2, 1, 3, 1, 2), 2) is not None


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_instance(3, (1, 1), (1, 1))
        with pytest.raises(DimensionMismatchError):
            make_instance(3, (1, 1, 1), (1,))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            make_instance(3, (1, -1, 1), (0, 0))
        with pytest.raises(ValueError):
            PathInstance(3, (1, 1, 1), (Fraction(-1), Fraction(0)))

    def test_first_violation_reported(self):
        msg = first_violated_inequality((0, 5, 5), (Fraction(1), Fraction(1)))
        assert msg == "y[1] = 1 > a[1] = 0"

    def test_last_vertex_violation_reported(self):
        msg = first_violated_inequality((1, 0), (Fraction(1),))
        assert msg == "y[1] = 1 > a[2] = 0"

    def test_too_short_path(self):
        with pytest.raises(ValueError):
            make_instance(1, (1,), ())

    @pytest.mark.parametrize(
        "a, y",
        [
            ((True, True), (Fraction(1),)),
            ((1, False), (Fraction(0),)),
            ((1, 1), (0.1,)),
            ((1, 1), (1.0,)),
            ((1, 1), (True,)),
            ((2, 2, 2), (Fraction(1), False)),
        ],
        ids=["bool-a", "bool-a-zero", "float-y", "integral-float-y", "bool-y", "bool-y-zero"],
    )
    def test_inexact_entries_rejected(self, a, y):
        with pytest.raises(TypeError):
            PathInstance(len(a), a, y)

    def test_non_int_vertex_count_refused(self):
        with pytest.raises(TypeError, match=r"^n must be an int, got 2\.0$"):
            PathInstance(2.0, (1, 1), (1,))

    def test_int_and_fraction_entries_accepted(self):
        inst = PathInstance(3, (1, 2, 1), (1, Fraction(1, 2)))
        assert inst.y == (Fraction(1), Fraction(1, 2))


class TestSizeCap:
    def test_cover_over_cap_raises(self, monkeypatch):
        monkeypatch.setattr(covers, "MAX_COVER_EDGES", 5)
        inst = make_instance(3, (3, 6, 3), (3, 3))
        with pytest.raises(ResourceCapError, match="6 edges"):
            extract_cover(inst)

    def test_cover_at_cap_is_built(self, monkeypatch):
        monkeypatch.setattr(covers, "MAX_COVER_EDGES", 6)
        inst = make_instance(3, (3, 6, 3), (3, 3))
        assert extract_cover(inst) == ((1, 2),) * 3 + ((2, 3),) * 3

    def test_default_cap(self):
        assert covers.MAX_COVER_EDGES == 1_000_000


class TestProperties:
    def test_divisibility_and_cardinality(self):
        rng = random.Random(4242)
        for _ in range(400):
            inst = random_feasible_instance(rng)
            edges = extract_cover(inst)
            used = [0] * inst.n
            for u, v in edges:
                assert v == u + 1
                used[u - 1] += 1
                used[v - 1] += 1
            assert all(c <= a for c, a in zip(used, inst.a))
            assert len(edges) >= inst.target_size()

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(50):
            inst = random_feasible_instance(rng)
            assert extract_cover(inst) == extract_cover(inst)

    def test_optimal_certificate_gives_exact_ceiling(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(2, 8)
            a = tuple(rng.randint(0, 6) for _ in range(n))
            ideal = edge_ideal(path_graph((1,) * (n - 1)))
            cert = fractional_packing(ideal, a)
            # generators are lex-sorted; map components back to edge order
            by_gen = dict(zip(ideal.generators, cert.y))
            y = tuple(
                by_gen[tuple(1 if j in (i, i + 1) else 0 for j in range(n))]
                for i in range(n - 1)
            )
            inst = PathInstance(n, a, y)
            edges = extract_cover(inst)
            assert len(edges) == math.ceil(cert.value), (a, y, edges)

    def test_agrees_with_bruteforce_existence(self):
        rng = random.Random(13)
        for _ in range(60):
            inst = random_feasible_instance(rng, n_max=6)
            size = len(extract_cover(inst))
            if size <= 4:
                assert find_cover_bruteforce(inst.a, size) is not None

    def test_alternating_segment_recurrence(self):
        # inside a leading alternating segment, consecutive sums return a_j
        rng = random.Random(5)
        for _ in range(100):
            seg = [rng.randint(0, 6) for _ in range(rng.randint(2, 8))]
            b = _alternating_sums(seg)
            assert b[0] == seg[0]
            for j in range(1, len(seg)):
                assert b[j] + b[j - 1] == seg[j]

    def test_matches_segment_construction_exhaustively(self):
        for n in range(2, 7):
            for a in product(range(5), repeat=n):
                inst = make_instance(n, a, (0,) * (n - 1))
                assert extract_cover(inst) == extract_cover_by_segments(inst), a

    def test_cover_is_maximum(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 6)
            a = tuple(rng.randint(0, 4) for _ in range(n))
            edges = extract_cover(make_instance(n, a, (0,) * (n - 1)))
            assert find_cover_bruteforce(a, len(edges) + 1) is None, a
