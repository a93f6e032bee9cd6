import random
import re
import time
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeclosure.errors import DimensionMismatchError, ResourceCapError
from edgeclosure.ideals import (
    MonomialIdeal,
    as_exponent_vector,
    box_strides,
    divides,
    flat_index,
    generator_sums,
    member,
    minimalize,
    power,
)

from conftest import proper_ideals, random_proper_ideal
from oracles import power_by_multisets

small_vectors = st.lists(
    st.tuples(*[st.integers(0, 4)] * 3), min_size=0, max_size=6
)


class TestMinimalize:
    def test_drops_divisible_generator(self):
        ideal = minimalize({(2, 2, 0), (2, 4, 2)})
        assert ideal.generators == ((2, 2, 0),)

    def test_keeps_incomparable_pair(self):
        ideal = minimalize({(2, 2, 0), (0, 2, 2)})
        assert ideal.generators == ((0, 2, 2), (2, 2, 0))

    def test_empty_set_is_zero_ideal(self):
        ideal = minimalize(set(), n=3)
        assert ideal.is_zero
        assert ideal.n == 3

    def test_empty_set_without_dimension_rejected(self):
        with pytest.raises(ValueError):
            minimalize(set())

    def test_zero_vector_yields_unit_ideal(self):
        ideal = minimalize({(0, 0), (1, 2)})
        assert ideal.is_unit
        assert ideal.generators == ((0, 0),)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            minimalize({(1, 2), (1, 2, 3)})

    @settings(max_examples=60)
    @given(small_vectors)
    def test_idempotent(self, vecs):
        first = minimalize(vecs, n=3)
        second = minimalize(first.generators, n=3)
        assert first == second

    @settings(max_examples=60)
    @given(small_vectors)
    def test_output_is_antichain_preserving_upset(self, vecs):
        ideal = minimalize(vecs, n=3)
        gens = ideal.generators
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                assert not divides(g, h) and not divides(h, g)
        assert ideal.is_zero == (len(vecs) == 0)
        # every input vector is still in the up-set
        for v in vecs:
            assert member(ideal, v)


class TestDivides:
    def test_examples(self):
        assert divides((1, 2, 1), (2, 2, 1))
        assert not divides((1, 2, 1), (2, 2, 0))
        assert divides((0, 0, 0), (5, 0, 7))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            divides((1, 2), (1, 2, 3))


class TestPower:
    def test_principal(self):
        ideal = MonomialIdeal(2, [(2, 2)])
        assert power(ideal, 3).generators == ((6, 6),)

    def test_two_generator_square(self):
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        # oracle: all pairwise sums, none divides another
        sums = sorted(
            {
                tuple(x + y for x, y in zip(a, b))
                for a in ideal.generators
                for b in ideal.generators
            }
        )
        assert power(ideal, 2).generators == tuple(sums)
        assert power(ideal, 2).generators == ((0, 4, 4), (2, 4, 2), (4, 4, 0))

    @settings(max_examples=100, deadline=None)
    @given(proper_ideals())
    def test_first_and_second_power(self, ideal):
        assert power(ideal, 1) == ideal
        assert power(ideal, 2) == power_by_multisets(ideal, 2)

    def test_zero_ideal(self):
        zero = minimalize(set(), n=2)
        assert power(zero, 5).is_zero

    @settings(max_examples=100, deadline=None)
    @given(proper_ideals(), st.integers(1, 3))
    def test_generator_sums_are_the_multiset_sums(self, ideal, k):
        # the j-th set holds the sums of j generators, j = 1..k, all in the box of power k
        shape = [k * max(g[j] for g in ideal.generators) + 1 for j in range(ideal.n)]
        rounds, strides = generator_sums(ideal, k)
        assert strides == box_strides(shape)
        rounds = list(rounds)
        assert len(rounds) == k
        for j, indices in enumerate(rounds, 1):
            expected = {
                tuple(map(sum, zip(*combo)))
                for combo in combinations_with_replacement(ideal.generators, j)
            }
            decoded = [decode(i, shape) for i in indices]
            # a list, so that two indices of one vector would show
            assert sorted(decoded) == sorted(expected)
        assert minimalize(decoded, ideal.n) == power_by_multisets(ideal, k)

    def test_generator_sums_check_the_deadline(self):
        # before each round, when its set is drawn: the first set needs none
        ideal = MonomialIdeal(2, [(1, 0), (0, 1)])
        rounds, _ = generator_sums(ideal, 2, deadline=time.monotonic() - 1)
        assert next(rounds) == {1, 3}
        with pytest.raises(ResourceCapError):
            next(rounds)

    def test_rejects_k_zero(self):
        ideal = MonomialIdeal(2, [(1, 1)])
        with pytest.raises(ValueError):
            power(ideal, 0)

    def test_additivity_of_exponents_small(self, rng):
        # up-set of I^(k1+k2) equals up-set of sums from I^k1 and I^k2
        for _ in range(12):
            ideal = random_proper_ideal(rng, n_max=3, m_max=4, entry_max=3)
            for k1, k2 in product((1, 2), repeat=2):
                combined = power(ideal, k1 + k2)
                pk1, pk2 = power(ideal, k1), power(ideal, k2)
                sums = minimalize(
                    {
                        tuple(a + b for a, b in zip(g, h))
                        for g in pk1.generators
                        for h in pk2.generators
                    },
                    ideal.n,
                )
                assert combined == sums


def decode(index, shape):
    """The point of the box with axis lengths `shape` at a row-major index."""
    a = []
    for b in reversed(shape):
        index, entry = divmod(index, b)
        a.append(entry)
    assert index == 0
    return tuple(reversed(a))


@st.composite
def box_and_two_points(draw):
    shape = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    point = st.tuples(*[st.integers(0, b - 1) for b in shape])
    return shape, draw(point), draw(point)


class TestFlatIndex:
    @settings(max_examples=300, deadline=None)
    @given(box_and_two_points())
    def test_index_order_is_lex_order_and_sums_add(self, case):
        shape, a, b = case
        strides = box_strides(shape)
        ia, ib = flat_index(a, strides), flat_index(b, strides)
        assert decode(ia, shape) == a
        assert (ia < ib) == (a < b) and (ia == ib) == (a == b)
        total = tuple(x + y for x, y in zip(a, b))
        if all(t < n for t, n in zip(total, shape)):
            assert flat_index(total, strides) == ia + ib

    def test_strides_are_row_major(self):
        assert box_strides((3, 4, 5)) == (20, 5, 1)
        assert box_strides((7,)) == (1,)
        assert box_strides(()) == ()


class TestExponentMatrix:
    def test_rows_by_variable_computed_once(self):
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        assert ideal.exponent_matrix() == ((0, 2), (2, 2), (2, 0))
        assert ideal.exponent_matrix() is ideal.exponent_matrix()
        assert MonomialIdeal(2, []).exponent_matrix() == ((), ())


class TestMember:
    def test_examples(self):
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        assert not member(ideal, (1, 4, 1))
        assert member(ideal, (2, 3, 0))
        assert not member(minimalize(set(), n=3), (9, 9, 9))

    def test_unit_ideal_contains_everything(self):
        unit = MonomialIdeal(2, [(0, 0)])
        assert member(unit, (0, 0))
        assert member(unit, (3, 1))

    def test_dimension_mismatch(self):
        ideal = MonomialIdeal(3, [(2, 2, 0)])
        with pytest.raises(DimensionMismatchError):
            member(ideal, (1, 2))


class TestValidation:
    def test_non_antichain_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [(1, 1), (2, 2)])

    def test_zero_vector_with_others_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [(0, 0), (2, 1)])

    def test_zero_vector_fails_the_antichain_check(self):
        with pytest.raises(ValueError, match="not an antichain"):
            MonomialIdeal(2, [(0, 0), (1, 0)])

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            MonomialIdeal(-1, ())

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError, match="duplicate generators"):
            MonomialIdeal(2, [(1, 2), (2, 1), (1, 2)])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            as_exponent_vector((1, -1))

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            as_exponent_vector((2**63,))

    def test_sum_overflow_rejected(self):
        with pytest.raises(OverflowError):
            power(MonomialIdeal(1, [(2**62,)]), 2)

    def test_generators_sorted_and_hashable(self):
        a = MonomialIdeal(2, [(3, 0), (0, 3)])
        b = MonomialIdeal(2, [(0, 3), (3, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.generators == ((0, 3), (3, 0))


@pytest.mark.parametrize("n", [2.0, True], ids=["float", "bool"])
def test_variable_count_must_be_an_int(n):
    # 2.0 == 2 and True == 1 would pass a range test; the type is refused first
    with pytest.raises(TypeError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
        MonomialIdeal(n, [(1,) * int(n)])


@pytest.mark.parametrize(
    "k, error, message",
    [
        (True, TypeError, "k must be an int, got True"),
        (2.0, TypeError, "k must be an int, got 2.0"),
        (0, ValueError, "k must be >= 1, got 0"),
    ],
    ids=["bool", "float", "zero"],
)
@pytest.mark.parametrize("call", [power, generator_sums], ids=["power", "generator_sums"])
def test_power_exponent_must_be_a_positive_int(call, k, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(MonomialIdeal(2, [(1, 1)]), k)
