import hashlib
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import edgeclosure.packing

from edgeclosure.closure import (
    PowerIdentityCertificate,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from edgeclosure.errors import ResourceCapError, UnitIdealError, ZeroIdealError
from edgeclosure.graphs import WeightedGraph, edge_ideal
from edgeclosure.ideals import MonomialIdeal, member, minimalize, power
from edgeclosure.packing import (
    MembershipCertificate,
    dual_functionals,
    fractional_packing,
    integer_packing,
    verify_certificate,
)
from edgeclosure.verify import enumerate_weighted_graphs

from conftest import proper_ideals, random_proper_ideal
from oracles import (
    dual_functionals_by_bases,
    enumeration_bounds,
    fractional_value_by_duality,
    integer_packing_by_fractions,
    integer_packing_enumerated,
)

PAIR = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
# Its packing under (5, 1) is y = (1/3, 5/2): tight on both coordinates,
# with two different denominators.
MIXED = MonomialIdeal(2, [(0, 3), (2, 0)])


def lp_value_by_vertex_enumeration(rows, rhs) -> Fraction:
    """Independent 2-variable oracle: evaluate all constraint-pair vertices."""
    lines = [(tuple(r), Fraction(b)) for r, b in zip(rows, rhs)]
    lines += [((1, 0), Fraction(0)), ((0, 1), Fraction(0))]  # y_i >= 0 boundaries
    candidates = {(Fraction(0), Fraction(0))}
    for ((a11, a12), b1), ((a21, a22), b2) in combinations(lines, 2):
        det = a11 * a22 - a12 * a21
        if det == 0:
            continue
        candidates.add(((b1 * a22 - a12 * b2) / det, (a11 * b2 - b1 * a21) / det))
    best = Fraction(0)
    for y1, y2 in candidates:
        if y1 < 0 or y2 < 0:
            continue
        if all(r[0] * y1 + r[1] * y2 <= b for r, b in zip(rows, rhs)):
            best = max(best, y1 + y2)
    return best


class TestFractional:
    def test_fractional_optimum_with_vertex_oracle(self):
        rows = PAIR.exponent_matrix()
        assert lp_value_by_vertex_enumeration(rows, (1, 4, 1)) == 1
        cert = fractional_packing(PAIR, (1, 4, 1))
        assert cert.value == 1
        assert cert.y == (Fraction(1, 2), Fraction(1, 2))
        assert (cert.nums, cert.den) == ((1, 1), 2)

    def test_generator_itself(self):
        # generators are stored sorted: ((0,2,2), (2,2,0))
        cert = fractional_packing(PAIR, (2, 2, 0))
        assert cert.value == 1
        assert cert.y == (Fraction(0), Fraction(1))

    def test_zero_query(self):
        assert fractional_packing(PAIR, (0, 0, 0)).value == 0

    def test_rejects_zero_and_unit_ideal(self):
        with pytest.raises(ZeroIdealError):
            fractional_packing(minimalize(set(), n=2), (1, 1))
        with pytest.raises(UnitIdealError):
            fractional_packing(MonomialIdeal(2, [(0, 0)]), (1, 1))


class TestInteger:
    def test_forced_zero(self):
        cert = integer_packing(PAIR, (1, 4, 1))
        assert cert.value == 0
        assert cert.den == 1

    def test_both_generators_fit(self):
        cert = integer_packing(PAIR, (2, 4, 2))
        assert cert.value == 2
        assert cert.y == (Fraction(1), Fraction(1))

    def test_principal_floor(self):
        ideal = MonomialIdeal(2, [(1, 1)])
        assert integer_packing(ideal, (3, 3)).value == 3

    @settings(max_examples=300, deadline=None)
    @given(proper_ideals(), st.data())
    def test_matches_fraction_branch_and_bound(self, ideal, data):
        a = data.draw(st.tuples(*[st.integers(0, 12)] * ideal.n))
        assert integer_packing(ideal, a) == integer_packing_by_fractions(ideal, a)

    def test_agrees_with_enumeration(self, rng):
        for _ in range(150):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 8) for _ in range(ideal.n))
            bb = integer_packing(ideal, a)
            enum = integer_packing_enumerated(ideal, a)
            assert bb.value == enum.value, (ideal.generators, a)

    def test_past_deadline_raises(self):
        # a branching query: the root LP of (1, 4, 1) is fractional
        with pytest.raises(ResourceCapError):
            integer_packing(PAIR, (1, 4, 1), deadline=time.monotonic() - 1.0)

    def test_enumeration_bounds_tight(self):
        assert enumeration_bounds(PAIR, (2, 4, 2)) == (1, 1)

    def test_node_cap(self, monkeypatch):
        # the root LP of (3, 6, 3) is y = (3/2, 3/2): one node to branch on
        monkeypatch.setattr(edgeclosure.packing, "DEFAULT_NODE_CAP", 0)
        with pytest.raises(ResourceCapError):
            integer_packing(PAIR, (3, 6, 3))

    def test_invalid_certificate_fails_the_self_check(self, monkeypatch):
        verify = edgeclosure.packing._certificate_holds
        monkeypatch.setattr(
            edgeclosure.packing,
            "_certificate_holds",
            lambda ideal, bound, cert: cert.den != 1 and verify(ideal, bound, cert),
        )
        assert fractional_packing(PAIR, (3, 6, 3)).den != 1
        with pytest.raises(AssertionError, match="IP oracle"):
            integer_packing(PAIR, (3, 6, 3))


class TestCertificates:
    def test_verify_accepts_valid(self):
        cert = fractional_packing(PAIR, (1, 4, 1))
        assert verify_certificate(PAIR, (1, 4, 1), cert)

    def test_verify_rejects_negative_component(self):
        bad = MembershipCertificate((-1, 3), 2)
        assert not verify_certificate(PAIR, (1, 4, 1), bad)

    def test_verify_rejects_infeasible(self):
        bad = MembershipCertificate((2, 2), 1)
        assert not verify_certificate(PAIR, (1, 4, 1), bad)

    def test_certificates_are_in_lowest_terms(self, rng):
        for _ in range(150):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 4) for _ in range(ideal.n))
            # a fresh solve for a, then the memo's rescaled answer for 2a
            for bound in (a, tuple(2 * v for v in a)):
                lp = fractional_packing(ideal, bound)
                ip = integer_packing(ideal, bound)
                for cert in (lp, ip):
                    assert cert.den >= 1 and math.gcd(cert.den, *cert.nums) == 1
                assert ip.den == 1
                assert lp.value == fractional_value_by_duality(ideal, bound)
                assert ip.value == integer_packing_enumerated(ideal, bound).value


class TestTamperedCertificates:
    """A valid certificate with one invariant broken at a time."""

    A = (5, 1)

    @pytest.fixture
    def cert(self):
        # y = (1/3, 5/2) is tight on both coordinates of A
        cert = fractional_packing(MIXED, self.A)
        assert (cert.nums, cert.den) == ((2, 15), 6)
        assert verify_certificate(MIXED, self.A, cert)
        return cert

    @pytest.mark.parametrize("index", [0, 1])
    def test_numerator_raised_by_one(self, cert, index):
        nums = list(cert.nums)
        nums[index] += 1
        assert not verify_certificate(MIXED, self.A, replace(cert, nums=tuple(nums)))

    @pytest.mark.parametrize("index", [0, 1])
    def test_component_raised_by_a_thousandth(self, cert, index):
        # y_index + 1/1000 over the denominator 1000 * den, not in lowest terms
        nums = [1000 * t for t in cert.nums]
        nums[index] += cert.den
        raised = MembershipCertificate(tuple(nums), 1000 * cert.den)
        assert not verify_certificate(MIXED, self.A, raised)

    @pytest.mark.parametrize("nums", [(2,), (2, 15, 0)], ids=["short", "long"])
    def test_wrong_length(self, cert, nums):
        assert not verify_certificate(MIXED, self.A, replace(cert, nums=nums))

    def test_negative_component(self, cert):
        # the budget still holds; only the sign is wrong
        assert not verify_certificate(MIXED, self.A, replace(cert, nums=(-2, 15)))

    @pytest.mark.parametrize("bad", [True, 1.0, Fraction(1)], ids=["bool", "float", "fraction"])
    @pytest.mark.parametrize("where", ["nums", "den"])
    def test_non_int_entry(self, bad, where):
        # y = (1, 1) packs both generators of PAIR under (2, 4, 2); an
        # entry of equal value but not an int does not prove it
        cert = MembershipCertificate((1, 1), 1)
        assert verify_certificate(PAIR, (2, 4, 2), cert)
        if where == "nums":
            bad_cert = replace(cert, nums=(bad, 1))
        else:
            bad_cert = replace(cert, den=bad)
        assert not verify_certificate(PAIR, (2, 4, 2), bad_cert)

    @pytest.mark.parametrize("den", [0, -1])
    def test_denominator_below_one(self, den):
        # the empty packing meets the zero bound for every den
        assert verify_certificate(PAIR, (0, 0, 0), MembershipCertificate((0, 0), 1))
        assert not verify_certificate(PAIR, (0, 0, 0), MembershipCertificate((0, 0), den))


class TestInvariants:
    def test_relaxation_bound(self, rng):
        for _ in range(120):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 8) for _ in range(ideal.n))
            assert (
                integer_packing(ideal, a).value
                <= fractional_packing(ideal, a).value
            )

    def test_monotonicity(self, rng):
        for _ in range(80):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 6) for _ in range(ideal.n))
            bump = tuple(
                v + rng.randint(0, 2) for v in a
            )
            assert (
                fractional_packing(ideal, a).value
                <= fractional_packing(ideal, bump).value
            )
            assert (
                integer_packing(ideal, a).value
                <= integer_packing(ideal, bump).value
            )

    def test_homogeneity(self, rng):
        for _ in range(60):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 5) for _ in range(ideal.n))
            base = fractional_packing(ideal, a).value
            for t in (2, 3, 7):
                scaled = fractional_packing(ideal, tuple(t * v for v in a))
                assert scaled.value == t * base

    def test_determinism(self, rng):
        for _ in range(30):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 6) for _ in range(ideal.n))
            assert fractional_packing(ideal, a) == fractional_packing(ideal, a)
            assert integer_packing(ideal, a) == integer_packing(ideal, a)

    def test_duality_equals_simplex(self, rng):
        for _ in range(150):
            ideal = random_proper_ideal(rng)
            a = tuple(rng.randint(0, 8) for _ in range(ideal.n))
            assert (
                fractional_value_by_duality(ideal, a)
                == fractional_packing(ideal, a).value
            )

    def test_power_membership_iff_integer_value(self):
        # exhaustive on two small ideals: x^a in I^k iff packing >= k
        ideals = [
            MonomialIdeal(2, [(2, 1), (0, 3)]),
            MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (2, 0, 2)]),
        ]
        for ideal in ideals:
            powers = {k: power(ideal, k) for k in (1, 2, 3)}
            box = [range(3 * max(g[j] for g in ideal.generators) + 1) for j in range(ideal.n)]
            for a in product(*box):
                value = integer_packing(ideal, a).value
                for k in (1, 2, 3):
                    assert member(powers[k], a) == (value >= k), (ideal, a, k)


class TestDualFunctionals:
    def test_cached_per_ideal(self):
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        assert dual_functionals(ideal) is dual_functionals(ideal)

    def test_known_vertices(self):
        assert dual_functionals(PAIR) == (((0, 1, 0), 2), ((1, 0, 1), 2))

    @settings(max_examples=300, deadline=None)
    @given(proper_ideals())
    def test_matches_basis_oracle(self, ideal):
        result = dual_functionals(ideal)
        assert result == dual_functionals_by_bases(ideal)
        # no vertex z = w/s lies above another: s * w' <= s' * w fails somewhere
        for (w, s), (wo, so) in combinations(result, 2):
            assert not all(s * a <= so * b for a, b in zip(wo, w))
            assert not all(so * a <= s * b for a, b in zip(w, wo))

    def test_matches_basis_oracle_on_small_edge_ideals(self):
        for n in range(2, 5):
            for g in enumerate_weighted_graphs(n, 3):
                if g.edges:
                    ideal = edge_ideal(g)
                    assert dual_functionals(ideal) == dual_functionals_by_bases(ideal), g

    def test_past_deadline_raises_before_caching(self):
        k6 = edge_ideal(
            WeightedGraph(6, tuple((u, v, 1) for u, v in combinations(range(1, 7), 2)))
        )
        with pytest.raises(ResourceCapError):
            dual_functionals(k6, deadline=time.monotonic() - 1.0)
        assert "dual_functionals" not in k6._cache
        assert dual_functionals(k6) == dual_functionals_by_bases(k6)

    def test_single_generator_past_deadline_raises_before_caching(self):
        # the start cone is its whole enumeration, and the deadline is
        # still checked once for that generator
        ideal = MonomialIdeal(3, [(0, 0, 3)])
        with pytest.raises(ResourceCapError):
            dual_functionals(ideal, deadline=time.monotonic() - 1.0)
        assert "dual_functionals" not in ideal._cache
        assert dual_functionals(ideal) == (((0, 0, 1), 3),)

    @pytest.mark.parametrize(
        "gens",
        [
            [(0, 0, 3)],
            [(0, 0, 2), (1, 1, 0)],
            [(0, 2, 0, 1), (1, 0, 3, 0), (2, 1, 0, 0)],
            [(0, 0, 1, 4, 0), (0, 3, 0, 0, 2), (5, 0, 0, 1, 0)],
            # the third generator cuts no ray of the first two's cone
            [(0, 0, 2), (0, 2, 0), (1, 1, 1)],
        ],
        ids=["single", "pair", "three-in-4", "three-in-5", "uncut"],
    )
    def test_start_cone_of_a_first_generator_missing_coordinates(self, gens):
        ideal = MonomialIdeal(len(gens[0]), gens)
        assert 0 in ideal.generators[0]
        assert dual_functionals(ideal) == dual_functionals_by_bases(ideal)


class TestMemo:
    def test_query_solves_each_program_once(self, solve_keys):
        # LP value 3 with y = (3/2, 3/2), IP value 2: the IP branches, every
        # k = 1..3 has a power identity, and scaling needs s = 2.
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        a = (3, 6, 3)
        lp = fractional_packing(ideal, a)
        ip = integer_packing(ideal, a)
        assert (lp.value, ip.value) == (3, 2)
        assert fractional_packing(ideal, a) is lp
        for k in range(1, math.floor(lp.value) + 1):
            power_identity_certificate(ideal, a, k)
        result = scaling_membership(ideal, a, math.floor(lp.value), s_max=3)
        assert (result.member, result.s) == (True, 2)
        # the root of a and one branch-and-bound child; the root of 2a is
        # the LP of a, rescaled
        assert len(solve_keys) == len(set(solve_keys)) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_alternating_bounds_match_fresh_ideal(self, seed):
        rng = random.Random(seed)
        if seed == 0:
            # the two answers differ, so a memo that ignores its key fails
            ideal, a, b = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)]), (1, 4, 1), (2, 4, 2)
        else:
            ideal = random_proper_ideal(rng)
            a, b = (tuple(rng.randint(0, 8) for _ in range(ideal.n)) for _ in range(2))
        for bound in (a, b, a, b):
            ip = integer_packing(ideal, bound)
            lp = fractional_packing(ideal, bound)
            fresh = MonomialIdeal(ideal.n, ideal.generators)
            assert lp == fractional_packing(fresh, bound)
            assert lp.value == fractional_value_by_duality(ideal, bound)
            assert ip == integer_packing(fresh, bound)
            assert ip.value == integer_packing_enumerated(ideal, bound).value

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(proper_ideals(), st.data(), st.integers(1, 4))
    def test_positive_multiples_are_rescaled_not_solved(self, solve_keys, ideal, data, s):
        a0 = data.draw(st.tuples(*[st.integers(0, 8)] * ideal.n))
        fractional_packing(ideal, a0)
        # s * a0, then (s+1)/s times that: each served by the last answer
        for b in (tuple(s * v for v in a0), tuple((s + 1) * v for v in a0)):
            solved = len(solve_keys)
            cert = fractional_packing(ideal, b)
            assert len(solve_keys) == solved
            assert cert == fractional_packing(MonomialIdeal(ideal.n, ideal.generators), b)

    def test_rescaled_answer_is_verified(self, monkeypatch, solve_keys):
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        fractional_packing(ideal, (1, 4, 1))
        monkeypatch.setattr(
            edgeclosure.packing, "_certificate_holds", lambda ideal, bound, cert: False
        )
        with pytest.raises(AssertionError, match="LP oracle"):
            fractional_packing(ideal, (2, 8, 2))
        assert len(solve_keys) == 1
        assert ideal._cache["lp"][0] == (1, 4, 1)

    def test_past_deadline_raises_on_cached_bound(self):
        ideal = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
        integer_packing(ideal, (1, 4, 1))
        assert ideal._cache["ip"][0] == (1, 4, 1)
        with pytest.raises(ResourceCapError):
            integer_packing(ideal, (1, 4, 1), deadline=time.monotonic() - 1.0)


def pinned_oracle_rows() -> list:
    """Both packing oracles, every power identity and a scaling answer,
    on 600 seeded bounds of 200 random ideals, each on a fresh ideal."""
    rng = random.Random(20240811)
    rows = []
    for _ in range(200):
        ideal = random_proper_ideal(rng, n_max=5, m_max=5, entry_max=4)
        box = [max(g[j] for g in ideal.generators) for j in range(ideal.n)]
        for _ in range(3):
            a = tuple(rng.randint(0, 3 * b) for b in box)
            fresh = MonomialIdeal(ideal.n, ideal.generators)
            lp = fractional_packing(fresh, a)
            ip = integer_packing(fresh, a)
            identities = []
            for k in range(1, math.floor(lp.value) + 1):
                c = power_identity_certificate(fresh, a, k)
                identities.append([k, c.scale, c.multiplicities, c.slack])
            k = max(1, math.floor(lp.value))
            sm = scaling_membership(fresh, a, k, s_max=3)
            rows.append([
                ideal.generators, a, str(lp.value), [str(v) for v in lp.y],
                str(ip.value), [str(v) for v in ip.y], identities, [k, sm.member, sm.s],
            ])
    return rows


def test_oracle_bytes_are_pinned():
    # sha256 of json.dumps(rows), as the Fraction-tableau oracles gave it
    digest = hashlib.sha256(json.dumps(pinned_oracle_rows()).encode()).hexdigest()
    assert digest == "eed23c9795a46476e041039b84a3a4b2397899c9be1919492248e30b36647299"


class TestQueryChecks:
    """A query is checked once, where it enters the package."""

    @pytest.mark.parametrize(
        "oracle",
        [
            integer_packing,
            fractional_packing,
            lambda ideal, a: scaling_membership(ideal, a, 1),
            lambda ideal, a: scaling_membership(ideal, a, 1, s_max=3),
            lambda ideal, a: power_identity_certificate(ideal, a, 1),
            # 2 * (1, 2, 1) = (2, 2, 0) + (0, 2, 2), with no slack
            lambda ideal, a: verify_power_identity(
                ideal, a, 1, PowerIdentityCertificate(2, (1, 1), (0, 0, 0))
            ),
        ],
        ids=[
            "integer", "fractional", "scaling", "scaling-given-bound",
            "power-identity", "verify-power-identity",
        ],
    )
    def test_query_is_validated_once(self, monkeypatch, oracle):
        validated = []
        check = edgeclosure.packing.as_exponent_vector

        def counting(*args):
            validated.append(args)
            return check(*args)

        # every entry checks its query through `packing.check_query`
        monkeypatch.setattr(edgeclosure.packing, "as_exponent_vector", counting)
        # x^(1,2,1) lies in the closure of I, not in I; its square lies in I^2
        oracle(MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)]), (1, 2, 1))
        assert len(validated) == 1
