"""Exact membership oracles for powers of a monomial ideal.

For an ideal with exponent matrix M (columns = generators) and a query
vector a, the programs solved here maximize the total multiplicity 1.y
of generators packed under a:

    fractional: max 1.y  s.t.  M y <= a, y >= 0 rational
    integer:    same over y in Z^m, y >= 0

The fractional optimum tells whether x^a lies in the closure of I^k
(value >= k) and the integer optimum whether x^a lies in I^k itself.
Both answer through one memo step, `_memoized`: look the bound up in
the ideal's last answer (`_cache["lp"]` or `_cache["ip"]`, one
`(bound, certificate)` entry apiece), else solve, verify the
certificate and keep it, so the calls one query makes on the same
bound solve its program once.  The LP memo answers a positive
multiple (p/q)*a0 of its bound a0 with p/q times its answer: Bland's
rule pivots alike on a positively scaled right-hand side, so that is
the vertex a new solve returns.  A query is checked once, by
`check_query` at its public call; the memo, the verification of a new
answer, the branch and bound and the simplex trust that check.  They
work on integer numerators over a common denominator (`integer_form`)
and build `Fraction`s only with a certificate.  The vertices of the
dual program, enumerated once per ideal, let bulk scans test closure
membership with integer dot products alone.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .errors import ResourceCapError, UnitIdealError, ZeroIdealError, check_deadline
from .ideals import ExponentVector, MonomialIdeal, as_exponent_vector
from .simplex import simplex_maximize

DEFAULT_NODE_CAP = 100_000


@dataclass(frozen=True)
class MembershipCertificate:
    """An optimal packing y with its exact value sum(y).

    `integral` marks certificates whose components are all integers
    (produced by the integer oracle).
    """

    y: tuple[Fraction, ...]
    value: Fraction
    integral: bool


def require_proper(ideal: MonomialIdeal) -> None:
    """Reject the zero and unit ideals, which have no packing program."""
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no membership program")
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no membership program")


def check_query(ideal: MonomialIdeal, bound: Sequence[int]) -> ExponentVector:
    """The bound as an exponent vector of a proper ideal's program."""
    require_proper(ideal)
    return as_exponent_vector(bound, ideal.n)


def _memoized(
    ideal: MonomialIdeal,
    key: str,
    a: ExponentVector,
    solve: Callable[..., MembershipCertificate],
    *args,
) -> MembershipCertificate:
    """The ideal's last answer under `key` if it was for `a`, else a new one.

    A new answer is `solve(ideal, a, *args)`, verified before it is kept
    as the single `(bound, certificate)` entry under `key`.
    """
    cached = ideal._cache.get(key)
    if cached is not None and cached[0] == a:
        return cached[1]
    cert = solve(ideal, a, *args)
    if not _certificate_holds(ideal, a, cert):
        raise AssertionError(f"the {key.upper()} oracle produced an invalid certificate")
    ideal._cache[key] = (a, cert)
    return cert


def fractional_packing(ideal: MonomialIdeal, bound: Sequence[int]) -> MembershipCertificate:
    """Exact rational optimum of the packing program for `bound`.

    The program is bounded because every generator has a positive entry,
    so each y_i is capped by some a_j / M[j][i].  The certificate is
    verified when it is built and kept as the ideal's last LP answer: a
    repeated call with the same bound returns it without solving again,
    and one with a positive multiple of that bound rescales it.
    """
    return checked_lp(ideal, check_query(ideal, bound))


def checked_lp(ideal: MonomialIdeal, a: ExponentVector) -> MembershipCertificate:
    """`fractional_packing` for a bound already checked by `check_query`."""
    return _memoized(ideal, "lp", a, _solve_lp)


def _solve_lp(ideal: MonomialIdeal, a: ExponentVector) -> MembershipCertificate:
    a0, cert = ideal._cache.get("lp", ((), None))
    # a = (p/q) * a0 with p, q > 0, tested by cross-multiplication
    q, p = next(((u, v) for u, v in zip(a0, a) if u), (0, 0))
    if p and all(u * p == v * q for u, v in zip(a0, a)):
        y = tuple(Fraction(v.numerator * p, v.denominator * q) for v in cert.y)
        value = Fraction(cert.value.numerator * p, cert.value.denominator * q)
    else:
        value, nums, den = simplex_maximize(ideal.exponent_matrix(), a)
        y = tuple(Fraction(t, den) for t in nums)
        value = Fraction(value, den)
    return MembershipCertificate(y=y, value=value, integral=all(v.denominator == 1 for v in y))


def integer_form(y: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """A packing y as (nums, den): integer numerators over the lcm of its denominators."""
    den = math.lcm(*(v.denominator for v in y))
    return tuple(v.numerator * (den // v.denominator) for v in y), den


def verify_certificate(
    ideal: MonomialIdeal, bound: Sequence[int], cert: MembershipCertificate
) -> bool:
    """Re-check every certificate invariant against (ideal, bound).

    The checks run in integers over the common denominator `den` of y:
    with y = nums / den, the value, integrality and budget conditions
    become integer comparisons.  A value or component that is not an
    int or a Fraction (a float, say) is not exact, so it fails.
    """
    return _certificate_holds(ideal, check_query(ideal, bound), cert)


def _certificate_holds(
    ideal: MonomialIdeal, a: ExponentVector, cert: MembershipCertificate
) -> bool:
    """`verify_certificate` for a bound already checked by `check_query`."""
    exact = (int, Fraction)
    if len(cert.y) != ideal.num_generators or not (
        isinstance(cert.value, exact) and all(isinstance(v, exact) for v in cert.y)
    ):
        return False
    nums, den = integer_form(cert.y)
    if any(t < 0 for t in nums) or (cert.integral and den != 1):
        return False
    if sum(nums) * cert.value.denominator != cert.value.numerator * den:
        return False
    return all(sum(map(mul, row, nums)) <= b * den for row, b in zip(ideal.exponent_matrix(), a))


def _solve_box_lp(
    rows: Sequence[Sequence[int]],
    a: Sequence[int],
    lower: Sequence[int],
    upper: Sequence[int | None],
) -> tuple[int, tuple[int, ...], int] | None:
    """LP of a branch-and-bound child: lower <= y (<= upper), M y <= a.

    Returns (value, y, den), the optimum value / den at y / den, or None
    when the node is infeasible.  The root, with no bounds, is the LP
    memo's.  Substituting z = y - lower turns the box into the standard
    non-negative form; negative shifted rhs means the node is empty
    because all matrix entries are non-negative.  Branching keeps
    lower <= upper, so every span upper - lower is >= 0.
    """
    m = len(lower)
    ext_rows = list(rows)
    ext_rhs = [b - sum(map(mul, row, lower)) for b, row in zip(a, rows)]
    if min(ext_rhs) < 0:
        return None
    for i, up in enumerate(upper):
        if up is not None:
            ext_rows.append([1 if t == i else 0 for t in range(m)])
            ext_rhs.append(up - lower[i])
    value, z, den = simplex_maximize(ext_rows, ext_rhs)
    return value + sum(lower) * den, tuple(t + low * den for t, low in zip(z, lower)), den


def integer_packing(
    ideal: MonomialIdeal, bound: Sequence[int], *, deadline: float | None = None
) -> MembershipCertificate:
    """Exact integer optimum via branch and bound on the LP relaxation.

    Branches on the most fractional component (smallest index on ties),
    explores nodes in best-bound order, and seeds the incumbent with the
    rounded-down LP solution, which is always feasible here.  More than
    DEFAULT_NODE_CAP nodes raise ResourceCapError, and so does passing
    `deadline`, checked on entry and once per node taken off the heap.
    The root relaxation is the LP memo's answer for `bound`.  The
    certificate is verified when it is built and kept as the ideal's
    last IP answer: a repeated call with the same bound checks the
    deadline, then returns it without branching again.
    """
    a = check_query(ideal, bound)
    check_deadline(deadline)
    return _memoized(ideal, "ip", a, _branch_and_bound, deadline)


def _branch_and_bound(
    ideal: MonomialIdeal, a: ExponentVector, deadline: float | None
) -> MembershipCertificate:
    rows = ideal.exponent_matrix()
    root = checked_lp(ideal, a)
    y, den = integer_form(root.y)
    best = [t // den for t in y]
    best_val = sum(best)
    # Entries (-bound, insertion count, value, lower, upper, y, den) for
    # the LP optimum value / den at y / den: the count breaks ties of the
    # exact bound first in, first out.
    counter = 0
    heap = [(-root.value, counter, sum(y), (0,) * len(y), (None,) * len(y), y, den)]
    nodes = 0
    while heap:
        check_deadline(deadline)
        _, _, value, lower, upper, y, den = heapq.heappop(heap)
        if value // den <= best_val:
            break  # best-bound order: nothing left can beat the incumbent
        nodes += 1
        if nodes > DEFAULT_NODE_CAP:
            raise ResourceCapError(f"branch-and-bound exceeded {DEFAULT_NODE_CAP} nodes")
        floors = [t // den for t in y]
        if sum(floors) > best_val:
            best, best_val = floors, sum(floors)
        # branch on the y_i / den farthest from an integer, first on ties
        dists = [min(t % den, -t % den) for t in y]
        if not any(dists):
            continue  # LP solution integral; the floors above recorded it
        frac_idx = dists.index(max(dists))
        lo_branch, hi_branch = list(upper), list(lower)
        lo_branch[frac_idx], hi_branch[frac_idx] = floors[frac_idx], floors[frac_idx] + 1
        for new_lower, new_upper in ((lower, tuple(lo_branch)), (tuple(hi_branch), upper)):
            sol = _solve_box_lp(rows, a, new_lower, new_upper)
            if sol is None or sol[0] // sol[2] <= best_val:
                continue
            counter += 1
            entry = (Fraction(-sol[0], sol[2]), counter, sol[0], new_lower, new_upper, *sol[1:])
            heapq.heappush(heap, entry)
    return MembershipCertificate(
        y=tuple(map(Fraction, best)), value=Fraction(best_val), integral=True
    )


def dual_functionals(
    ideal: MonomialIdeal, *, deadline: float | None = None
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Integer-scaled vertices of the dual polyhedron, cached per ideal.

    By LP duality the fractional packing value equals
    min { a.z : z >= 0, g.z >= 1 for every generator g }, and the
    minimum is attained at a vertex of that polyhedron.  Each vertex z
    is returned as (w, s) with w = s*z integral and gcd(s, *w) = 1, so
    the membership test "value >= k" becomes the all-integer check
    a.w >= k*s.  The tuple is sorted by (s, w).  The recession cone is
    the non-negative orthant, so no vertex lies above another point of
    the polyhedron and the vertices are pairwise incomparable.

    The vertices are found by the double-description method (Motzkin,
    Raiffa, Thompson & Thrall 1953; Fukuda & Prodon 1996) on the cone
    {(z, t) : z >= 0, t >= 0, g.z >= t}, whose extreme rays with t > 0
    are the vertices (z/t).  The enumeration checks `deadline` once per
    generator; a cached result is returned without checking it.
    """
    cached = ideal._cache.get("dual_functionals")
    if cached is not None:
        return cached
    require_proper(ideal)
    n = ideal.n
    d = n + 1
    # Rays are integer vectors (z_0, ..., z_{n-1}, t) with coprime
    # entries.  A ray's tight set is a bitmask of the constraints it
    # meets with equality: bit j < d for the orthant facet of coordinate
    # j, bit d + i for generator i.  The cone starts as the orthant.
    rays = [tuple(int(c == j) for c in range(d)) for j in range(d)]
    tight = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
    for i, g in enumerate(ideal.generators):
        check_deadline(deadline)
        values = [sum(map(mul, g, r)) - r[n] for r in rays]  # map stops at g's n entries
        bit = 1 << (d + i)
        kept = [r for r, v in zip(rays, values) if v >= 0]
        kept_tight = [z | bit if v == 0 else z for z, v in zip(tight, values) if v >= 0]
        neg = [q for q, v in enumerate(values) if v < 0]
        for p, vp in enumerate(values):
            if vp <= 0:
                continue
            for q in neg:
                common = tight[p] & tight[q]
                # Adjacent rays share a 2-face: at least d - 2 tight
                # constraints, and no third ray tight on all of them
                # (p and q are tight on all of them, so they count 2).
                if common.bit_count() < d - 2 or [
                    z & common for z in tight
                ].count(common) != 2:
                    continue
                vq = -values[q]
                ray = [vp * a + vq * b for a, b in zip(rays[q], rays[p])]
                g0 = math.gcd(*ray)
                kept.append(tuple(c // g0 for c in ray))
                kept_tight.append(common | bit)
        rays, tight = kept, kept_tight

    result = tuple((w, s) for s, w in sorted((r[n], r[:n]) for r in rays if r[n]))
    ideal._cache["dual_functionals"] = result
    return result
