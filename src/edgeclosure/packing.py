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
bound solve its program once.  Scaling membership reads the LP bound
before any integer program: a fractional value below k refutes every
scale s at once, so that answer costs one LP or a memo hit.  The LP
memo answers a positive multiple (p/q)*a0 of its bound a0 with p/q
times its answer: Bland's rule pivots alike on a positively scaled
right-hand side, so that is the vertex a new solve returns.  A query
is checked once, by `check_query` at its public call; the memo, the
verification of a new answer, the branch and bound and the simplex
trust that check.  From the simplex to the certificate, a packing is
integer numerators over one denominator, in lowest terms once it is an
oracle's answer; `Fraction`s are built only when a caller reads a
certificate's `y` or `value`, and as the exact bound that orders the
branch-and-bound heap.  The vertices of the dual program, enumerated
once per ideal by a double description that starts from the cone of the
first generator, and kept under `_cache["dual_functionals"]`, let bulk
scans test closure membership with integer dot products alone.
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
    """An optimal packing y = nums / den of value sum(y), in lowest terms.

    The oracles return den >= 1 with gcd(den, *nums) == 1, so equal
    packings are equal certificates; the integer oracle's have den == 1.
    """

    nums: tuple[int, ...]
    den: int

    @property
    def y(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.den) for t in self.nums)

    @property
    def value(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)


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
        nums, den = [t * p for t in cert.nums], cert.den * q
    else:
        nums, den = simplex_maximize(ideal.exponent_matrix(), a)
    g = math.gcd(den, *nums)
    return MembershipCertificate(tuple(t // g for t in nums), den // g)


def verify_certificate(
    ideal: MonomialIdeal, bound: Sequence[int], cert: MembershipCertificate
) -> bool:
    """Re-check that the certificate is a feasible packing for (ideal, bound).

    Its value and integrality are read off nums and den, so feasibility
    is all there is to check, in integers: nums a tuple or list of one
    numerator per generator, den >= 1, nums >= 0 and M nums <= a den.
    Every entry must be an int: no bool, float or Fraction proves it.
    """
    return _certificate_holds(ideal, check_query(ideal, bound), cert)


def _certificate_holds(
    ideal: MonomialIdeal, a: ExponentVector, cert: MembershipCertificate
) -> bool:
    """`verify_certificate` for a bound already checked by `check_query`."""
    nums, den = cert.nums, cert.den
    if not isinstance(nums, (tuple, list)) or len(nums) != ideal.num_generators:
        return False
    if not all(type(v) is int for v in (den, *nums)):
        return False
    if den < 1 or any(t < 0 for t in nums):
        return False
    return all(sum(map(mul, row, nums)) <= b * den for row, b in zip(ideal.exponent_matrix(), a))


def _solve_box_lp(
    rows: Sequence[Sequence[int]],
    a: Sequence[int],
    lower: Sequence[int],
    upper: Sequence[int | None],
) -> tuple[tuple[int, ...], int] | None:
    """LP of a branch-and-bound child: lower <= y (<= upper), M y <= a.

    Returns (y, den), the optimum sum(y) / den at y / den, or None when
    the node is infeasible.  The root, with no bounds, is the LP
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
    z, den = simplex_maximize(ext_rows, ext_rhs)
    return tuple(t + low * den for t, low in zip(z, lower)), den


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
    return checked_ip(ideal, check_query(ideal, bound), deadline)


def checked_ip(
    ideal: MonomialIdeal, a: ExponentVector, deadline: float | None
) -> MembershipCertificate:
    """`integer_packing` for a bound already checked by `check_query`."""
    check_deadline(deadline)
    return _memoized(ideal, "ip", a, _branch_and_bound, deadline)


def _branch_and_bound(
    ideal: MonomialIdeal, a: ExponentVector, deadline: float | None
) -> MembershipCertificate:
    rows = ideal.exponent_matrix()
    root = checked_lp(ideal, a)
    y, den = root.nums, root.den
    best = [t // den for t in y]
    best_val = sum(best)
    # Entries (-bound, insertion count, lower, upper, y, den) for the LP
    # optimum sum(y) / den at y / den: the count breaks ties of the exact
    # bound first in, first out.
    counter = 0
    heap = [(-root.value, counter, (0,) * len(y), (None,) * len(y), y, den)]
    nodes = 0
    while heap:
        check_deadline(deadline)
        _, _, lower, upper, y, den = heapq.heappop(heap)
        if sum(y) // den <= best_val:
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
            if sol is None or sum(sol[0]) // sol[1] <= best_val:
                continue
            counter += 1
            entry = (Fraction(-sum(sol[0]), sol[1]), counter, new_lower, new_upper, *sol)
            heapq.heappush(heap, entry)
    return MembershipCertificate(tuple(best), 1)


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
    are the vertices (z/t).  It starts from the orthant cut by the first
    generator, whose rays are known outright.  The enumeration checks
    `deadline` once per generator, the first included; a cached result
    is returned without checking it.
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
    # j, bit d + i for generator i.  The first generator g cuts the
    # orthant into the rays (e_j, 0) for every j, tight on g where
    # g_j = 0, and (e_j, g_j) for each j with g_j > 0, tight on g.
    check_deadline(deadline)
    g, full = ideal.generators[0], (1 << d) - 1
    rays = [(0,) * j + (1,) + (0,) * (n - j) for j in range(n)]
    rays += [rays[j][:n] + (g[j],) for j in range(n) if g[j]]
    tight = [full ^ (1 << j) | (0 if g[j] else 1 << d) for j in range(n)]
    tight += [full ^ (1 << j) ^ (1 << n) | 1 << d for j in range(n) if g[j]]
    for i, g in enumerate(ideal.generators[1:], 1):
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
