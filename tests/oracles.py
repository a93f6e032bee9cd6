"""Brute-force reference implementations that the tests compare against.

None of these is part of the library: each one re-derives a library
result by a slower, more direct route (every square subsystem, every
lattice point, every multiset), so agreement is evidence that the fast
path is right.  They are meant for small instances only.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from edgeclosure.closure import generator_box
from edgeclosure.errors import ResourceCapError
from edgeclosure.ideals import ExponentVector, MonomialIdeal, as_exponent_vector, minimalize
from edgeclosure.packing import (
    MembershipCertificate,
    check_deadline,
    dual_functionals,
    fractional_packing,
    require_proper,
    verify_certificate,
)
from edgeclosure.simplex import solve_integer_system_scaled

Edge = tuple[int, int]


def _check_query(ideal: MonomialIdeal, bound: Sequence[int]) -> ExponentVector:
    require_proper(ideal)
    return as_exponent_vector(bound, ideal.n)


def solve_integer_system(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """Exact rational solution of a square integer system, or None."""
    scaled = solve_integer_system_scaled(rows, rhs)
    if scaled is None:
        return None
    num, den = scaled
    return tuple(Fraction(v, den) for v in num)


def dual_functionals_by_bases(ideal: MonomialIdeal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The dual vertices of `packing.dual_functionals`, basis by basis.

    Solves every square subsystem of the constraints z_j = 0, g.z = 1,
    keeps the feasible solutions and drops dominated ones.  Same output
    contract as the library function, without its per-ideal cache.
    """
    require_proper(ideal)
    n = ideal.n
    gens = ideal.generators
    m = len(gens)
    support_mask = [
        sum(1 << j for j in range(n) if g[j]) for g in gens
    ]
    sparse = [tuple((j, g[j]) for j in range(n) if g[j]) for g in gens]

    # A vertex makes n constraints tight among z_j = 0 and g.z = 1.
    # Fixing the zero coordinates first reduces each candidate basis to
    # an r x r integer system on the free coordinates.  Everything stays
    # in integers: a basic solution is kept as (w, s) with z = w / s,
    # and feasibility (z >= 0, g.z >= 1) becomes w >= 0, g.w >= s.
    vertices: set[tuple[int, tuple[int, ...]]] = set()
    for r in range(1, min(n, m) + 1):
        for free in combinations(range(n), r):
            free_mask = sum(1 << j for j in free)
            usable = [
                i for i in range(m) if support_mask[i] & free_mask
            ]
            if len(usable) < r:
                continue
            covered = 0
            for i in usable:
                covered |= support_mask[i] & free_mask
            if covered != free_mask:
                continue  # some free coordinate appears in no row: singular
            for tight in combinations(usable, r):
                rows = [[gens[i][j] for j in free] for i in tight]
                solved = solve_integer_system_scaled(rows, [1] * r)
                if solved is None:
                    continue
                w_free, s = solved
                if any(v < 0 for v in w_free):
                    continue
                w = [0] * n
                for j, v in zip(free, w_free):
                    w[j] = v
                if any(
                    sum(coef * w[j] for j, coef in entries) < s
                    for entries in sparse
                ):
                    continue
                g0 = math.gcd(s, *w)
                vertices.add((s // g0, tuple(v // g0 for v in w)))

    # Drop dominated vertices: with a >= 0, z' <= z implies a.z' <= a.z,
    # so z never attains a strict minimum.  Comparisons cross-multiply
    # the scales to stay in integers.
    kept: list[tuple[int, tuple[int, ...]]] = []
    for s, w in sorted(vertices):
        if any(
            all(so * w[j] >= s * wo[j] for j in range(n)) for so, wo in kept
        ):
            continue
        kept = [
            (so, wo)
            for so, wo in kept
            if not all(s * wo[j] >= so * w[j] for j in range(n))
        ]
        kept.append((s, w))

    return tuple((w, s) for s, w in sorted(kept))


def power_by_multisets(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The ideal I^k generated by the sums of all k-multisets of generators."""
    sums = {
        tuple(map(sum, zip(*combo)))
        for combo in combinations_with_replacement(ideal.generators, k)
    }
    return minimalize(sums, ideal.n)


def fractional_value_by_duality(ideal: MonomialIdeal, bound: Sequence[int]) -> Fraction:
    """The fractional packing value computed as a dual-vertex minimum."""
    a = _check_query(ideal, bound)
    best: Fraction | None = None
    for w, s in dual_functionals(ideal):
        val = Fraction(sum(wj * aj for wj, aj in zip(w, a)), s)
        if best is None or val < best:
            best = val
    assert best is not None
    return best


def enumeration_bounds(ideal: MonomialIdeal, bound: Sequence[int]) -> tuple[int, ...]:
    """Per-generator caps floor(a_j / b_i[j]) over the positive entries."""
    a = _check_query(ideal, bound)
    caps = []
    for g in ideal.generators:
        cap = min(a[j] // g[j] for j in range(ideal.n) if g[j] > 0)
        caps.append(cap)
    return tuple(caps)


def integer_packing_enumerated(
    ideal: MonomialIdeal, bound: Sequence[int], point_cap: int = 2_000_000
) -> MembershipCertificate:
    """Independent exhaustive oracle for the integer program.

    Walks the full product box of per-variable caps.
    """
    a = _check_query(ideal, bound)
    caps = enumeration_bounds(ideal, a)
    volume = math.prod(c + 1 for c in caps)
    if volume > point_cap:
        raise ResourceCapError(f"enumeration box has {volume} points (cap {point_cap})")
    gens = ideal.generators
    n = ideal.n
    best_y = (0,) * len(gens)
    best_val = 0

    # Depth-first over y in lexicographic order keeps the result
    # deterministic: ties favor the lexicographically smallest y.
    def rec(i: int, used: list[int], prefix: list[int]) -> None:
        nonlocal best_y, best_val
        if i == len(gens):
            val = sum(prefix)
            if val > best_val:
                best_val = val
                best_y = tuple(prefix)
            return
        g = gens[i]
        for t in range(caps[i] + 1):
            nxt = [u + t * e for u, e in zip(used, g)]
            if any(x > b for x, b in zip(nxt, a)):
                break
            rec(i + 1, nxt, prefix + [t])

    rec(0, [0] * n, [])
    cert = MembershipCertificate(
        y=tuple(Fraction(v) for v in best_y), value=Fraction(best_val), integral=True
    )
    if not verify_certificate(ideal, a, cert):
        raise AssertionError("enumeration produced an invalid certificate")
    return cert


def closure_generators_bruteforce(
    ideal: MonomialIdeal, k: int, *, box_cap: int = 200_000
) -> tuple[ExponentVector, ...]:
    """Per-point simplex over the full closure box, no duality."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    box = generator_box(ideal, k)
    shape = tuple(b + 1 for b in box)
    if math.prod(shape) > box_cap:
        raise ResourceCapError("brute-force box too large")
    members: set[tuple[int, ...]] = set()
    minimals: list[ExponentVector] = []
    for point in itertools.product(*(range(s) for s in shape)):
        if fractional_packing(ideal, point).value >= k:
            members.add(point)
            if not any(
                point[:j] + (point[j] - 1,) + point[j + 1:] in members
                for j in range(len(point))
                if point[j] > 0
            ):
                minimals.append(point)
    return tuple(minimals)


def sweep_point_by_point(
    shape: tuple[int, ...],
    functionals: Sequence[tuple[tuple[int, ...], int]],
    k: int,
    deadline: float | None,
) -> tuple[ExponentVector, ...]:
    """The box sweep of `closure._sweep`, one lattice point at a time.

    Same contract as the library sweep, in Python integers throughout.
    """
    thresholds = [(w, k * s) for w, s in functionals]

    def inside(point: tuple[int, ...]) -> bool:
        return all(
            sum(wj * pj for wj, pj in zip(w, point)) >= t for w, t in thresholds
        )

    check_deadline(deadline)
    members: set[tuple[int, ...]] = set()
    minimals: list[ExponentVector] = []
    # Lexicographic sweep; a point is a minimal element iff it lies in
    # the up-set and none of its coordinate predecessors does.
    for point in itertools.product(*(range(s) for s in shape)):
        if inside(point):
            members.add(point)
            if not any(
                point[:j] + (point[j] - 1,) + point[j + 1:] in members
                for j in range(len(shape))
                if point[j] > 0
            ):
                minimals.append(point)
    return tuple(minimals)


def find_cover_bruteforce(
    a: Sequence[int], size: int
) -> tuple[Edge, ...] | None:
    """Exhaustive search for a size-`size` dividing edge multiset on a path."""
    n = len(a)
    path_edges = [(i, i + 1) for i in range(1, n)]
    for combo in combinations_with_replacement(path_edges, size):
        used = [0] * n
        for u, v in combo:
            used[u - 1] += 1
            used[v - 1] += 1
        if all(u <= b for u, b in zip(used, a)):
            return combo
    return None
