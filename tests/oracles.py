"""Brute-force reference implementations that the tests compare against.

None of these is part of the library: each one re-derives a library
result by a slower, more direct route (every square subsystem, every
lattice point, every multiset), so agreement is evidence that the fast
path is right.  They are meant for small instances only.
"""
from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

from edgeclosure.covers import PathInstance, _verify_cover
from edgeclosure.errors import ResourceCapError, check_deadline
from edgeclosure.graphs import (
    HEAVY,
    PatternKind,
    PatternWitness,
    WeightedGraph,
    edge_ideal,
    lifted_witness,
)
from edgeclosure.ideals import (
    ExponentVector,
    MonomialIdeal,
    divides,
    member,
    minimalize,
    power_box,
)
from edgeclosure.packing import (
    MembershipCertificate,
    check_query,
    dual_functionals,
    fractional_packing,
    require_proper,
    verify_certificate,
)
from edgeclosure.simplex import UnboundedProgramError, solve_integer_system_scaled

Edge = tuple[int, int]


def solve_integer_system(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """Exact rational solution of a square integer system, or None."""
    scaled = solve_integer_system_scaled(rows, rhs)
    if scaled is None:
        return None
    num, den = scaled
    return tuple(Fraction(v, den) for v in num)


def simplex_maximize_fractions(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """`simplex.simplex_maximize` on a tableau of `Fraction`s.

    The same Bland's-rule pivots as the library's integer tableau, with
    the pivot row normalized and every entry a reduced fraction, so the
    two must return the same optimal value and the same vertex.
    """
    m = len(rows[0])
    n = len(rows)
    for r in rows:
        if len(r) != m:
            raise ValueError("constraint rows differ in length")
    if len(rhs) != n:
        raise ValueError("rhs length does not match row count")
    if any(Fraction(b) < 0 for b in rhs):
        raise ValueError("rhs must be componentwise non-negative")

    # Tableau columns: m structural vars, n slacks, rhs.
    tab = [
        [Fraction(v) for v in rows[i]]
        + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        + [Fraction(rhs[i])]
        for i in range(n)
    ]
    cost = [Fraction(1)] * m + [Fraction(0)] * (n + 1)
    basis = list(range(m, m + n))

    while True:
        enter = next((j for j in range(m + n) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(n):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][m + n] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedProgramError("objective increases without bound")
        _pivot_fractions(tab, cost, leave, enter)
        basis[leave] = enter

    x = [Fraction(0)] * m
    for i, bv in enumerate(basis):
        if bv < m:
            x[bv] = tab[i][m + n]
    value = -cost[m + n]
    return value, tuple(x)


def _pivot_fractions(tab: list[list[Fraction]], cost: list[Fraction], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [v - f * p for v, p in zip(r, prow)]
    f = cost[col]
    if f:
        for j, p in enumerate(prow):
            cost[j] -= f * p


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
    a = check_query(ideal, bound)
    best: Fraction | None = None
    for w, s in dual_functionals(ideal):
        val = Fraction(sum(wj * aj for wj, aj in zip(w, a)), s)
        if best is None or val < best:
            best = val
    assert best is not None
    return best


def enumeration_bounds(ideal: MonomialIdeal, bound: Sequence[int]) -> tuple[int, ...]:
    """Per-generator caps floor(a_j / b_i[j]) over the positive entries."""
    a = check_query(ideal, bound)
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
    a = check_query(ideal, bound)
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
    cert = MembershipCertificate(best_y, 1)
    if not verify_certificate(ideal, a, cert):
        raise AssertionError("enumeration produced an invalid certificate")
    return cert


def integer_packing_by_fractions(
    ideal: MonomialIdeal, bound: Sequence[int]
) -> MembershipCertificate:
    """`packing.integer_packing` with every LP solution a tuple of `Fraction`s.

    The same branch and bound as the library, on the `Fraction` tableau
    of `simplex_maximize_fractions`: root LP, most fractional component
    by `Fraction` distance (smallest index on ties), best-bound order
    with first-in-first-out ties, and the rounded-down LP solutions as
    incumbents, so the two must return the same certificate.
    """
    a = check_query(ideal, bound)
    rows = ideal.exponent_matrix()
    m = ideal.num_generators
    root_value, root_y = simplex_maximize_fractions(rows, a)
    best = [math.floor(v) for v in root_y]
    best_val = sum(best)
    counter = 0
    heap = [(-root_value, counter, (0,) * m, (None,) * m, root_y)]
    while heap:
        neg_bound, _, lower, upper, y = heapq.heappop(heap)
        if math.floor(-neg_bound) <= best_val:
            break
        floors = [math.floor(v) for v in y]
        if sum(floors) > best_val:
            best, best_val = floors, sum(floors)
        dists = [min(v - math.floor(v), math.ceil(v) - v) for v in y]
        if not any(dists):
            continue
        i = dists.index(max(dists))
        lo_branch, hi_branch = list(upper), list(lower)
        lo_branch[i], hi_branch[i] = floors[i], floors[i] + 1
        for new_lower, new_upper in ((lower, tuple(lo_branch)), (tuple(hi_branch), upper)):
            # the box lower <= y <= upper, shifted to z = y - lower >= 0
            rhs = [a[j] - sum(r * lo for r, lo in zip(row, new_lower)) for j, row in enumerate(rows)]
            if min(rhs) < 0:
                continue
            ext_rows = [list(row) for row in rows]
            for t, up in enumerate(new_upper):
                if up is not None:
                    ext_rows.append([int(t == u) for u in range(m)])
                    rhs.append(up - new_lower[t])
            value, z = simplex_maximize_fractions(ext_rows, rhs)
            value += sum(new_lower)
            if math.floor(value) > best_val:
                counter += 1
                sol = tuple(lo + v for lo, v in zip(new_lower, z))
                heapq.heappush(heap, (-value, counter, new_lower, new_upper, sol))
    return MembershipCertificate(tuple(best), 1)


def closure_generators_bruteforce(
    ideal: MonomialIdeal, k: int, *, box_cap: int = 200_000
) -> tuple[ExponentVector, ...]:
    """Per-point simplex over the full closure box, no duality."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    require_proper(ideal)
    shape = tuple(b + 1 for b in power_box(ideal, k))
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

    Same contract as the library sweep, in Python integers throughout:
    it tests every box point against every functional and every
    coordinate predecessor, where the library computes one least height
    per column of the longest axis and compares neighbouring columns.
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


def _alternating_sums(seg: Sequence[int]) -> list[int]:
    """b_1 = a_1, b_j = a_j - b_(j-1); meaningful while a_j >= b_(j-1)."""
    out = [seg[0]]
    for v in seg[1:]:
        out.append(v - out[-1])
    return out


def _terminal_form(seg: Sequence[int]) -> list[tuple[int, int]] | None:
    """Edge multiplicities for a final segment, or None when none applies.

    The four terminal shapes, tried in a fixed order:
      1. alternating sums stay dominated through the last entry;
      2. as 1 but the last entry drops below its alternating bound;
      3. even length with every odd entry >= its successor;
      4. odd length with that domination on the leading pairs.
    Edges are (local_index, multiplicity) with local 1-based positions.
    """
    L = len(seg)
    if L == 1:
        return []
    b = _alternating_sums(seg)
    if all(seg[j] >= b[j - 1] for j in range(1, L)):
        return [(j, b[j - 1]) for j in range(1, L)]
    if (
        all(seg[j] >= b[j - 1] for j in range(1, L - 1))
        and seg[L - 1] <= b[L - 2]
    ):
        return [(j, b[j - 1]) for j in range(1, L - 1)] + [(L - 1, seg[L - 1])]
    if L % 2 == 0 and all(seg[2 * i] >= seg[2 * i + 1] for i in range(L // 2)):
        return [(2 * i + 1, seg[2 * i + 1]) for i in range(L // 2)]
    if L % 2 == 1 and all(
        seg[2 * i] >= seg[2 * i + 1] for i in range((L - 1) // 2)
    ):
        return [(2 * i + 1, seg[2 * i + 1]) for i in range((L - 1) // 2)]
    return None


def _split_point(seg: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
    """Length s of the leading non-final segment and its edge powers.

    Called only when no terminal form applies, which forces a proper
    split to exist: either the leading run of pairwise dominations
    breaks (a_1 > a_2) or the alternating sums overtake some a_s
    (a_1 <= a_2).
    """
    L = len(seg)
    if seg[0] > seg[1]:
        t = 0
        while 2 * t + 1 < L and seg[2 * t] >= seg[2 * t + 1]:
            t += 1
        s = 2 * t
        assert 2 <= s < L
        return s, [(2 * i + 1, seg[2 * i + 1]) for i in range(t)]
    b = _alternating_sums(seg)
    s = None
    for j in range(2, L):
        if seg[j - 1] <= b[j - 2]:
            s = j
            break
    assert s is not None and s < L
    return s, [(j, b[j - 1]) for j in range(1, s - 1)] + [(s - 1, seg[s - 1])]


def extract_cover_by_segments(inst: PathInstance) -> tuple[Edge, ...]:
    """A multiset of path edges of size >= ceil(sum y) dividing x^a.

    Reference for `extract_cover`: a is split into left segments driven
    by the alternating sums b_1 = a_1, b_j = a_j - b_(j-1), and the last
    segment takes one of four terminal shapes.  The greedy must return
    the same tuple.

    Returned as a lexicographically sorted tuple of (i, i+1) pairs with
    repetitions.  Divisibility and the size bound are re-verified before
    returning.
    """
    edges: list[Edge] = []
    offset = 0
    rest = list(inst.a)
    while rest:
        terminal = _terminal_form(rest)
        if terminal is not None:
            for local, mult in terminal:
                edges.extend([(offset + local, offset + local + 1)] * mult)
            break
        s, emitted = _split_point(rest)
        for local, mult in emitted:
            edges.extend([(offset + local, offset + local + 1)] * mult)
        offset += s
        rest = rest[s:]
    edges.sort()
    _verify_cover(inst, edges)
    return tuple(edges)


def induced_subgraph(
    g: WeightedGraph, vertices: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabeled 1..|A|.

    Returns the subgraph together with the label map: entry i-1 is the
    original vertex that became vertex i.
    """
    order = tuple(sorted(set(vertices)))
    for v in order:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    relabel = {old: new for new, old in enumerate(order, 1)}
    edges = tuple(
        (relabel[u], relabel[v], w)
        for u, v, w in g.edges
        if u in relabel and v in relabel
    )
    return WeightedGraph(len(order), edges), order


def pattern_scan_by_candidates(g: WeightedGraph) -> PatternWitness | None:
    """`graphs.forbidden_pattern_scan` through a set of every occurrence.

    Builds a `PatternWitness` for each forbidden pattern that a pair of
    heavy edges spans and returns the least one by (kind rank, vertex
    tuple), where the library keeps only the least so far.
    """
    heavy = g.heavy_edges()
    weight_of = {(u, v): w for u, v, w in g.edges}

    def lookup(u: int, v: int) -> int | None:
        return weight_of.get((u, v) if u < v else (v, u))

    candidates: set[PatternWitness] = set()
    for i, (a, b, w1) in enumerate(heavy):
        for c, d, w2 in heavy[i + 1:]:
            shared = {a, b} & {c, d}
            if len(shared) == 1:
                mid = shared.pop()
                p, q = sorted(({a, b} | {c, d}) - {mid})
                third = lookup(p, q)
                if third is None:
                    candidates.add(
                        PatternWitness(
                            PatternKind.HEAVY_P3,
                            (p, mid, q),
                            (lookup(p, mid), lookup(mid, q)),
                        )
                    )
                elif third >= HEAVY:
                    x, y, z = sorted((p, mid, q))
                    candidates.add(
                        PatternWitness(
                            PatternKind.HEAVY_TRIANGLE,
                            (x, y, z),
                            (lookup(x, y), lookup(y, z), lookup(x, z)),
                        )
                    )
            elif not shared:
                cross = [(a, c), (a, d), (b, c), (b, d)]
                if all(lookup(u, v) is None for u, v in cross):
                    first, second = sorted([(a, b, w1), (c, d, w2)])
                    candidates.add(
                        PatternWitness(
                            PatternKind.HEAVY_2K2,
                            (first[0], first[1], second[0], second[1]),
                            (first[2], second[2]),
                        )
                    )
    if not candidates:
        return None
    rank = list(PatternKind).index
    return min(candidates, key=lambda c: (rank(c.kind), c.vertices))


def refuted_by_lift_on_ideal(g: WeightedGraph, witness: PatternWitness) -> bool:
    """`verify._refuted_by_lift` on the edge ideal's generators.

    Builds the ideal, so a weight beyond 64 bits raises its
    OverflowError, then tests x^a outside I by `member` and x^(2a) in
    I^2 by generator divisibility, with the same fallbacks to False.
    """
    ideal = edge_ideal(g)
    try:
        a = lifted_witness(witness, ideal.n)
        if member(ideal, a):
            return False
    except (ValueError, OverflowError):
        return False
    double = tuple(2 * e for e in a)
    below = [h for h in ideal.generators if divides(h, double)]
    return any(
        divides(f, tuple(e - x for e, x in zip(double, h))) for h in below for f in below
    )
