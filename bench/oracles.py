"""Reference computations the benchmark checks the program's outputs against.

Everything here is written apart from the package: it imports nothing
from `edgeclosure` and works on plain tuples.  The checks run outside the
timed region.  sympy is imported lazily, after the run's memory
high-water mark has been read, so it does not inflate `peak_rss_mb`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

KIND_ORDER = ("heavy_p3", "heavy_2k2", "heavy_triangle")


def patterns(n, edges):
    """Every forbidden induced pattern, by brute force over 3- and 4-subsets.

    Returns a set of (kind, vertices, weights) in the canonical shapes of
    the package's `PatternWitness`: (p, mid, q) with p < q for the heavy
    path, sorted vertices for the triangle, and (a, b, c, d) with a < b,
    c < d, a < c for the disjoint heavy pair.
    """
    w = {(u, v): weight for u, v, weight in edges}

    def wt(x, y):
        return w.get((x, y) if x < y else (y, x))

    found = set()
    for trio in combinations(range(1, n + 1), 3):
        present = {(x, y): wt(x, y) for x, y in combinations(trio, 2)}
        heavy = [p for p, val in present.items() if val is not None and val >= 2]
        absent = [p for p, val in present.items() if val is None]
        if len(heavy) == 3:
            x, y, z = trio
            found.add(("heavy_triangle", trio, (wt(x, y), wt(y, z), wt(x, z))))
        elif len(heavy) == 2 and len(absent) == 1:
            p, q = absent[0]
            mid = next(v for v in trio if v not in (p, q))
            found.add(("heavy_p3", (p, mid, q), (wt(p, mid), wt(mid, q))))
    for quad in combinations(range(1, n + 1), 4):
        a = quad[0]
        for b in quad[1:]:
            c, d = (v for v in quad if v not in (a, b))
            inside = [wt(a, b), wt(c, d)]
            cross = [wt(a, c), wt(a, d), wt(b, c), wt(b, d)]
            if all(x is not None and x >= 2 for x in inside) and all(
                x is None for x in cross
            ):
                found.add(("heavy_2k2", (a, b, c, d), (wt(a, b), wt(c, d))))
    return found


def first_pattern(n, edges):
    """The pattern the scan must report: least kind, then least vertices."""
    found = patterns(n, edges)
    if not found:
        return None
    return min(found, key=lambda p: (KIND_ORDER.index(p[0]), p[1]))


def edge_vectors(n, edges):
    vecs = []
    for u, v, w in edges:
        vec = [0] * n
        vec[u - 1] = w
        vec[v - 1] = w
        vecs.append(tuple(vec))
    return vecs


def divides(d, a):
    return all(x <= y for x, y in zip(d, a))


def power_minimal_generators(gens, k):
    """Minimal generators of I^k from all k-multisets of generators, sorted."""
    sums = {
        tuple(map(sum, zip(*combo)))
        for combo in combinations_with_replacement(gens, k)
    }
    minimal = []
    for v in sorted(sums, key=lambda v: (sum(v), v)):
        # a proper divisor has a strictly smaller total degree
        if not any(sum(m) < sum(v) and divides(m, v) for m in minimal):
            minimal.append(v)
    return tuple(sorted(minimal))


def lp_value(gens, a):
    """Exact max 1.y s.t. M y <= a, y >= 0, through sympy's rational simplex."""
    from sympy import Matrix
    from sympy.solvers.simplex import linprog

    n, m = len(a), len(gens)
    opt, _ = linprog(
        Matrix([-1] * m), Matrix(n, m, lambda j, i: gens[i][j]), Matrix(a)
    )
    opt = -opt
    return Fraction(int(opt.p), int(opt.q))


def ip_value(gens, a):
    """Exact max 1.y over non-negative integers y with M y <= a.

    Depth-first over the generators, largest multiplicity first, pruned by
    sum(y) * min degree <= total remaining exponent.
    """
    degrees = [sum(g) for g in gens]
    tail_min_degree = [min(degrees[i:]) for i in range(len(gens))]
    best = 0

    def rec(i, rem, count):
        nonlocal best
        if count > best:
            best = count
        if i == len(gens) or count + sum(rem) // tail_min_degree[i] <= best:
            return
        g = gens[i]
        cap = min(r // e for r, e in zip(rem, g) if e)
        for t in range(cap, -1, -1):
            rec(i + 1, [r - t * e for r, e in zip(rem, g)], count + t)

    rec(0, list(a), 0)
    return best


def packing_feasible(gens, a, y, value):
    """y >= 0, sum(y) == value and M y <= a, in exact arithmetic."""
    if len(y) != len(gens) or any(v < 0 for v in y) or sum(y) != value:
        return False
    return all(
        sum(Fraction(g[j]) * v for g, v in zip(gens, y)) <= a[j]
        for j in range(len(a))
    )


def power_identity_holds(gens, a, k, scale, multiplicities, slack):
    """scale * a == slack + sum t_i g_i with sum t_i == scale * k, all >= 0."""
    if scale < 1 or len(multiplicities) != len(gens) or len(slack) != len(a):
        return False
    if any(t < 0 for t in multiplicities) or any(s < 0 for s in slack):
        return False
    if sum(multiplicities) != scale * k:
        return False
    return all(
        slack[j] + sum(t * g[j] for t, g in zip(multiplicities, gens)) == scale * a[j]
        for j in range(len(a))
    )


def cover_holds(a, y, edges):
    """Path edges only, product divides x^a, size >= ceil(sum y)."""
    used = [0] * len(a)
    for u, v in edges:
        if not (1 <= u and v == u + 1 and v <= len(a)):
            return False
        used[u - 1] += 1
        used[v - 1] += 1
    return all(x <= b for x, b in zip(used, a)) and len(edges) >= math.ceil(sum(y))
