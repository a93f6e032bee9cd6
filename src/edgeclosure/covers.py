"""Constructive edge covers on a path under an exponent budget.

Given exponents a_1..a_n on the vertices of a path and a non-negative
vector y_1..y_{n-1} satisfying

    y_1 <= a_1,   y_{i-1} + y_i <= a_i (2 <= i <= n-1),   y_{n-1} <= a_n,

there is a multiset of at least ceil(sum y) path edges whose product of
edge monomials x_i x_{i+1} divides x^a.  Such a multiset is a
b-matching of the path with vertex budgets a, and one left-to-right
greedy pass finds a maximum one: edge (i, i+1) gets

    x_i = min(a_i - x_{i-1}, a_{i+1}),   x_0 = 0.

The greedy is maximum by exchange: if a maximum x* agrees with it
before edge i and x*_i < x_i, moving d = x_i - x*_i units from edge
i+1 (as far as it has them) onto edge i keeps every vertex within its
budget and does not shrink x*.  The vertex-edge incidence matrix of a
path is totally unimodular (it is bipartite), so the largest b-matching
equals the optimum of the packing LP, which is at least sum y; being an
integer, it is at least ceil(sum y).  The cover therefore meets the
bound for every feasible y, and y itself is only checked, not used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, InfeasibleInstanceError, ResourceCapError
from .ideals import as_exponent_vector, require_int

MAX_COVER_EDGES = 1_000_000  # largest cover extract_cover will build

Edge = tuple[int, int]


@dataclass(frozen=True)
class PathInstance:
    """Vertex exponents and a feasible edge vector on the path 1..n.

    It keeps the package's refusal contract.  `n` and `a` follow the
    exact-int rule of `ideals`: a bool, a float or a `Fraction` raises
    TypeError; n < 2 or a negative entry of `a` raises ValueError, `a`
    of the wrong length DimensionMismatchError, and an entry above
    MAX_EXPONENT OverflowError.  `y` takes ints and Fractions only,
    else TypeError; a negative entry raises ValueError and a `y` that
    breaks the path system InfeasibleInstanceError.  `a` is stored as a
    tuple and `y` as Fractions.
    """

    n: int
    a: tuple[int, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        require_int(2, n=self.n)
        object.__setattr__(self, "a", as_exponent_vector(self.a, self.n))
        if len(self.y) != self.n - 1:
            raise DimensionMismatchError(
                f"y has length {len(self.y)}, expected {self.n - 1}"
            )
        if any(type(v) is not int and type(v) is not Fraction for v in self.y):
            raise TypeError("edge values must be int or Fraction")
        object.__setattr__(self, "y", tuple(Fraction(v) for v in self.y))
        if any(v < 0 for v in self.y):
            raise ValueError("edge values must be non-negative")
        violation = first_violated_inequality(self.a, self.y)
        if violation is not None:
            raise InfeasibleInstanceError(violation)

    def target_size(self) -> int:
        """ceil of the total edge value; the guaranteed cover size."""
        return math.ceil(sum(self.y, Fraction(0)))


def first_violated_inequality(
    a: Sequence[int], y: Sequence[Fraction]
) -> str | None:
    """Describe the first failing inequality of the path system, if any."""
    n = len(a)
    if y[0] > a[0]:
        return f"y[1] = {y[0]} > a[1] = {a[0]}"
    for i in range(2, n):
        if y[i - 2] + y[i - 1] > a[i - 1]:
            return (
                f"y[{i - 1}] + y[{i}] = {y[i - 2] + y[i - 1]} > a[{i}] = {a[i - 1]}"
            )
    if y[n - 2] > a[n - 1]:
        return f"y[{n - 1}] = {y[n - 2]} > a[{n}] = {a[n - 1]}"
    return None


def extract_cover(inst: PathInstance) -> tuple[Edge, ...]:
    """A maximum multiset of path edges dividing x^a, of size >= ceil(sum y).

    Returned as a lexicographically sorted tuple of (i, i+1) pairs with
    repetitions.  Raises ResourceCapError, before building anything,
    when the cover would have more than MAX_COVER_EDGES edges.
    Divisibility and the size bound are re-verified before returning.
    """
    mults = []
    prev = 0
    for i in range(inst.n - 1):
        prev = min(inst.a[i] - prev, inst.a[i + 1])
        mults.append(prev)
    size = sum(mults)
    if size > MAX_COVER_EDGES:
        raise ResourceCapError(
            f"cover of {size} edges exceeds the cap of {MAX_COVER_EDGES}"
        )
    edges: list[Edge] = []
    for i, mult in enumerate(mults, 1):
        edges.extend([(i, i + 1)] * mult)
    _verify_cover(inst, edges)
    return tuple(edges)


def _verify_cover(inst: PathInstance, edges: Sequence[Edge]) -> None:
    used = [0] * inst.n
    for u, v in edges:
        if not (1 <= u < v <= inst.n and v == u + 1):
            raise AssertionError(f"emitted non-path edge {(u, v)}")
        used[u - 1] += 1
        used[v - 1] += 1
    if any(u > a for u, a in zip(used, inst.a)):
        raise AssertionError("emitted cover does not divide the monomial")
    if len(edges) < inst.target_size():
        raise AssertionError(
            f"cover size {len(edges)} below target {inst.target_size()}"
        )

