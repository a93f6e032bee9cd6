"""Constructive edge covers on a path under an exponent budget.

Given exponents a_1..a_n on the vertices of a path and a non-negative
vector y_1..y_{n-1} satisfying

    y_1 <= a_1,   y_{i-1} + y_i <= a_i (2 <= i <= n-1),   y_{n-1} <= a_n,

there is a multiset of at least ceil(sum y) path edges whose product of
edge monomials x_i x_{i+1} divides x^a.  The construction splits a into
maximal left segments driven by the alternating sums
b_1 = a_1, b_j = a_j - b_{j-1} and emits explicit edge powers per
segment; the final segment is resolved by one of four terminal shapes.
The split rule is leftmost-greedy and ties (a_1 = a_2) take the
alternating-sum branch, so extraction is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, InfeasibleInstanceError

Edge = tuple[int, int]


@dataclass(frozen=True)
class PathInstance:
    """Vertex exponents and a feasible edge vector on the path 1..n."""

    n: int
    a: tuple[int, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("path instances need n >= 2 vertices")
        if len(self.a) != self.n:
            raise DimensionMismatchError(
                f"a has length {len(self.a)}, expected {self.n}"
            )
        if len(self.y) != self.n - 1:
            raise DimensionMismatchError(
                f"y has length {len(self.y)}, expected {self.n - 1}"
            )
        if any(not isinstance(v, int) or v < 0 for v in self.a):
            raise ValueError("vertex exponents must be non-negative integers")
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


def extract_cover(inst: PathInstance) -> tuple[Edge, ...]:
    """A multiset of path edges of size >= ceil(sum y) dividing x^a.

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

