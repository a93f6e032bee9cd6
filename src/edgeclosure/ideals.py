"""Monomial ideals represented by the antichain of their minimal generator exponents.

A monomial x^a is identified with its exponent vector a, a tuple of
non-negative integers of fixed length n.  An ideal stores the minimal
generators sorted lexicographically, so equal ideals compare and hash
equal and all derived output is deterministic.
"""
from __future__ import annotations

from itertools import accumulate
from operator import le, mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, check_deadline

ExponentVector = tuple[int, ...]

# Exponent entries are kept inside signed 64-bit range; arithmetic that
# would leave it is a hard error rather than a silent wrap or a slow
# drift into huge integers.
MAX_EXPONENT = 2**63 - 1


def as_exponent_vector(entries: Sequence[int], n: int | None = None) -> ExponentVector:
    """Validate and normalize a sequence into an exponent vector."""
    vec = tuple(entries)
    if n is not None and len(vec) != n:
        raise DimensionMismatchError(f"expected length {n}, got {len(vec)}")
    for e in vec:
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"exponent entries must be int, got {e!r}")
        if e < 0:
            raise ValueError(f"exponent entries must be >= 0, got {e}")
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} exceeds 64-bit range")
    return vec


def checked_mul(a: int, b: int) -> int:
    """Multiply non-negative ints, erroring out of 64-bit range."""
    r = a * b
    if r > MAX_EXPONENT:
        raise OverflowError(f"exponent product {a}*{b} exceeds 64-bit range")
    return r


def divides(d: Sequence[int], a: Sequence[int]) -> bool:
    """True iff x^d divides x^a, i.e. d <= a componentwise."""
    if len(d) != len(a):
        raise DimensionMismatchError(f"lengths differ: {len(d)} vs {len(a)}")
    return all(map(le, d, a))


class MonomialIdeal:
    """A monomial ideal in n variables, given by its minimal generators.

    Invariants: generators are pairwise incomparable under componentwise
    <= (an antichain), sorted lexicographically.  An empty generator set
    is the zero ideal; the single zero vector is the unit ideal.

    `_cache` holds values derived from the generators, such as the
    exponent matrix; it takes no part in equality.
    """

    __slots__ = ("n", "generators", "_cache")

    def __init__(self, n: int, generators: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError("ambient variable count must be >= 0")
        gens = sorted(as_exponent_vector(g, n) for g in generators)
        if len(gens) != len(set(gens)):
            raise ValueError("duplicate generators")
        # Sorted and distinct, so no vector divides one before it.  A
        # zero vector sorts first and divides every other generator, so
        # this check also keeps it to the unit ideal.  All have length
        # n, so `divides` is d <= a componentwise.
        for i, d in enumerate(gens):
            for a in gens[i + 1:]:
                if all(map(le, d, a)):
                    raise ValueError(
                        f"generators are not an antichain: {d} vs {a}"
                    )
        self.n = n
        self.generators = tuple(gens)
        self._cache: dict = {}

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and not any(self.generators[0])

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def exponent_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows indexed by variable, columns by generator; computed once."""
        if "exponent_matrix" not in self._cache:
            gens = self.generators
            self._cache["exponent_matrix"] = tuple(tuple(g[j] for g in gens) for j in range(self.n))
        return self._cache["exponent_matrix"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.n, self.generators))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, generators={list(self.generators)})"


def minimalize(gens: Iterable[Sequence[int]], n: int | None = None) -> MonomialIdeal:
    """Build the ideal generated by `gens`, keeping only minimal elements.

    The ambient dimension is inferred from the vectors; it must be given
    explicitly for an empty generating set (the zero ideal).
    """
    vecs = [tuple(g) for g in gens]
    if not vecs:
        if n is None:
            raise ValueError("ambient dimension required for the zero ideal")
        return MonomialIdeal(n, ())
    length = len(vecs[0]) if n is None else n
    vecs = [as_exponent_vector(v, length) for v in vecs]
    minimal: list[ExponentVector] = []
    # In lex order no vector divides one before it, so kept ones stay minimal.
    for v in sorted(set(vecs)):
        if not any(divides(m, v) for m in minimal):
            minimal.append(v)
    return MonomialIdeal(length, minimal)


def box_strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a box with axis lengths `shape`.

    The flat index sum(a_j * stride_j) of a point a of the box is
    injective on the box and orders it lexicographically.  When a + b
    also lies in the box no coordinate carries, so the index of a + b
    is the sum of the indices of a and b.
    """
    # products of the trailing lengths, last axis first, then reversed
    return tuple(accumulate(reversed(shape), mul, initial=1))[-2::-1]


def flat_index(a: Sequence[int], strides: Sequence[int]) -> int:
    """The flat index of the box point a, given its box's strides."""
    return sum(map(mul, a, strides))


def power_box(ideal: MonomialIdeal, k: int) -> tuple[int, ...]:
    """Componentwise bound k * max generator entry, per coordinate.

    Every sum of at most k generators lies in the box from 0 to this
    bound.  Entries beyond 64-bit range raise `OverflowError`.
    """
    return tuple(checked_mul(k, m) for m in map(max, zip(*ideal.generators)))


def generator_sums(
    ideal: MonomialIdeal,
    k: int,
    *,
    deadline: float | None = None,
) -> tuple[set[int], tuple[int, ...]]:
    """The distinct sums of k generators, repetition allowed, k >= 1.

    Returns the sums as flat indices in the box of `power_box(ideal, k)`
    together with that box's row-major strides.  No sum of at most k
    generators leaves the box, so a sum of indices is the index of the
    sum and each new sum costs one integer addition.  `deadline` is
    checked before each of the k - 1 rounds of adding one more
    generator.
    """
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    strides = box_strides([b + 1 for b in power_box(ideal, k)])
    gens = {flat_index(g, strides) for g in ideal.generators}
    sums = gens
    for _ in range(k - 1):
        check_deadline(deadline)
        sums = {s + g for s in sums for g in gens}
    return sums, strides


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of the k-th power, k >= 1.

    The k-sums come from `generator_sums` as flat indices and are
    decoded axis by axis.
    """
    indices, strides = generator_sums(ideal, k)
    sums = []
    for index in indices:
        a = []
        for stride in strides:
            entry, index = divmod(index, stride)
            a.append(entry)
        sums.append(a)
    return minimalize(sums, ideal.n)


def member(ideal: MonomialIdeal, a: Sequence[int]) -> bool:
    """True iff x^a lies in the ideal, i.e. some generator divides a."""
    vec = as_exponent_vector(a, ideal.n)
    return any(divides(g, vec) for g in ideal.generators)
