"""Integral closure of ideal powers: generators, closedness, normality.

The exponents of monomials in the closure of I^k form an upward-closed
set of lattice points whose minimal elements all lie in the box
a_j <= k * max_i M[j][i] (they are roundings of points in k times the
convex hull of the generators).  The engine sweeps that box by columns
along its longest axis: with the integer-scaled dual functionals of the
packing LP, each column gets the least height at which it enters the
set, by one ceiling division per functional.  A column's lowest point
is minimal iff it lies in the box and sits strictly below the lowest
points of its neighbouring columns a' - e_j, so the sweep holds a few
entries per column, not per box point.  Closedness is decided by
looking the minimal elements up among the sums of k generators, each
kept as its row-major flat index in the same box: no sum of at most k
generators leaves the box, so adding indices adds vectors.  The sweep
computes in the narrowest of int16, int32 and int64 whose limit
2**(bits-2) exceeds every box length, every functional value in the
box and every k*s + w_col, and in Python integers (one per column)
when none does, so it is exact on every input.  numpy is imported by
the sweep itself, on its first call: the certificates below, the
packing oracles and the pattern scan never load it.  The wall-clock
deadline is checked inside the dual enumeration, before each functional
of the sweep and before each round of the k-sum build.

Single queries get a certificate instead: a power identity rescales the
optimal fractional packing of a to total k and clears its denominators,
so (x^a)^s lies in I^(s*k) with s its scale, and the scaling search
tests s = 1, 2, ... with the integer oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import ResourceCapError, check_deadline
from .ideals import (
    ExponentVector,
    MonomialIdeal,
    as_exponent_vector,
    checked_mul,
    flat_index,
    generator_sums,
    power_box,
)
from .packing import (
    check_query,
    checked_lp,
    dual_functionals,
    fractional_packing,
    integer_form,
    integer_packing,
    require_proper,
)

DEFAULT_BOX_CAP = 10_000_000
# numpy integer widths, narrowest first, each with the bound every value
# of the sweep must stay below: 2**(bits - 2), two bits of margin.
_WIDTHS = (("int16", 2**14), ("int32", 2**30), ("int64", 2**62))


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of probing whether I^k is integrally closed."""

    k: int
    closed: bool
    witness: ExponentVector | None = None
    closure_generators: tuple[ExponentVector, ...] | None = None


@dataclass(frozen=True)
class PowerIdentityCertificate:
    """Explicit identity showing (x^a)^scale lies in I^(scale*k).

    scale * a = slack + sum(multiplicities[i] * generator_i), with the
    multiplicities summing to scale * k and the slack non-negative.
    """

    scale: int
    multiplicities: tuple[int, ...]
    slack: ExponentVector


@dataclass(frozen=True)
class ScalingResult:
    """Result of the power-scaling membership search.

    When `member` is true, `s` is the least exponent with
    (x^a)^s in I^(s*k); otherwise `s` is the largest exponent tried.
    """

    member: bool
    s: int


def closure_generators(
    ideal: MonomialIdeal,
    k: int,
    *,
    box_cap: int = DEFAULT_BOX_CAP,
    deadline: float | None = None,
) -> tuple[ExponentVector, ...]:
    """Minimal generators of the integral closure of I^k, sorted lex."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    require_proper(ideal)
    shape = tuple(b + 1 for b in power_box(ideal, k))
    volume = math.prod(shape)
    if volume > box_cap:
        raise ResourceCapError(
            f"lattice box has {volume} points, exceeding the cap of {box_cap}"
        )
    functionals = dual_functionals(ideal, deadline=deadline)
    return _sweep(shape, functionals, k, deadline)


def _sweep_width(
    shape: tuple[int, ...],
    functionals: Sequence[tuple[tuple[int, ...], int]],
    k: int,
    col: int,
):
    """The narrowest integer width in which the sweep is exact.

    Every value the sweep computes is bounded in magnitude by the box
    length shape[col], the longest, by sum_j w_j * (b_j - 1) over all
    axes, or by k*s + w_col, for some functional (w, s).  The first
    width whose limit exceeds all of them is returned, with Python
    integers (`object`) as the last resort.  numpy wraps a narrow
    integer silently, so the limits keep two bits of margin below the
    width's range.
    """
    spans = [b - 1 for b in shape]
    bound = shape[col]
    for w, s in functionals:
        bound = max(bound, sum(map(mul, w, spans)), k * s + w[col])
    return next((name for name, limit in _WIDTHS if bound < limit), object)


def _sweep(
    shape: tuple[int, ...],
    functionals: Sequence[tuple[tuple[int, ...], int]],
    k: int,
    deadline: float | None,
) -> tuple[ExponentVector, ...]:
    """Minimal points of the box where every a.w >= k*s, sorted lex.

    The longest axis is the column axis; the grid is spanned by the
    other axes of length > 1.  Each column gets its height: the least
    t >= 0 at which every functional holds, which is the maximum over
    the functionals of ceil((k*s - partial) / w_col), with `partial` the
    functional on the grid coordinates.  A functional with w_col = 0
    that fails on the grid puts the column at the top of the box.  The
    set is an up-set, so the column's lowest point is minimal iff it
    lies in the box and every grid predecessor a' - e_j has a strictly
    greater height.  A height at or above the top compares greater than
    every height in the box, so heights need no clipping.  Memory is a
    few arrays of one entry per column, not per box point, each entry
    in the width `_sweep_width` picks.
    """
    import numpy as np

    n = len(shape)
    col = max(range(n), key=shape.__getitem__)
    dtype = _sweep_width(shape, functionals, k, col)
    top = shape[col]
    # Only the axes of length > 1 get an array axis: a length-1 axis
    # holds only 0, where w_j * 0 adds nothing.  Each kept axis doubles
    # the volume at least, so the grid has at most log2(volume) axes.
    axes = [j for j, b in enumerate(shape) if b > 1 and j != col]
    d = len(axes)
    ramps = [
        np.arange(shape[j], dtype=dtype).reshape(
            tuple(shape[j] if t == pos else 1 for t in range(d))
        )
        for pos, j in enumerate(axes)
    ]
    height = np.zeros(tuple(shape[j] for j in axes), dtype=dtype)
    # top in the heights' width, so that np.where keeps that width
    top_entry = np.asarray(top, dtype)
    for w, s in functionals:
        check_deadline(deadline)
        # rest = k*s + w_col - 1 - partial.  Broadcasting only over the
        # axes with w_j != 0 keeps it smaller than the grid when the
        # functional has zero entries.
        rest = k * s + w[col] - 1
        for j, r in zip(axes, ramps):
            if w[j]:
                rest = rest - (r if w[j] == 1 else w[j] * r)
        if w[col]:
            # ceil((k*s - partial) / w_col) as one floor division
            np.maximum(height, rest // w[col], out=height)
        else:
            # partial < k*s, where the functional fails, is rest >= 0
            np.maximum(height, np.where(rest >= 0, top_entry, 0), out=height)
    minimal = height < top
    for pos in range(d):
        lead = (slice(None),) * pos
        dst, src = lead + (slice(1, None),), lead + (slice(None, -1),)
        minimal[dst] &= height[dst] < height[src]
    rows = np.argwhere(minimal)
    points = np.zeros((len(rows), n), np.int64)
    points[:, axes] = rows
    points[:, col] = height[minimal]
    return tuple(sorted(map(tuple, points.tolist())))


def is_integrally_closed(
    ideal: MonomialIdeal,
    k: int,
    *,
    include_generators: bool = False,
    box_cap: int = DEFAULT_BOX_CAP,
    deadline: float | None = None,
) -> ClosureReport:
    """Decide whether I^k equals the integral closure of I^k.

    The power is closed iff every minimal closure generator already lies
    in I^k.  On failure the witness is the lexicographically smallest
    minimal generator outside I^k.
    """
    mins = closure_generators(ideal, k, box_cap=box_cap, deadline=deadline)
    # A minimal closure generator a lies in I^k iff it is a sum of k
    # generators: a k-sum dividing a lies in the closure too, so by the
    # minimality of a it equals a.  The sweep's box holds every k-sum,
    # so both sides are compared by their flat index in it.
    sums, strides = generator_sums(ideal, k, deadline=deadline)
    witness = next((a for a in mins if flat_index(a, strides) not in sums), None)
    return ClosureReport(
        k=k,
        closed=witness is None,
        witness=witness,
        closure_generators=mins if include_generators else None,
    )


def is_normal_up_to(
    ideal: MonomialIdeal,
    kmax: int,
    *,
    include_generators: bool = False,
    box_cap: int = DEFAULT_BOX_CAP,
    deadline: float | None = None,
) -> list[ClosureReport]:
    """Probe closedness of I^k for k = 1..kmax, stopping at a failure."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    reports = []
    for k in range(1, kmax + 1):
        report = is_integrally_closed(
            ideal,
            k,
            include_generators=include_generators,
            box_cap=box_cap,
            deadline=deadline,
        )
        reports.append(report)
        if not report.closed:
            break
    return reports


def power_identity_certificate(
    ideal: MonomialIdeal, a: Sequence[int], k: int
) -> PowerIdentityCertificate:
    """Constructive witness that x^a lies in the closure of I^k.

    Reduces the components of the optimal fractional packing in index
    order until they sum to k (which keeps M y <= a), clears their
    denominators with their lcm s, and returns the exact identity
    s*a = slack + sum of s*y_i copies of each generator, computed in
    integers over the lcm of the packing's denominators.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    vec = check_query(ideal, a)
    packing = checked_lp(ideal, vec)
    if packing.value < k:
        raise ValueError(
            f"x^a is not in the closure of I^{k}: packing value {packing.value} < {k}"
        )
    nums, den = integer_form(packing.y)
    excess = sum(nums) - k * den
    reduced = []
    for t in nums:
        cut = min(t, excess)
        reduced.append(t - cut)
        excess -= cut
    scale = den // math.gcd(den, *reduced)
    mults = tuple(t * scale // den for t in reduced)
    rows = ideal.exponent_matrix()
    slack = tuple(scale * v - sum(map(mul, row, mults)) for v, row in zip(vec, rows))
    out = PowerIdentityCertificate(scale=scale, multiplicities=mults, slack=slack)
    if not _identity_holds(ideal, vec, k, out):
        raise AssertionError("constructed power identity failed verification")
    return out


def verify_power_identity(
    ideal: MonomialIdeal, a: Sequence[int], k: int, cert: PowerIdentityCertificate
) -> bool:
    """Re-check the identity scale*a = slack + sum multiplicities*gens.

    Every entry must be an int: no bool, float or Fraction proves it.
    """
    return _identity_holds(ideal, as_exponent_vector(a, ideal.n), k, cert)


def _identity_holds(
    ideal: MonomialIdeal, vec: ExponentVector, k: int, cert: PowerIdentityCertificate
) -> bool:
    scale, mults, slack = cert.scale, cert.multiplicities, cert.slack
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (scale, *mults, *slack)):
        return False
    if scale < 1 or len(mults) != ideal.num_generators or len(slack) != ideal.n:
        return False
    if any(v < 0 for v in (*mults, *slack)) or sum(mults) != scale * k:
        return False
    rows = ideal.exponent_matrix()
    return all(s + sum(map(mul, row, mults)) == scale * v for s, row, v in zip(slack, rows, vec))


def scaling_membership(
    ideal: MonomialIdeal,
    a: Sequence[int],
    k: int,
    s_max: int | None = None,
    *,
    deadline: float | None = None,
) -> ScalingResult:
    """Search the least s with (x^a)^s in I^(s*k), testing s = 1..s_max.

    Each test asks the integer oracle whether s*a packs to value s*k.
    When s_max is omitted it defaults to the scale of the power identity
    for (a, k) (which guarantees a hit whenever the closure membership
    holds), errors beyond 64, and falls back to 1 when the fractional
    value is already below k.  `deadline` is passed to every integer
    oracle call.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    vec = as_exponent_vector(a, ideal.n)
    if s_max is None:
        s_max = 1
        if fractional_packing(ideal, vec).value >= k:
            s_max = power_identity_certificate(ideal, vec, k).scale
        if s_max > 64:
            raise ResourceCapError(
                f"default scaling bound {s_max} exceeds the cap of 64"
            )
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    for s in range(1, s_max + 1):
        scaled = tuple(checked_mul(s, v) for v in vec)
        if integer_packing(ideal, scaled, deadline=deadline).value >= s * k:
            return ScalingResult(member=True, s=s)
    return ScalingResult(member=False, s=s_max)
