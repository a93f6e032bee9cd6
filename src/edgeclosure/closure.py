"""Integral closure of ideal powers: generators, closedness, normality.

The exponents of monomials in the closure of I^k form an upward-closed
set of lattice points whose minimal elements all lie in the box
a_j <= k * max_i M[j][i] (they are roundings of points in k times the
convex hull of the generators).  The engine sweeps that box by columns
along its longest axis: with the integer-scaled dual functionals of the
packing LP, each column gets the least height at which it enters the
set, by one ceiling division per functional.  A column's lowest point is
minimal iff it lies in the box and sits strictly below the lowest points
of its neighbouring columns a' - e_j, so the sweep holds a few entries
per column, not per box point.  Its passes over the columns run on
contiguous memory (sums from the innermost axis out, neighbours at
flat offsets), in the narrowest of int16, int32 and int64
with two bits to spare, or in Python integers when none is wide enough,
so the sweep is exact on every input.  Closedness is decided by looking
the minimal elements up among the sums of k generators, each kept as its
row-major flat index in a box that holds every sum of at most k
generators, so adding indices adds vectors.  The minimal elements stay
the rows of the sweep's integer array: their flat indices are one
product with the box strides, and tuples are built only for the
generators asked for or the witness named.  A probe of the powers
k = 1..kmax is one job: it carries the sums from each power to the next,
one generator added per power, in the box of the last power the box cap
lets it sweep, and sweeps every power from one plan set up in that box
(`_sweep_plan`).  numpy is imported by the sweep itself, on its first
call: the certificates below, the packing oracles and the pattern scan
never load it.  The wall-clock deadline is checked inside the dual
enumeration, before each functional of the sweep and before each round
of the k-sum build.

Single queries get a certificate instead: a power identity rescales the
optimal fractional packing of a to total k and clears its denominators,
so (x^a)^s lies in I^(s*k) with s its scale, and the scaling search
tests s = 1, 2, ... with the integer oracle, once the LP bound has
refuted every query whose fractional value is below k.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import ResourceCapError, check_deadline
from .ideals import (
    MAX_EXPONENT,
    ExponentVector,
    MonomialIdeal,
    box_strides,
    checked_mul,
    generator_sums,
    power_box,
    require_int,
)
from .packing import (
    MembershipCertificate,
    _certificate_holds,
    check_query,
    checked_ip,
    checked_lp,
    dual_functionals,
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
    (x^a)^s in I^(s*k); otherwise `s` is s_max, the largest exponent
    the search covers.
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
    require_int(1, k=k)
    points = next(_minimal_points(ideal, (k,), k, box_cap, deadline))
    strides = box_strides([b + 1 for b in power_box(ideal, k)])
    return _lex_sorted(points, _flat_indices(points, strides, box_cap))


def _minimal_points(
    ideal: MonomialIdeal, powers: Iterable[int], last: int, box_cap: int, deadline: float | None
) -> Iterator:
    """The minimal points of the closure of I^k for each k of `powers`, lazily.

    Each is swept in its own box from one plan, built in the box of I^last
    once the first power passes the box cap.  The points are the rows of
    an int64 array, in the sweep's order.
    """
    require_proper(ideal)
    plan = None
    for k in powers:
        shape = tuple(b + 1 for b in power_box(ideal, k))
        volume = math.prod(shape)
        if volume > box_cap:
            raise ResourceCapError(
                f"lattice box has {volume} points, exceeding the cap of {box_cap}"
            )
        if plan is None:
            box = shape if k == last else tuple(b + 1 for b in power_box(ideal, last))
            plan = _sweep_plan(box, dual_functionals(ideal, deadline=deadline), last)
        yield _sweep(plan, shape, k, deadline)


def _flat_indices(points, strides: tuple[int, ...], box_cap: int):
    """The flat indices of the rows of `points` with a box's strides.

    One integer product: every box indexed here holds at most `box_cap`
    points, so int64 holds each index while the cap is below 2**62, and
    Python integers (`object`) take over beyond, as in `_sweep_width`.
    """
    import numpy as np

    dtype = np.int64 if box_cap < 2**62 else object
    return points.astype(dtype, copy=False) @ np.array(strides, dtype)


def _lex_sorted(points, indices) -> tuple[ExponentVector, ...]:
    """The rows of `points` as tuples, sorted lex: by their flat indices."""
    return tuple(map(tuple, points[indices.argsort()].tolist()))


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
    width's range.  `_sweep_plan` takes it once, at its last power.
    """
    spans = [b - 1 for b in shape]
    bound = shape[col]
    for w, s in functionals:
        bound = max(bound, sum(map(mul, w, spans)), k * s + w[col])
    return next((name for name, limit in _WIDTHS if bound < limit), object)


def _sweep_plan(
    shape: tuple[int, ...], functionals: Sequence[tuple[tuple[int, ...], int]], k: int
):
    """The set-up of `_sweep` in the box `shape` of I^k, for every power <= k.

    The column axis is the longest; the grid is spanned by the other axes
    of length > 1, in the box of every power alike.  The box of I^k is
    k * tops + 1, so every bound of `_sweep_width` is non-decreasing in k,
    and the width taken here is exact at every lower power.  The plan
    holds one product w_j * (0..b_j - 1) per distinct (grid axis, weight),
    shaped to broadcast from the innermost grid axis out, of which a lower
    power takes the leading entries (a contiguous view), and each
    functional as (s, w_col, the indices of its products innermost first).
    """
    import numpy as np

    col = max(range(len(shape)), key=shape.__getitem__)
    dtype = np.dtype(_sweep_width(shape, functionals, k, col))
    # A length-1 axis holds only 0, where w_j * 0 adds nothing; each kept
    # axis at least doubles the volume, so there are at most log2(volume).
    axes = [j for j, b in enumerate(shape) if b > 1 and j != col]
    grid = tuple(shape[j] for j in axes)
    inner_first = list(enumerate(axes))[::-1]
    index: dict[tuple[int, int], int] = {}  # (position, w_j) -> product
    terms = [(s, w[col], [index.setdefault((pos, w[j]), len(index)) for pos, j in inner_first if w[j]])
             for w, s in functionals]
    spread = [(slice(None),) + (None,) * (len(grid) - 1 - pos) for pos in range(len(grid))]
    products = [np.arange(0, c * grid[pos], c, dtype)[spread[pos]] for pos, c in index]
    return col, axes, grid, dtype, products, terms


def _sweep(plan, shape: tuple[int, ...], k: int, deadline: float | None):
    """Minimal points of the box `shape` where every a.w >= k*s, for the
    functionals (w, s) of `plan`, the `_sweep_plan` of this power or a
    higher one: the rows of an int64 array, in the row-major order of
    their columns; callers that want them sorted sort by flat index.

    A column's height, the least t >= 0 where every functional holds,
    is the maximum of rest // w_col over the functionals,
    rest = k*s + w_col - 1 - (w on the grid coordinates), summed from
    the innermost grid axis out so that only its last step spans the
    grid; each step takes off w_j * a_j >= 0, within the plan's width.
    A functional with w_col = 0 fails where rest >= 0, and those columns
    are set to the top at once, which no later maximum lowers.  The set
    is an up-set, so a column's lowest point is minimal iff it lies in
    the box and each grid predecessor a' - e_j, one stride of axis j back
    in the raveled heights (none on the slab a_j = 0), is strictly
    higher.  Heights above the top need no clipping.  Memory is one height, in
    the plan's width, and two bools per column, not per box point.
    """
    import numpy as np

    col, axes, box_grid, dtype, products, terms = plan
    top = shape[col]
    grid = tuple(shape[j] for j in axes)
    if grid != box_grid:  # a product broadcast from grid axis pos has len(grid) - pos axes
        products = [f[: grid[-f.ndim]] for f in products]
    height = np.zeros(grid, dtype=dtype)
    for s, w_col, term in terms:
        check_deadline(deadline)
        # only the axes with w_j != 0 broadcast: rest may be smaller than the grid
        rest = k * s + w_col - 1
        for i in term:
            rest = rest - products[i]
        if w_col:
            if w_col > 1:  # in place: rest is a new array or an int
                rest //= w_col
            np.maximum(height, rest, out=height)
        else:
            np.copyto(height, top, where=rest >= 0)
    flat = height.ravel()
    minimal = flat < top
    less = np.empty_like(minimal)
    steps = [t // height.itemsize for t in height.strides]
    for b, step in zip(grid, steps):
        np.less(flat[step:], flat[:-step], out=less[step:])
        less.reshape(-1, b, step)[:, 0, :] = True
        minimal &= less
    rows = np.flatnonzero(minimal)
    points = np.zeros((len(rows), len(shape)), np.int64)
    # a grid of no axis still holds one column, which (1,) indexes alike
    for j, a in zip(axes, np.unravel_index(rows, grid or (1,))):
        points[:, j] = a
    points[:, col] = flat[rows]
    return points


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
    require_int(1, k=k)
    points = next(_minimal_points(ideal, (k,), k, box_cap, deadline))
    rounds, strides = generator_sums(ideal, k, deadline=deadline)
    sums = deque(rounds, maxlen=1).pop()
    return _report(k, points, _flat_indices(points, strides, box_cap), sums, include_generators)


def is_normal_up_to(
    ideal: MonomialIdeal,
    kmax: int,
    *,
    include_generators: bool = False,
    box_cap: int = DEFAULT_BOX_CAP,
    deadline: float | None = None,
) -> list[ClosureReport]:
    """Probe closedness of I^k for k = 1..kmax, stopping at a failure.

    Each power is decided as by `is_integrally_closed`, but as one job:
    the sums of k generators are carried from power to power, one round
    of `generator_sums` per power, in the box of `_last_power`, the last
    power the probe can sweep.  Every box swept lies inside that box, so
    the flat indices there compare each power's minimal points with its
    sums, and one sweep plan built there serves every power.  A power
    past it fails its own sweep on the box cap, as it would alone, and no
    power beyond the probe's reach is evaluated, so kmax may be any int.
    """
    require_int(1, kmax=kmax)
    require_proper(ideal)
    last = _last_power(ideal, kmax, box_cap)
    rounds, strides = generator_sums(ideal, last, deadline=deadline)
    sweeps = _minimal_points(ideal, range(1, kmax + 1), last, box_cap, deadline)
    reports = []
    for k, points in enumerate(sweeps, 1):
        indices = _flat_indices(points, strides, box_cap)
        reports.append(_report(k, points, indices, next(rounds), include_generators))
        if not reports[-1].closed:
            break
    return reports


def _last_power(ideal: MonomialIdeal, kmax: int, box_cap: int) -> int:
    """The largest k <= kmax whose box fits box_cap and 64 bits, or 1.

    The box of I^k grows with k, so a binary search finds it, and its
    entries k * max entry stay within MAX_EXPONENT, the bound of
    `power_box`.  It is 1 also when the box of I itself is over the
    cap, whose sweep then raises.
    """
    tops = power_box(ideal, 1)
    lo, hi = 1, min(kmax, MAX_EXPONENT // max(tops))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.prod(mid * t + 1 for t in tops) <= box_cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _report(
    k: int, points, indices, sums: set[int], include_generators: bool
) -> ClosureReport:
    """The verdict on I^k from its minimal closure points and its k-sums.

    A minimal closure generator a lies in I^k iff it is a sum of k
    generators: a k-sum dividing a lies in the closure too, so by the
    minimality of a it equals a.  Both sides are flat indices in one box,
    so each point is one set lookup, and the smallest index missing is
    the lex-smallest point outside I^k.
    """
    flat = indices.tolist()
    witness = None
    if not sums.issuperset(flat):
        row = flat.index(min(i for i in flat if i not in sums))
        witness = tuple(points[row].tolist())
    return ClosureReport(
        k=k,
        closed=witness is None,
        witness=witness,
        closure_generators=_lex_sorted(points, indices) if include_generators else None,
    )


def power_identity_certificate(
    ideal: MonomialIdeal, a: Sequence[int], k: int
) -> PowerIdentityCertificate:
    """Constructive witness that x^a lies in the closure of I^k.

    Reduces the components of the optimal fractional packing in index
    order until they sum to k (which keeps M y <= a), clears their
    denominators with their lcm s, and returns the exact identity
    s*a = slack + sum of s*y_i copies of each generator, in integers.
    """
    require_int(1, k=k)
    return _power_identity(ideal, check_query(ideal, a), k)


def _power_identity(ideal: MonomialIdeal, vec: ExponentVector, k: int) -> PowerIdentityCertificate:
    """`power_identity_certificate` for a query already checked by `check_query`."""
    packing = checked_lp(ideal, vec)
    nums, den = packing.nums, packing.den
    excess = sum(nums) - k * den
    if excess < 0:
        raise ValueError(
            f"x^a is not in the closure of I^{k}: packing value {packing.value} < {k}"
        )
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

    The query is checked as `power_identity_certificate` checks it: k
    must be an int >= 1, and the ideal proper.  Multiplicities and slack
    must be tuples or lists, and every entry of the certificate an int:
    no bool, float or Fraction proves it.
    """
    require_int(1, k=k)
    return _identity_holds(ideal, check_query(ideal, a), k, cert)


def _identity_holds(
    ideal: MonomialIdeal, vec: ExponentVector, k: int, cert: PowerIdentityCertificate
) -> bool:
    """Its multiplicities over `scale` are a packing of a of value k, checked as one."""
    scale, mults, slack = cert.scale, cert.multiplicities, cert.slack
    if not _certificate_holds(ideal, vec, MembershipCertificate(mults, scale)) or sum(mults) != scale * k:
        return False
    if not isinstance(slack, (tuple, list)):
        return False
    rows = ideal.exponent_matrix()
    exact = tuple(scale * v - sum(map(mul, row, mults)) for v, row in zip(vec, rows))
    return tuple(slack) == exact and all(type(s) is int for s in slack)


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
    The fractional value of a is read first: when it is below k, LP
    duality answers every s at once, since the integer value of s*a is
    at most its fractional value s*LP(a) < s*k, so the search returns
    (False, s_max) without an integer program.  That LP is the memo's
    answer when the caller asked for it, and the one branch and bound
    would take as its root otherwise.  When s_max is omitted it
    defaults to the scale of the power identity for (a, k) (which
    guarantees a hit whenever the closure membership holds), errors
    beyond 64, and falls back to 1 when the fractional value is already
    below k.  `deadline` is checked on that early answer too, and passed
    to every integer oracle call.
    """
    require_int(1, k=k)
    vec = check_query(ideal, a)
    if s_max is not None:
        require_int(1, s_max=s_max)
    lp = checked_lp(ideal, vec)
    holds = sum(lp.nums) >= k * lp.den  # LP(a) >= k
    if s_max is None:
        s_max = _power_identity(ideal, vec, k).scale if holds else 1
        if s_max > 64:
            raise ResourceCapError(
                f"default scaling bound {s_max} exceeds the cap of 64"
            )
    if not holds:
        check_deadline(deadline)
        return ScalingResult(member=False, s=s_max)
    for s in range(1, s_max + 1):
        scaled = tuple(checked_mul(s, v) for v in vec)
        if sum(checked_ip(ideal, scaled, deadline).nums) >= s * k:  # den is 1
            return ScalingResult(member=True, s=s)
    return ScalingResult(member=False, s=s_max)
