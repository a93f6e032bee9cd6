import hashlib
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import edgeclosure.closure
from edgeclosure.closure import (
    PowerIdentityCertificate,
    _sweep,
    _sweep_plan,
    _sweep_width,
    closure_generators,
    is_integrally_closed,
    is_normal_up_to,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from edgeclosure.errors import ResourceCapError, UnitIdealError, ZeroIdealError
from edgeclosure.graphs import (
    WeightedGraph,
    cycle_graph,
    edge_ideal,
    forbidden_pattern_scan,
    path_graph,
)
from edgeclosure.ideals import MonomialIdeal, divides, member, minimalize, power, power_box
from edgeclosure.packing import (
    dual_functionals,
    fractional_packing,
    integer_packing,
)

from conftest import random_proper_ideal
from oracles import (
    closure_generators_bruteforce,
    fractional_value_by_duality,
    induced_subgraph,
    integer_packing_enumerated,
    sweep_point_by_point,
)

PAIR = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
TRIANGLE = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2), (2, 0, 2)])
UNITS = ((0, 1), (1, 0))  # the generators x2, x1


def swept(shape, functionals, k):
    """The rows `_sweep` returns from a plan for this power, as the
    sorted tuples of the oracle."""
    plan = _sweep_plan(shape, functionals, k)
    return tuple(sorted(map(tuple, _sweep(plan, shape, k, None).tolist())))


@pytest.mark.parametrize(
    "call",
    [
        lambda k: closure_generators(PAIR, k),
        lambda k: power_identity_certificate(PAIR, (1, 4, 1), k),
        lambda k: scaling_membership(PAIR, (1, 4, 1), k),
    ],
    ids=["closure_generators", "power_identity_certificate", "scaling_membership"],
)
def test_power_zero_rejected(call):
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        call(0)


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(3, 2)], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda ideal, v: closure_generators(ideal, v)),
        ("k", lambda ideal, v: is_integrally_closed(ideal, v)),
        ("k", lambda ideal, v: power_identity_certificate(ideal, (1, 4, 1), v)),
        ("k", lambda ideal, v: scaling_membership(ideal, (1, 4, 1), v, 4)),
        ("kmax", lambda ideal, v: is_normal_up_to(ideal, v)),
        ("s_max", lambda ideal, v: scaling_membership(ideal, (1, 4, 1), 1, v)),
    ],
    ids=[
        "closure_generators", "is_integrally_closed", "power_identity_certificate",
        "scaling_membership", "is_normal_up_to", "scaling_membership-s_max",
    ],
)
def test_non_int_power_rejected_before_any_solve(solve_keys, name, call, bad):
    # True == 1 and 1.0 == 1 would pass for k = 1; the type is refused first
    message = re.escape(f"{name} must be an int, got {bad!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        call(MonomialIdeal(3, PAIR.generators), bad)
    assert solve_keys == []


def sweep_width_cases():
    """(shape, functionals, k, width): each bound of `_sweep_width` just
    below and just at the limit of int16, int32 and int64."""
    widths = ("int16", "int32", "int64", object)
    for pos, limit in enumerate((2**14, 2**30, 2**62)):
        for bound, width in ((limit - 1, widths[pos]), (limit, widths[pos + 1])):
            # the longest box length, with a known single minimal point
            yield (2, bound), [((0, 1), 1)], 1, width
            # sum_j w_j * (b_j - 1) over the box (2, 4)
            yield (2, 4), [((bound - 3, 1), bound - 4), ((1, 1), 2)], 1, width
            # k*s + w_col, with k = 2 and some points of (2, 4) inside
            c = (bound - 2) // 3
            c -= (bound - c) % 2
            yield (2, 4), [((1, c), (bound - c) // 2)], 2, width


class TestClosureGenerators:
    def test_heavy_path_pair(self):
        assert closure_generators(PAIR, 1) == ((0, 2, 2), (1, 2, 1), (2, 2, 0))

    def test_principal_is_closed(self):
        ideal = MonomialIdeal(2, [(2, 2)])
        assert closure_generators(ideal, 1) == ((2, 2),)

    def test_squarefree_square_is_closed(self):
        ideal = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
        assert closure_generators(ideal, 2) == power(ideal, 2).generators

    def test_beyond_64_variables(self):
        # 63 unused variables: numpy caps an array at 64 axes (32 on 1.x)
        pad = (0,) * 62
        ideal = MonomialIdeal(65, [(2, 2, 0) + pad, (0, 2, 2) + pad])
        assert closure_generators(ideal, 1) == tuple(
            g + pad for g in closure_generators(PAIR, 1)
        )

    def test_flat_indices_beyond_int64(self):
        # strides (2**62 + 1, 1): the index of (2, 0) is 2**63 + 2, which
        # int64 would wrap to a negative number and sort first
        ideal = MonomialIdeal(2, [(2, 0), (0, 2**62)])
        mins = ((0, 2**62), (1, 2**61), (2, 0))
        assert closure_generators(ideal, 1, box_cap=2**64) == mins
        report = is_integrally_closed(ideal, 1, include_generators=True, box_cap=2**64)
        assert (report.witness, report.closure_generators) == ((1, 2**61), mins)

    def test_agrees_with_bruteforce_oracle(self, rng):
        for _ in range(25):
            ideal = random_proper_ideal(rng, n_max=3, m_max=3, entry_max=3)
            for k in (1, 2):
                assert closure_generators(ideal, k) == closure_generators_bruteforce(
                    ideal, k
                ), (ideal.generators, k)

    def test_scan_paths_agree(self):
        cases = [
            (PAIR, 1),
            (TRIANGLE, 2),
            (edge_ideal(cycle_graph((2, 1, 2, 1, 2, 1))), 2),
            # the unused second variable leaves a length-1 axis
            (MonomialIdeal(4, [(2, 0, 2, 0), (0, 0, 2, 2)]), 2),
        ]
        for ideal, k in cases:
            box = power_box(ideal, k)
            shape = tuple(b + 1 for b in box)
            fs = dual_functionals(ideal)
            assert swept(shape, fs, k) == sweep_point_by_point(
                shape, fs, k, None
            )
        # a.w reaches 6 * 2**62 > 2**63 in this box: an int64 sweep would
        # wrap and report (2, 3) and (3, 2) as spurious minimal points.
        wide = [((2**62, 2**62), 1)]
        assert sweep_point_by_point((4, 4), wide, 1, None) == ((0, 1), (1, 0))
        assert swept((4, 4), wide, 1) == ((0, 1), (1, 0))

    def test_sweep_column_cases_agree(self):
        cases = [
            # the first functional has zero weight on the column axis 1
            ((3, 5), [((2, 0), 1), ((1, 1), 2), ((1, 2), 3)], 1),
            # the column axis 0 is not the last axis, so the points are
            # re-sorted; with w_col = 3 the ceiling and the floor of a
            # column's height differ here
            ((7, 3, 3), [((3, 1, 0), 4), ((1, 2, 2), 3)], 2),
            # a single kept axis leaves a zero-dimensional grid
            ((1, 5, 1), [((0, 2, 0), 3)], 1),
            ((1, 5, 1), [((0, 0, 1), 1)], 1),
            # Python integers, with zero weight on the column axis 1
            ((3, 4), [((2**62, 0), 2**62), ((1, 1), 3)], 1),
            # w_col = 0 weighted only on the first grid axis, then only on
            # the last: `rest` is smaller than the grid
            ((4, 6, 5), [((1, 0, 0), 2), ((1, 1, 1), 4)], 1),
            ((4, 6, 5), [((0, 0, 1), 2), ((1, 1, 1), 4)], 1),
            # w_col = 0 on a length-1 axis only: `rest` is a Python int,
            # failing everywhere (s = 1) or nowhere (s = 0)
            ((1, 5, 4), [((1, 0, 0), 1), ((0, 1, 1), 2)], 1),
            ((1, 5, 4), [((1, 0, 0), 0), ((0, 1, 1), 2)], 1),
            # w_col > 0 with one grid axis weighted: the first, the last,
            # the middle; the column axis 2 is neither first nor last
            ((3, 4, 9, 5), [((1, 0, 1, 0), 2), ((0, 0, 1, 2), 3)], 2),
            ((3, 4, 9, 5), [((0, 1, 2, 0), 3), ((1, 0, 1, 1), 3)], 2),
            # w_col = 0 on single grid axes of a 3-axis grid
            ((3, 4, 9, 5), [((2, 0, 0, 0), 3), ((0, 0, 1, 1), 3)], 1),
            ((3, 4, 9, 5), [((0, 1, 0, 0), 1), ((0, 0, 0, 1), 2), ((1, 1, 1, 1), 5)], 1),
            # no grid axis (d = 0), then one grid axis (d = 1)
            ((7,), [((2,), 5)], 2),
            ((3, 8), [((1, 2), 3), ((0, 1), 1), ((2, 0), 1)], 1),
            ((8, 3), [((2, 1), 3), ((1, 0), 1), ((0, 2), 1)], 2),
            # Python integers, with w_col = 0 on a grid axis, and with a
            # grid predecessor to compare on both grid axes
            ((3, 5, 4), [((2**62, 0, 2**62), 2**62), ((1, 1, 1), 3)], 1),
            ((3, 5, 4), [((2**62, 1, 0), 2**62), ((0, 2, 2**62), 2**62)], 1),
        ]
        for shape, fs, k in cases:
            assert swept(shape, fs, k) == sweep_point_by_point(
                shape, fs, k, None
            ), (shape, fs, k)
        assert swept((3, 4), cases[4][1], 1) == ((1, 2), (2, 1))
        assert swept((7, 3, 3), cases[1][1], 2) == (
            (2, 2, 0), (3, 0, 2), (3, 1, 1), (4, 0, 1), (4, 1, 0), (6, 0, 0)
        )

    def test_sweep_agrees_on_four_grid_axes(self, rng):
        # every variable used, so every box axis is longer than 1
        for _ in range(60):
            gens = {tuple(rng.randint(0, 2) for _ in range(5)) for _ in range(rng.randint(2, 4))}
            ideal = minimalize(gens - {(0,) * 5}, n=5)
            if ideal.is_zero or not all(map(any, zip(*ideal.generators))):
                continue
            k = rng.randint(1, 2)
            shape = tuple(b + 1 for b in power_box(ideal, k))
            fs = dual_functionals(ideal)
            assert swept(shape, fs, k) == sweep_point_by_point(
                shape, fs, k, None
            ), (ideal.generators, k)

    def test_sweep_agrees_with_point_by_point(self, rng):
        for _ in range(200):
            ideal = random_proper_ideal(rng, n_max=4, m_max=4, entry_max=3)
            k = rng.randint(1, 3)
            shape = tuple(b + 1 for b in power_box(ideal, k))
            fs = dual_functionals(ideal)
            assert swept(shape, fs, k) == sweep_point_by_point(
                shape, fs, k, None
            ), (ideal.generators, k)

    def test_sweep_memory_per_box_point(self):
        # 3,956,121 box points; the sweep keeps one entry per column
        ideal = edge_ideal(cycle_graph((2, 1, 3, 1, 4, 1)))
        volume = math.prod(b + 1 for b in power_box(ideal, 4))
        dual_functionals(ideal)
        tracemalloc.start()
        try:
            closure_generators(ideal, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * volume, (peak, volume)

    def test_sweep_bytes_per_column(self):
        # int16 heights: the same sweep in int64 takes 10.6 B per column
        ideal = edge_ideal(cycle_graph((2, 1, 3, 1, 4, 1)))
        shape = [b + 1 for b in power_box(ideal, 4)]
        columns = math.prod(shape) // max(shape)
        assert columns == 232_713
        closure_generators(ideal, 1)  # loads numpy, caches the duals
        tracemalloc.start()
        try:
            closure_generators(ideal, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * columns, (peak, columns)

    def test_sweep_bytes_per_column_at_the_showcase_top_power(self):
        # the README C6 showcase at k = 5, its largest probed power
        ideal = edge_ideal(cycle_graph((2, 1, 3, 1, 4, 1)))
        shape = [b + 1 for b in power_box(ideal, 5)]
        columns = math.prod(shape) // max(shape)
        assert columns == 650_496
        closure_generators(ideal, 1)  # loads numpy, caches the duals
        tracemalloc.start()
        try:
            closure_generators(ideal, 5, box_cap=math.prod(shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * columns, (peak, columns)

    def test_sweep_width_at_each_limit(self):
        for shape, fs, k, width in sweep_width_cases():
            col = max(range(len(shape)), key=shape.__getitem__)
            assert _sweep_width(shape, fs, k, col) == width, (shape, fs, k)
            got = swept(shape, fs, k)
            if math.prod(shape) <= 2**15:
                assert got == sweep_point_by_point(shape, fs, k, None), (shape, fs, k)
            else:
                assert got == ((0, 1),), (shape, fs, k)

    def test_heavy_path_sweeps_in_int32(self, monkeypatch):
        # a box under the default cap whose functional values pass 2**14
        ideal = edge_ideal(path_graph((193, 180)))
        shape = tuple(b + 1 for b in power_box(ideal, 1))
        col = max(range(len(shape)), key=shape.__getitem__)
        assert _sweep_width(shape, dual_functionals(ideal), 1, col) == "int32"
        got = closure_generators(ideal, 1)
        monkeypatch.setattr(
            edgeclosure.closure, "_WIDTHS", (("int64", 2**62),)
        )
        assert got == closure_generators(ideal, 1)

    def test_outputs_lie_in_box(self, rng):
        for _ in range(10):
            ideal = random_proper_ideal(rng, n_max=4, m_max=3, entry_max=3)
            box = power_box(ideal, 2)
            for g in closure_generators(ideal, 2):
                assert all(v <= b for v, b in zip(g, box))

    def test_rejects_zero_and_unit(self):
        with pytest.raises(ZeroIdealError):
            closure_generators(minimalize(set(), n=2), 1)
        with pytest.raises(UnitIdealError):
            closure_generators(MonomialIdeal(2, [(0, 0)]), 1)

    def test_box_cap(self):
        with pytest.raises(ResourceCapError):
            closure_generators(PAIR, 1, box_cap=5)

    def test_deadline(self):
        with pytest.raises(ResourceCapError):
            closure_generators(PAIR, 1, deadline=time.monotonic() - 1)

    def test_deadline_inside_sweep(self):
        ideal = MonomialIdeal(3, [(3, 1, 0), (0, 1, 3)])
        closure_generators(ideal, 1)
        past = time.monotonic() - 1
        # cached duals skip their check, so the sweep is what raises
        assert dual_functionals(ideal, deadline=past)
        with pytest.raises(ResourceCapError):
            closure_generators(ideal, 1, deadline=past)


def logged(name, fn, calls, result=False):
    """`fn`, logging (name, k) per call, k its third argument, and its
    result too when asked."""
    def call(*args):
        out = fn(*args)
        calls.append((name, args[2], out) if result else (name, args[2]))
        return out
    return call


def no_points(swept):
    """A stand-in for `_sweep` that finds no minimal point and logs each k."""
    def sweep(plan, shape, k, deadline):
        swept.append(k)
        return np.zeros((0, len(shape)), np.int64)
    return sweep


class TestIsIntegrallyClosed:
    def test_deadline_inside_the_sum_build(self, monkeypatch):
        ideal = MonomialIdeal(3, PAIR.generators)
        dual_functionals(ideal)  # cached duals skip their check
        swept = []
        monkeypatch.setattr(edgeclosure.closure, "_sweep", no_points(swept))
        # with no sweep, only the build of the k-sums can see the deadline
        with pytest.raises(ResourceCapError):
            is_integrally_closed(ideal, 2, deadline=time.monotonic() - 1)
        assert swept == [2]

    def test_heavy_path_witness(self):
        report = is_integrally_closed(edge_ideal(path_graph((2, 2))), 1)
        assert not report.closed
        assert report.witness == (1, 2, 1)

    def test_single_heavy_edge_closed(self):
        report = is_integrally_closed(
            edge_ideal(WeightedGraph(2, ((1, 2, 5),))), 1
        )
        assert report.closed
        assert report.witness is None

    def test_heavy_triangle_witness_divides_classic_one(self):
        report = is_integrally_closed(edge_ideal(cycle_graph((2, 2, 2))), 1)
        assert not report.closed
        assert divides(report.witness, (1, 1, 4))
        # the engine's witness is the lex-smallest minimal violator
        violators = [
            a
            for a in closure_generators_bruteforce(TRIANGLE, 1)
            if integer_packing(TRIANGLE, a).value < 1
        ]
        assert report.witness == min(violators)

    def test_witness_satisfies_membership_gap(self, rng):
        for _ in range(15):
            ideal = random_proper_ideal(rng, n_max=3, m_max=3, entry_max=3)
            report = is_integrally_closed(ideal, 1, include_generators=True)
            for g in report.closure_generators:
                assert fractional_packing(ideal, g).value >= 1
            if not report.closed:
                assert integer_packing(ideal, report.witness).value < 1

    def test_matches_membership_definition(self, rng):
        # The verdict and witness agree with testing every closure
        # generator for membership in I^k, in lex order.
        for _ in range(40):
            ideal = random_proper_ideal(rng, n_max=4, m_max=4, entry_max=3)
            for k in (1, 2, 3):
                pk = power(ideal, k)
                witness = next(
                    (a for a in closure_generators(ideal, k) if not member(pk, a)),
                    None,
                )
                report = is_integrally_closed(ideal, k)
                assert (report.closed, report.witness) == (
                    witness is None,
                    witness,
                ), (ideal.generators, k)

    def test_generators_only_on_request(self):
        assert is_integrally_closed(PAIR, 1).closure_generators is None
        report = is_integrally_closed(PAIR, 1, include_generators=True)
        assert report.closure_generators == closure_generators(PAIR, 1)


class TestNormality:
    def test_star_with_one_heavy_edge(self):
        star = MonomialIdeal(4, [(2, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 1)])
        reports = is_normal_up_to(star, 3)
        assert [(r.k, r.closed) for r in reports] == [(1, True), (2, True), (3, True)]

    def test_short_circuits_at_first_failure(self):
        reports = is_normal_up_to(PAIR, 2)
        assert len(reports) == 1
        assert not reports[0].closed

    def test_trivially_weighted_square_cycle(self):
        ideal = edge_ideal(cycle_graph((1, 1, 1, 1)))
        reports = is_normal_up_to(ideal, 3)
        assert all(r.closed for r in reports)
        assert len(reports) == 3

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            is_normal_up_to(PAIR, 0)

    def test_largest_kmax(self):
        # only the powers probed are evaluated: I^2 of PAIR is never
        # reached, and unit P3 stops where the box of I^215 passes the cap
        assert is_normal_up_to(PAIR, 2**63 - 1) == is_normal_up_to(PAIR, 1)
        with pytest.raises(ResourceCapError, match="has 10077696 points"):
            is_normal_up_to(edge_ideal(path_graph((1, 1))), 2**63 - 1)

    def test_probe_sets_up_its_sweeps_once(self, monkeypatch):
        # one plan, and one width, at the last power serve every power
        calls = []
        for name in ("_sweep_plan", "_sweep_width", "_sweep"):
            monkeypatch.setattr(
                edgeclosure.closure, name, logged(name, getattr(edgeclosure.closure, name), calls)
            )
        reports = is_normal_up_to(edge_ideal(path_graph((2, 1, 2))), 4)
        assert [r.closed for r in reports] == [True] * 4
        assert calls == [("_sweep_width", 4), ("_sweep_plan", 4)] + [("_sweep", k) for k in (1, 2, 3, 4)]

    @pytest.mark.parametrize("include_generators", [True, False])
    def test_lower_power_swept_in_the_width_of_the_last(self, monkeypatch, include_generators):
        # alone, I^1 is swept in int16 and I^2 in int32; the probe to
        # k = 2 sweeps I^1 from the plan of I^2, in int32
        ideal = edge_ideal(path_graph((65, 64)))
        widths = []
        for k in (1, 2):
            shape = tuple(b + 1 for b in power_box(ideal, k))
            widths.append(_sweep_width(shape, dual_functionals(ideal), k, 0))
        assert widths == ["int16", "int32"]
        assert math.prod(shape) == 2_213_769
        alone = is_integrally_closed(ideal, 1, include_generators=include_generators)
        calls = []
        monkeypatch.setattr(
            edgeclosure.closure, "_sweep_width", logged("width", _sweep_width, calls, result=True)
        )
        reports = is_normal_up_to(ideal, 2, include_generators=include_generators)
        assert calls == [("width", 2, "int32")]
        assert reports == [alone]
        assert not alone.closed

    def test_deadline_inside_the_carried_sum_round(self, monkeypatch):
        # the sums of two generators are built after the sweep of I^2
        # and before its report, from the sums of one
        ideal = MonomialIdeal(3, PAIR.generators)
        dual_functionals(ideal)  # cached duals skip their check
        swept = []
        monkeypatch.setattr(edgeclosure.closure, "_sweep", no_points(swept))
        with pytest.raises(ResourceCapError):
            is_normal_up_to(ideal, 3, deadline=time.monotonic() - 1)
        assert swept == [1, 2]

    @pytest.mark.parametrize("include_generators", [True, False])
    def test_probe_agrees_with_each_power_alone(self, rng, include_generators):
        # The carried sums in the box of the last power give the reports
        # of `is_integrally_closed` on each power, up to the first failure.
        graphs = [
            unit_complete(5),
            unit_complete(6),
            # scan-clean, with I^2 and I^3 the first powers not closed
            WeightedGraph(5, ((1, 5, 2), (2, 3, 1), (2, 4, 1), (3, 4, 1))),
            WeightedGraph(6, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (4, 5, 1), (4, 6, 1), (5, 6, 1))),
        ]
        while len(graphs) < 64:
            n = rng.randint(2, 5)
            pairs = combinations(range(1, n + 1), 2)
            edges = tuple((u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.6)
            if edges:
                graphs.append(WeightedGraph(n, edges))
        outcomes = set()
        for graph in graphs:
            kmax = 4 if graph.n == 6 else 3
            reports = is_normal_up_to(
                edge_ideal(graph), kmax, include_generators=include_generators
            )
            alone = []
            for k in range(1, kmax + 1):
                alone.append(is_integrally_closed(
                    edge_ideal(graph), k, include_generators=include_generators
                ))
                if not alone[-1].closed:
                    break
            assert reports == alone, graph
            clean = forbidden_pattern_scan(graph) is None
            outcomes.add((clean, len(reports), reports[-1].closed))
        # flagged graphs, clean ones closed to kmax, and clean ones first
        # open at k = 2 and at k = 3
        assert {(False, 1, False), (True, 3, True), (True, 2, False), (True, 3, False)} <= outcomes

    def test_path_with_separated_heavy_edges(self):
        ideal = edge_ideal(path_graph((2, 1, 2)))
        assert all(r.closed for r in is_normal_up_to(ideal, 3))

    def test_closure_of_power_of_single_edge(self):
        ideal = edge_ideal(WeightedGraph(2, ((1, 2, 3),)))
        assert closure_generators(ideal, 2) == ((6, 6),)

    def test_alternating_hexagon_closure_is_the_ideal(self):
        ideal = edge_ideal(cycle_graph((2, 1, 2, 1, 2, 1)))
        assert closure_generators(ideal, 1) == ideal.generators

    @pytest.mark.parametrize(
        "graph, first_open",
        [
            (WeightedGraph(5, ((1, 5, 2), (2, 3, 1), (2, 4, 1), (3, 4, 1))), 2),
            (WeightedGraph(5, ((1, 2, 1), (1, 5, 2), (2, 3, 1), (2, 4, 1), (3, 4, 1))), None),
            (WeightedGraph(6, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (4, 5, 1), (4, 6, 1), (5, 6, 1))), 3),
            (WeightedGraph(7, ((1, 2, 1), (1, 5, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (6, 7, 2))), 3),
            (
                WeightedGraph(6, (
                    (1, 3, 1), (1, 5, 1), (2, 3, 2), (2, 4, 1), (2, 5, 2),
                    (2, 6, 1), (3, 5, 1), (4, 5, 2), (4, 6, 1),
                )),
                3,
            ),
        ],
        ids=["triangle-and-heavy-edge", "joined-by-unit-edge", "unit-2K3", "C5-and-heavy-edge",
             "n6-odd-block-counterexample"],
    )
    def test_scan_clean_graphs_outside_the_paper_families(self, graph, first_open):
        # Scan-clean, and outside the stars, paths and cycles: unless
        # first_open is None, I^first_open is the first power that is not
        # closed, with the all-ones monomial in its closure.
        assert forbidden_pattern_scan(graph) is None
        reports = is_normal_up_to(edge_ideal(graph), 3)
        if first_open is None:
            assert [r.closed for r in reports] == [True, True, True]
        else:
            assert [r.k for r in reports] == list(range(1, first_open + 1))
            assert [r.closed for r in reports[:-1]] == [True] * (first_open - 1)
            assert reports[-1].witness == (1,) * graph.n


def reports_rows(graph, kmax):
    return [
        [r.k, r.closed, r.witness, r.closure_generators]
        for r in is_normal_up_to(edge_ideal(graph), kmax, include_generators=True)
    ]


def unit_complete(n):
    return WeightedGraph(n, tuple((u, v, 1) for u, v in combinations(range(1, n + 1), 2)))


def pinned_clean_rows():
    rows = [
        [list(ws), reports_rows(g, 4)]
        for n in range(3, 7)
        for ws in product(range(1, 4), repeat=n)
        if forbidden_pattern_scan(g := cycle_graph(ws)) is None
    ]
    return rows + [[n, reports_rows(unit_complete(n), 4)] for n in (5, 6)]


def pinned_mixed_rows():
    rows = [
        [list(ws), reports_rows(cycle_graph(ws), 3)]
        for n in range(3, 6)
        for ws in product(range(1, 4), repeat=n)
    ]
    # triangle plus a disjoint heavy edge, and the unit 2K3: not normal
    for g in (
        WeightedGraph(5, ((1, 5, 2), (2, 3, 1), (2, 4, 1), (3, 4, 1))),
        WeightedGraph(6, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (4, 5, 1), (4, 6, 1), (5, 6, 1))),
    ):
        rows.append([list(g.edges), reports_rows(g, 3)])
    return rows


# sha256 of json.dumps(rows) for the witnesses and closure generators of
# every probed power, as produced by the sweep in int64 with the k-sums
# kept as vectors.
@pytest.mark.parametrize(
    "build, count, digest",
    [
        (pinned_clean_rows, 122, "52b8b1ffc0427476809a79e4514fe48c65c2d01d9efdd03753d0bfadc4313124"),
        (pinned_mixed_rows, 353, "529914f2e7916abe2f37049df3881c2c90e1e98f61c10414893388845aebaa96"),
    ],
    ids=["clean", "mixed"],
)
def test_reports_bytes_are_pinned(build, count, digest):
    rows = build()
    assert len(rows) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


class TestScalingMembership:
    def test_witness_needs_square(self):
        result = scaling_membership(PAIR, (1, 4, 1), 1, 4)
        assert result.member and result.s == 2

    def test_generator_immediate(self):
        result = scaling_membership(PAIR, (2, 2, 0), 1)
        assert result.member and result.s == 1

    def test_outside_closure_never_member(self, solve_keys):
        # (1, 1, 1) has LP value 1/2 < 1: no s*a packs s generators, and
        # the LP bound says so without an integer program
        ideal = MonomialIdeal(3, PAIR.generators)
        result = scaling_membership(ideal, (1, 1, 1), 1, 6)
        assert not result.member and result.s == 6
        assert [rhs for _, rhs in solve_keys] == [(1, 1, 1)]
        assert "ip" not in ideal._cache
        # with the LP memo warm, the answer takes no solve at all
        assert scaling_membership(ideal, (1, 1, 1), 1, 6) == result
        assert len(solve_keys) == 1

    def test_default_bound_from_certificate(self):
        # lcm of the (1/2, 1/2) certificate denominators is 2
        result = scaling_membership(PAIR, (1, 4, 1), 1)
        assert result.member and result.s == 2

    def test_default_bound_when_outside_closure(self, solve_keys):
        ideal = MonomialIdeal(3, PAIR.generators)
        result = scaling_membership(ideal, (1, 1, 1), 1)
        assert not result.member and result.s == 1
        assert len(solve_keys) == 1  # the LP of (1, 1, 1)
        assert "ip" not in ideal._cache

    def test_past_deadline_raises(self):
        with pytest.raises(ResourceCapError):
            scaling_membership(PAIR, (1, 4, 1), 1, 4, deadline=time.monotonic() - 1.0)

    def test_default_bound_over_64_raises(self):
        # the packing (64/65, 1/65) of (1, 1) gives the power identity scale 65
        ideal = MonomialIdeal(2, [(0, 1), (65, 0)])
        assert power_identity_certificate(ideal, (1, 1), 1).scale == 65
        with pytest.raises(ResourceCapError):
            scaling_membership(ideal, (1, 1), 1)

    def test_s_max_below_one_rejected(self, solve_keys):
        # outside the closure, past the deadline: the bound is still checked first
        for a in ((1, 4, 1), (1, 1, 1)):
            with pytest.raises(ValueError, match=r"^s_max must be >= 1, got 0$"):
                scaling_membership(
                    MonomialIdeal(3, PAIR.generators), a, 1, s_max=0,
                    deadline=time.monotonic() - 1.0,
                )
        assert solve_keys == []

    def test_past_deadline_raises_on_the_lp_refutation(self):
        ideal = MonomialIdeal(3, PAIR.generators)
        fractional_packing(ideal, (1, 1, 1))
        with pytest.raises(ResourceCapError):
            scaling_membership(ideal, (1, 1, 1), 1, 6, deadline=time.monotonic() - 1.0)
        with pytest.raises(ResourceCapError):
            scaling_membership(ideal, (1, 1, 1), 1, deadline=time.monotonic() - 1.0)

    def test_agrees_with_enumerated_integer_programs(self, rng):
        # The answer is the first s <= s_max where s*a packs s*k generators,
        # by exhaustive enumeration, and a refutation with no integer program
        # is backed by the dual-vertex value of a, computed apart from the
        # simplex that the LP exit trusts.
        seen = {"member": 0, "lp": 0, "ip": 0}
        for _ in range(150):
            ideal = random_proper_ideal(rng, n_max=4, m_max=4, entry_max=3)
            box = [max(g[j] for g in ideal.generators) for j in range(ideal.n)]
            for _ in range(3):
                a = tuple(rng.randint(0, 3 * b) for b in box)
                k, s_max = rng.randint(1, 3), rng.randint(1, 3)
                fresh = MonomialIdeal(ideal.n, ideal.generators)
                result = scaling_membership(fresh, a, k, s_max)
                hits = [
                    s for s in range(1, s_max + 1)
                    if integer_packing_enumerated(ideal, [s * v for v in a]).value >= s * k
                ]
                expected = (True, hits[0]) if hits else (False, s_max)
                assert (result.member, result.s) == expected, (ideal.generators, a, k, s_max)
                below = fractional_value_by_duality(ideal, a) < k
                # the exit is taken exactly when the LP bound lies below k
                assert ("ip" not in fresh._cache) == below
                seen["member" if result.member else "lp" if below else "ip"] += 1
        # members, LP refutations and refutations by the integer search all occur
        assert min(seen.values()) > 0, seen


class TestPowerIdentity:
    def test_classic_witness_identity(self):
        cert = power_identity_certificate(PAIR, (1, 4, 1), 1)
        assert cert.scale == 2
        assert sorted(cert.multiplicities) == [1, 1]
        assert cert.slack == (0, 4, 0)
        assert verify_power_identity(PAIR, (1, 4, 1), 1, cert)

    def test_generator_identity_is_unscaled(self):
        cert = power_identity_certificate(PAIR, (2, 2, 0), 1)
        assert cert.scale == 1
        assert sum(cert.multiplicities) == 1

    def test_disjoint_pair_witness_identity(self):
        ideal = MonomialIdeal(4, [(2, 2, 0, 0), (0, 0, 2, 2)])
        cert = power_identity_certificate(ideal, (1, 1, 1, 1), 1)
        assert cert.scale == 2
        assert cert.multiplicities == (1, 1)
        assert cert.slack == (0, 0, 0, 0)

    def test_precondition_error_below_threshold(self):
        with pytest.raises(ValueError):
            power_identity_certificate(PAIR, (1, 1, 1), 1)

    def test_verify_rejects_tampering(self):
        cert = power_identity_certificate(PAIR, (1, 4, 1), 1)
        bad = type(cert)(
            scale=cert.scale,
            multiplicities=cert.multiplicities,
            slack=(1,) + cert.slack[1:],
        )
        assert not verify_power_identity(PAIR, (1, 4, 1), 1, bad)

    @pytest.mark.parametrize(
        "generators, a, scale, multiplicities, slack",
        [(UNITS, (5, 5), 0, (0, 0), (0, 0)), (UNITS, (5, 5), 1, (1, 0, 0), (5, 4)),
         (UNITS, (5, 5), 1, (1, 0), (5, 4, 7)), (UNITS, (5, 5), 1, (2, -1), (6, 3)),
         (UNITS, (5, 5), 1, (1, 1), (4, 4)),
         # x1*x2 is not in (x1^2, x2^2), though half of each generator sums to it
         (((0, 2), (2, 0)), (1, 1), 1, (Fraction(1, 2), Fraction(1, 2)), (0, 0)),
         (UNITS, (5, 5), 1.0, (1.0, 0.0), (5.0, 4.0)),
         (UNITS, (1, 1), True, (True, False), (True, False)),
         (UNITS, (1, 1), 1, (1, 0), (True, False)),
         (UNITS, (5, 5), 1, (1, 0), (5.0, 4.0)),
         # one copy of x1 = (1, 0) exceeds a in its first entry
         (UNITS, (0, 5), 1, (0, 1), (-1, 5))],
        ids=["scale-zero", "multiplicities-length", "slack-length", "negative-multiplicity",
             "wrong-total", "fractional-multiplicity", "float-entries", "bool-entries",
             "bool-slack", "float-slack", "negative-slack"],
    )
    def test_verify_rejects_each_broken_condition(
        self, generators, a, scale, multiplicities, slack
    ):
        # Each case breaks one condition and satisfies the slack equation
        # scale * a = slack + sum of multiplicities * generators.
        ideal = MonomialIdeal(2, generators)
        cert = PowerIdentityCertificate(scale, multiplicities, slack)
        assert not verify_power_identity(ideal, a, 1, cert)

    def test_verify_refuses_a_bool_power(self):
        # True once passed as k = 1
        cert = power_identity_certificate(PAIR, (1, 4, 1), 1)
        with pytest.raises(TypeError, match=r"^k must be an int, got True$"):
            verify_power_identity(PAIR, (1, 4, 1), True, cert)

    def test_verify_refuses_power_zero(self):
        # 0 * a = 0 + no generators is an identity, but of no power
        cert = PowerIdentityCertificate(1, (0, 0), (1, 4, 1))
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            verify_power_identity(PAIR, (1, 4, 1), 0, cert)

    @pytest.mark.parametrize(
        "generators, error",
        [((), ZeroIdealError), (((0, 0),), UnitIdealError)],
        ids=["zero-ideal", "unit-ideal"],
    )
    def test_verify_refuses_an_ideal_with_no_program(self, generators, error):
        # as verify_certificate and power_identity_certificate do
        cert = PowerIdentityCertificate(1, (0,) * len(generators), (1, 1))
        with pytest.raises(error):
            verify_power_identity(MonomialIdeal(2, generators), (1, 1), 1, cert)

    def test_verify_accepts_a_list_slack(self):
        # (5, 5) = [5, 4] + x2 is a valid identity for k = 1
        cert = PowerIdentityCertificate(1, (1, 0), [5, 4])
        assert verify_power_identity(MonomialIdeal(2, UNITS), (5, 5), 1, cert)

    def test_soundness_chain_on_closure_generators(self, rng):
        # every claimed closure member is backed by an exact identity
        for _ in range(10):
            ideal = random_proper_ideal(rng, n_max=3, m_max=3, entry_max=3)
            for k in (1, 2):
                for g in closure_generators(ideal, k):
                    cert = power_identity_certificate(ideal, g, k)
                    assert verify_power_identity(ideal, g, k, cert)

    def test_agreement_between_scaling_and_lp(self, rng):
        for _ in range(25):
            ideal = random_proper_ideal(rng, n_max=3, m_max=3, entry_max=3)
            a = tuple(rng.randint(0, 5) for _ in range(ideal.n))
            value = fractional_packing(ideal, a).value
            result = scaling_membership(ideal, a, 1, 6)
            if result.member:
                assert value >= 1
            if value >= 1:
                cert = power_identity_certificate(ideal, a, 1)
                if cert.scale <= 6:
                    again = scaling_membership(ideal, a, 1, cert.scale)
                    assert again.member and again.s <= cert.scale


class TestContainment:
    def test_power_generators_inside_closure_upset(self, rng):
        for _ in range(15):
            ideal = random_proper_ideal(rng, n_max=3, m_max=3, entry_max=3)
            for k in (1, 2):
                closure = minimalize(closure_generators(ideal, k), ideal.n)
                pk = power(ideal, k)
                for g in pk.generators:
                    assert member(closure, g)
                equal_upsets = closure == pk
                assert equal_upsets == is_integrally_closed(ideal, k).closed


class TestHereditary:
    def test_closedness_restricts_to_induced_subgraphs(self):
        graphs = [
            cycle_graph((2, 1, 2, 1, 2, 1)),
            cycle_graph((2, 2, 1)),
            path_graph((2, 1, 3)),
            WeightedGraph(4, ((1, 2, 2), (2, 3, 1), (3, 4, 2), (1, 4, 1))),
        ]
        for g in graphs:
            for k in (1, 2):
                if not is_integrally_closed(edge_ideal(g), k).closed:
                    continue
                for size in range(2, g.n):
                    for sub_vertices in combinations(range(1, g.n + 1), size):
                        sub, _ = induced_subgraph(g, sub_vertices)
                        if not sub.edges:
                            continue
                        assert is_integrally_closed(edge_ideal(sub), k).closed, (
                            g,
                            k,
                            sub_vertices,
                        )

    def test_failing_subgraph_forces_ambient_failure(self):
        # contrapositive at the same power
        ambient = path_graph((2, 2, 1))
        sub, _ = induced_subgraph(ambient, (1, 2, 3))
        assert not is_integrally_closed(edge_ideal(sub), 1).closed
        assert not is_integrally_closed(edge_ideal(ambient), 1).closed
