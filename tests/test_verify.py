import hashlib
import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeclosure.verify
from edgeclosure.errors import ResourceCapError
from edgeclosure.graphs import (
    PatternKind,
    PatternWitness,
    WeightedGraph,
    edge_ideal,
    forbidden_pattern_scan,
    path_graph,
)
from edgeclosure.verify import (
    check_equivalence,
    enumerate_weighted_graphs,
    family_graphs,
    graph_key,
    run_equivalence_check,
    run_normality_check,
    sample_weighted_graphs,
)

from conftest import weighted_graphs
from oracles import refuted_by_lift_on_ideal


@pytest.fixture
def engine_ideals(monkeypatch) -> list:
    """The ideal of every engine call `verify` makes while the test runs."""
    ideals = []
    engine = edgeclosure.verify.is_normal_up_to

    def spy(ideal, *args, **kwargs):
        ideals.append(ideal)
        return engine(ideal, *args, **kwargs)

    monkeypatch.setattr(edgeclosure.verify, "is_normal_up_to", spy)
    return ideals


class TestUniverses:
    def test_enumeration_count(self):
        # each of the C(n,2) pairs is absent or carries weight 1..w
        graphs = list(enumerate_weighted_graphs(3, 3))
        assert len(graphs) == 4**3
        assert len({graph_key(g) for g in graphs}) == len(graphs)

    def test_sampling_is_seed_deterministic(self):
        a = [graph_key(g) for g in sample_weighted_graphs(5, 3, 40, seed=11)]
        b = [graph_key(g) for g in sample_weighted_graphs(5, 3, 40, seed=11)]
        c = [graph_key(g) for g in sample_weighted_graphs(5, 3, 40, seed=12)]
        assert a == b
        assert a != c

    def test_family_sizes(self):
        assert len(list(family_graphs("star", 4, 2))) == 2 + 4 + 8
        assert len(list(family_graphs("path", 4, 2))) == 2 + 4 + 8
        assert len(list(family_graphs("cycle", 5, 2))) == 8 + 16 + 32

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'wheel'"):
            list(family_graphs("wheel", 4, 2))


class TestEquivalence:
    def test_small_universe_has_no_violations(self):
        run = run_equivalence_check(3, 3)
        assert run.passed
        assert run.graph_count == 1 + 4 + 64

    def test_fault_injection_reports_heavy_triangles(self, monkeypatch):
        def scan_without_triangles(g):
            witness = forbidden_pattern_scan(g)
            if witness is not None and witness.kind is PatternKind.HEAVY_TRIANGLE:
                return None
            return witness

        monkeypatch.setattr(
            "edgeclosure.verify.forbidden_pattern_scan", scan_without_triangles
        )
        run = run_equivalence_check(3, 3)
        assert not run.passed
        # the all-heavy triangle with weights (2,2,2) must be reported
        assert any("1-2:2,1-3:2,2-3:2" in v for v in run.violations)

    def test_sampled_run_records_descriptor(self):
        run = run_equivalence_check(4, 2, sample=25, seed=5)
        assert run.passed
        assert run.descriptor == {
            "n_max": 4,
            "weight_max": 2,
            "sample": 25,
            "seed": 5,
        }
        assert run.graph_count == 25

    def test_sample_without_seed_rejected(self):
        with pytest.raises(ValueError, match="sampled universes require a seed"):
            run_equivalence_check(4, 2, sample=5)

    def test_json_output_is_deterministic(self):
        first = run_equivalence_check(3, 2, sample=30, seed=9)
        second = run_equivalence_check(3, 2, sample=30, seed=9)
        assert json.dumps(first.to_jsonable(), sort_keys=True) == json.dumps(
            second.to_jsonable(), sort_keys=True
        )


class TestEntryChecks:
    """Sizes, seeds and kmax are refused before any graph is scanned."""

    @pytest.mark.parametrize(
        "bad, error, rule",
        [(True, TypeError, "must be an int, got True"), (2.0, TypeError, "must be an int, got 2.0"),
         (-1, ValueError, "must be >= 0, got -1")],
        ids=["bool", "float", "negative"],
    )
    @pytest.mark.parametrize(
        "name, graphs",
        [
            ("n", lambda v: enumerate_weighted_graphs(v, 2)),
            ("weight_max", lambda v: enumerate_weighted_graphs(3, v)),
            ("n", lambda v: sample_weighted_graphs(v, 2, 2, 1)),
            ("weight_max", lambda v: sample_weighted_graphs(3, v, 2, 1)),
            ("count", lambda v: sample_weighted_graphs(3, 2, v, 1)),
            ("seed", lambda v: sample_weighted_graphs(3, 2, 2, v)),
            ("n_max", lambda v: family_graphs("path", v, 2)),
            ("weight_max", lambda v: family_graphs("path", 3, v)),
        ],
        ids=[
            "enumerate-n", "enumerate-weight_max", "sample-n", "sample-weight_max",
            "sample-count", "sample-seed", "family-n_max", "family-weight_max",
        ],
    )
    def test_generator_refuses_before_the_first_graph(self, name, graphs, bad, error, rule):
        with pytest.raises(error, match=f"^{name} {re.escape(rule)}$"):
            next(graphs(bad))

    @pytest.fixture
    def scanned(self, monkeypatch) -> list:
        graphs = []
        scan = edgeclosure.verify.forbidden_pattern_scan

        def spy(g):
            graphs.append(g)
            return scan(g)

        monkeypatch.setattr(edgeclosure.verify, "forbidden_pattern_scan", spy)
        return graphs

    @pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "name, run",
        [
            ("n_max", lambda v: run_equivalence_check(v, 2)),
            ("weight_max", lambda v: run_equivalence_check(2, v)),
            ("sample", lambda v: run_equivalence_check(2, 2, sample=v, seed=1)),
            ("seed", lambda v: run_equivalence_check(2, 2, sample=3, seed=v)),
            ("n_max", lambda v: run_normality_check(v, 2, 1)),
            ("weight_max", lambda v: run_normality_check(2, v, 1)),
            ("kmax", lambda v: run_normality_check(2, 2, v)),
        ],
        ids=[
            "thm36-n_max", "thm36-weight_max", "thm36-sample", "thm36-seed",
            "normality-n_max", "normality-weight_max", "normality-kmax",
        ],
    )
    def test_non_int_refused(self, scanned, bad, name, run):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {bad!r}$"):
            run(bad)
        assert scanned == []

    @pytest.mark.parametrize(
        "message, run",
        [
            ("n_max must be >= 0", lambda: run_equivalence_check(-1, 2)),
            ("seed must be >= 0", lambda: run_equivalence_check(2, 2, sample=3, seed=-1)),
            ("n_max must be >= 0", lambda: run_normality_check(-1, 2, 1)),
            ("kmax must be >= 1", lambda: run_normality_check(2, 2, 0)),
        ],
        ids=["thm36-n_max", "thm36-seed", "normality-n_max", "normality-kmax"],
    )
    def test_out_of_range_refused(self, scanned, message, run):
        with pytest.raises(ValueError, match=message):
            run()
        assert scanned == []


class TestNormalityMode:
    def test_small_families_pass(self):
        run = run_normality_check(4, 2, 2)
        assert run.passed
        assert run.graph_count == len(list(family_graphs("star", 4, 2))) + len(
            list(family_graphs("path", 4, 2))
        ) + len(list(family_graphs("cycle", 4, 2)))

    def test_converse_records_scan_failures(self):
        run = run_normality_check(3, 2, 1, families=("path",))
        flagged = [r for r in run.records if r.scan is not None]
        # the only flagged path with n <= 3, w <= 2 is the (2,2) one
        assert len(flagged) == 1
        assert flagged[0].closed_by_k == ((1, False),)
        assert run.passed

    def test_fault_injection_scan_sees_nothing(self, monkeypatch):
        monkeypatch.setattr("edgeclosure.verify.forbidden_pattern_scan", lambda g: None)
        run = run_normality_check(3, 2, 1, families=("path",))
        assert not run.passed
        # the (2,2) path is the only one with a power that is not closed
        assert run.violations == [
            "path|n3|1-2:2,2-3:2: scan-clean but power 1 not closed (witness (1, 2, 1))"
        ]

    def test_fault_injection_scan_flags_everything(self, monkeypatch):
        heavy = forbidden_pattern_scan(path_graph((2, 2)))
        monkeypatch.setattr("edgeclosure.verify.forbidden_pattern_scan", lambda g: heavy)
        run = run_normality_check(3, 2, 1, families=("path",))
        assert not run.passed
        assert "path|n3|1-2:1,2-3:1: scan found heavy_p3 but k=1 closed" in run.violations
        # the (2,2) path really is not closed, so it stays consistent
        assert not any("1-2:2,2-3:2" in v for v in run.violations)


class TestFlaggedGraphs:
    def test_engine_runs_once_per_scan_clean_graph(self, engine_ideals):
        run = run_equivalence_check(4, 3)
        assert run.passed
        clean = [
            edge_ideal(g)
            for g in itertools.chain.from_iterable(
                enumerate_weighted_graphs(n, 3) for n in range(1, 5)
            )
            if g.edges and forbidden_pattern_scan(g) is None
        ]
        assert len(engine_ideals) == len(clean) == 1329
        # edge ideals of distinct graphs differ, so no flagged one is here
        assert set(engine_ideals) == set(clean)

    def test_weight_one_in_a_reported_pattern_goes_to_the_engine(
        self, monkeypatch, engine_ideals
    ):
        # pattern_witness refuses a weight below 2, so the lift fails
        def scan_with_light_p3(g):
            if g.n == 3:
                return PatternWitness(PatternKind.HEAVY_P3, (1, 2, 3), (1, 1))
            return forbidden_pattern_scan(g)

        monkeypatch.setattr(
            "edgeclosure.verify.forbidden_pattern_scan", scan_with_light_p3
        )
        run = run_normality_check(3, 2, 1, families=("path",))
        assert len(engine_ideals) == len(run.records) == 6
        assert run.violations == [
            f"path|n3|1-2:{u},2-3:{v}: scan found heavy_p3 but k=1 closed"
            for u, v in ((1, 1), (1, 2), (2, 1))
        ]
        assert run.records[-1].closed_by_k == ((1, False),)

    def test_pattern_that_is_not_induced_goes_to_the_engine(
        self, monkeypatch, engine_ideals
    ):
        # The light chord 1-3 divides the lift (1, 4, 1) of the heavy path.
        g = WeightedGraph(3, ((1, 2, 2), (1, 3, 1), (2, 3, 2)))
        fake = PatternWitness(PatternKind.HEAVY_P3, (1, 2, 3), (2, 2))
        monkeypatch.setattr("edgeclosure.verify.forbidden_pattern_scan", lambda _: fake)
        run = check_equivalence([g], descriptor={})
        assert engine_ideals == [edge_ideal(g)]
        assert run.records[0].closed_by_k == ((1, True),)
        assert run.violations == ["n3|1-2:2,1-3:1,2-3:2: scan found heavy_p3 but k=1 closed"]

    def test_lift_beyond_64_bits_goes_to_the_engine(self, engine_ideals):
        # The lift's middle entry 2**63 leaves the exponent range; the
        # engine then refuses the box, as it did before the lift existed.
        g = path_graph((2**62, 2**62))
        with pytest.raises(ResourceCapError):
            check_equivalence([g], descriptor={})
        assert engine_ideals == [edge_ideal(g)]

    def test_refuted_graphs_build_no_ideal(self, monkeypatch):
        built = []
        build = edgeclosure.verify.edge_ideal

        def spy(g):
            built.append(g)
            return build(g)

        monkeypatch.setattr(edgeclosure.verify, "edge_ideal", spy)
        assert run_equivalence_check(4, 3).passed
        # one ideal per scan-clean graph with edges, for the engine
        assert len(built) == 1329
        assert all(forbidden_pattern_scan(g) is None for g in built)

    @pytest.mark.parametrize(
        "edges, named",
        [
            (((1, 2, 2), (3, 4, 2), (5, 6, 2**64)), 2**64),
            (((1, 2, 2), (3, 4, 2), (5, 6, 2**64), (7, 8, 2**65)), 2**64),
        ],
    )
    def test_weight_beyond_64_bits_raises_before_the_lift(self, engine_ideals, edges, named):
        # The lift of the heavy pair 1-2, 3-4 would refute the graph, but
        # building its ideal refuses the first huge weight in edge order.
        g = WeightedGraph(8, edges)
        message = f"^exponent {named} exceeds 64-bit range$"
        with pytest.raises(OverflowError, match=message):
            check_equivalence([g], descriptor={})
        with pytest.raises(OverflowError, match=message):
            edge_ideal(g)
        assert engine_ideals == []


class TestLiftOnEdges:
    """`_refuted_by_lift` against the same tests on the edge ideal."""

    def test_matches_the_ideal_oracle_on_every_flagged_small_graph(self):
        flagged = 0
        for n in range(1, 5):
            for g in enumerate_weighted_graphs(n, 3):
                witness = forbidden_pattern_scan(g)
                if witness is not None:
                    flagged += 1
                    assert edgeclosure.verify._refuted_by_lift(g, witness), g
                    assert refuted_by_lift_on_ideal(g, witness), g
        assert flagged == 2832

    @settings(max_examples=300, deadline=None)
    @given(weighted_graphs(), st.data())
    def test_matches_the_ideal_oracle(self, g, data):
        # the scan's own witness, then a made-up one that may be light,
        # not induced, or off the graph's vertices
        witness = forbidden_pattern_scan(g)
        if witness is not None:
            assert edgeclosure.verify._refuted_by_lift(g, witness)
            assert refuted_by_lift_on_ideal(g, witness)
        kind = data.draw(st.sampled_from(list(PatternKind)))
        size = 4 if kind is PatternKind.HEAVY_2K2 else 3
        arity = 3 if kind is PatternKind.HEAVY_TRIANGLE else 2
        order = data.draw(st.permutations(range(1, max(g.n, size) + 1)))
        weight = st.sampled_from((1, 2, 2, 3, 3))  # heavy twice as often as light
        weights = data.draw(st.lists(weight, min_size=arity, max_size=arity))
        fake = PatternWitness(kind, tuple(order[:size]), tuple(weights))
        expected = refuted_by_lift_on_ideal(g, fake)
        assert edgeclosure.verify._refuted_by_lift(g, fake) == expected


# sha256 of json.dumps(run.to_jsonable(), indent=2, sort_keys=True) as
# produced by the engine alone, before flagged graphs were decided by
# their lifted witness.
@pytest.mark.parametrize(
    "build, digest",
    [
        (
            lambda: run_equivalence_check(4, 3),
            "6d243d61a590140d24e5d635268155e243c2d227caf4039435b45b2480cd96c0",
        ),
        (
            lambda: run_equivalence_check(5, 3, sample=500, seed=20240811),
            "7822715101d1476860fa0a4cba00bbcb87f1be92570d33c7ab8ec95a6991398c",
        ),
        (
            lambda: run_normality_check(5, 3, 3),
            "10f4bc19bf7251744451a12308cde4d9270e4d5b9ec4e9f074bb1423918f99c3",
        ),
    ],
    ids=["thm36-exhaustive", "thm36-sampled", "normality"],
)
def test_json_bytes_are_pinned(build, digest):
    text = json.dumps(build().to_jsonable(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
