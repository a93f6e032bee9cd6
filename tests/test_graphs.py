import hashlib
import json
from itertools import product

import pytest
from hypothesis import given, settings

from edgeclosure.closure import is_integrally_closed
from edgeclosure.errors import GraphFormatError
from edgeclosure.graphs import (
    PatternKind,
    WeightedGraph,
    cycle_graph,
    edge_ideal,
    forbidden_pattern_scan,
    graph_from_jsonable,
    lifted_witness,
    path_graph,
    pattern_witness,
    star_graph,
    to_jsonable,
)
from edgeclosure.ideals import member, power
from edgeclosure.packing import fractional_packing
from edgeclosure.verify import enumerate_weighted_graphs

from conftest import weighted_graphs
from oracles import induced_subgraph, pattern_scan_by_candidates


class TestEdgeIdeal:
    def test_weighted_path(self):
        ideal = edge_ideal(path_graph((2, 3)))
        assert set(ideal.generators) == {(2, 2, 0), (0, 3, 3)}

    def test_single_edge(self):
        ideal = edge_ideal(WeightedGraph(2, ((1, 2, 1),)))
        assert ideal.generators == ((1, 1),)

    def test_heavy_triangle(self):
        ideal = edge_ideal(cycle_graph((2, 2, 2)))
        assert set(ideal.generators) == {(2, 2, 0), (0, 2, 2), (2, 0, 2)}

    def test_edgeless_graph_gives_zero_ideal(self):
        assert edge_ideal(WeightedGraph(3, ())).is_zero

    def test_isolated_vertices_become_unused_variables(self):
        ideal = edge_ideal(WeightedGraph(4, ((2, 3, 5),)))
        assert ideal.generators == ((0, 5, 5, 0),)


class TestInducedSubgraph:
    def test_prefix_of_cycle(self):
        c6 = cycle_graph((2, 1, 2, 1, 2, 1))
        sub, labels = induced_subgraph(c6, {1, 2, 3})
        assert sub == path_graph((2, 1))
        assert labels == (1, 2, 3)

    def test_whole_vertex_set_is_identity(self):
        g = cycle_graph((2, 1, 3))
        sub, labels = induced_subgraph(g, range(1, 4))
        assert sub == g
        assert labels == (1, 2, 3)

    def test_triangle_to_single_edge(self):
        g = cycle_graph((2, 2, 1))
        sub, labels = induced_subgraph(g, (1, 2))
        assert sub == WeightedGraph(2, ((1, 2, 2),))
        assert labels == (1, 2)

    def test_relabeling_is_order_preserving(self):
        g = WeightedGraph(5, ((2, 4, 3),))
        sub, labels = induced_subgraph(g, (4, 2, 5))
        assert labels == (2, 4, 5)
        assert sub.edges == ((1, 2, 3),)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph((1, 1, 1)), (1, 7))


class TestScan:
    def test_heavy_path(self):
        w = forbidden_pattern_scan(path_graph((2, 2)))
        assert w.kind is PatternKind.HEAVY_P3
        assert w.vertices == (1, 2, 3)
        assert w.weights == (2, 2)

    def test_alternating_heavy_hexagon_is_clean(self):
        assert forbidden_pattern_scan(cycle_graph((2, 1, 2, 1, 2, 1))) is None

    def test_triangle_with_one_trivial_edge_is_clean(self):
        g = cycle_graph((2, 2, 1))
        assert forbidden_pattern_scan(g) is None
        # cross-check with the closure engine
        assert is_integrally_closed(edge_ideal(g), 1).closed

    def test_heavy_disjoint_pair(self):
        g = WeightedGraph(4, ((1, 2, 2), (3, 4, 2)))
        w = forbidden_pattern_scan(g)
        assert w.kind is PatternKind.HEAVY_2K2
        assert w.vertices == (1, 2, 3, 4)

    def test_heavy_triangle(self):
        w = forbidden_pattern_scan(cycle_graph((2, 3, 4)))
        assert w.kind is PatternKind.HEAVY_TRIANGLE
        assert w.vertices == (1, 2, 3)
        assert w.weights == (2, 3, 4)
        w = forbidden_pattern_scan(cycle_graph((2, 2, 2)))
        assert w.kind is PatternKind.HEAVY_TRIANGLE

    def test_kind_priority_and_lex_tiebreak(self):
        # vertices 5-6 heavy-disjoint from 2-3; 1-2-3 forms a heavy path
        g = WeightedGraph(
            6, ((1, 2, 2), (2, 3, 2), (5, 6, 2), (3, 4, 1))
        )
        w = forbidden_pattern_scan(g)
        assert w.kind is PatternKind.HEAVY_P3
        assert w.vertices == (1, 2, 3)

    def test_lex_smallest_among_same_kind(self):
        g = WeightedGraph(5, ((1, 2, 2), (2, 3, 2), (3, 4, 2), (4, 5, 2)))
        w = forbidden_pattern_scan(g)
        assert w.kind is PatternKind.HEAVY_P3
        assert w.vertices == (1, 2, 3)

    def test_at_most_one_heavy_edge_is_always_clean(self):
        # every pattern needs two heavy edges
        for n in range(2, 6):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            for heavy_at in range(len(pairs)):
                edges = tuple(
                    (u, v, 4 if i == heavy_at else 1)
                    for i, (u, v) in enumerate(pairs)
                )
                assert forbidden_pattern_scan(WeightedGraph(n, edges)) is None

    def test_matches_the_candidate_set_oracle_on_every_small_graph(self):
        graphs = [g for n in range(1, 5) for g in enumerate_weighted_graphs(n, 3)]
        assert len(graphs) == 4165
        for g in graphs:
            assert forbidden_pattern_scan(g) == pattern_scan_by_candidates(g), g

    @settings(max_examples=300, deadline=None)
    @given(weighted_graphs())
    def test_matches_the_candidate_set_oracle(self, g):
        assert forbidden_pattern_scan(g) == pattern_scan_by_candidates(g)

    def test_scan_bytes_are_pinned(self):
        # sha256 of the JSON of every scan with n <= 5 and w <= 2, as
        # the candidate-set scan wrote it
        rows = [
            to_jsonable(forbidden_pattern_scan(g))
            for n in range(1, 6)
            for g in enumerate_weighted_graphs(n, 2)
        ]
        assert len(rows) == 59809
        assert sum(r is not None for r in rows) == 40713
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "867aa24ad575d4401d775cc330c4c453240c81d7e1d7e7ff07312ca72c81ec92"


class TestPatternWitness:
    def test_heavy_path_formula(self):
        graph, w = pattern_witness(PatternKind.HEAVY_P3, (2, 2))
        assert graph == path_graph((2, 2))
        assert w == (1, 4, 1)
        assert pattern_witness(PatternKind.HEAVY_P3, (2, 3))[1] == (1, 5, 2)

    def test_disjoint_pair_formula(self):
        graph, w = pattern_witness(PatternKind.HEAVY_2K2, (2, 2))
        assert graph == WeightedGraph(4, ((1, 2, 2), (3, 4, 2)))
        assert w == (1, 1, 1, 1)
        assert pattern_witness(PatternKind.HEAVY_2K2, (3, 3))[1] == (2, 2, 2, 2)

    def test_triangle_branches(self):
        _, w = pattern_witness(PatternKind.HEAVY_TRIANGLE, (2, 2, 2))
        assert w == (1, 1, 4)  # first branch: 2 > 2 - 1
        _, w = pattern_witness(PatternKind.HEAVY_TRIANGLE, (2, 3, 2))
        assert w == (4, 1, 1)  # second branch: 2 > 3 - 1 fails

    def test_trivial_weights_rejected(self):
        for kind, ws in (
            (PatternKind.HEAVY_P3, (1, 2)),
            (PatternKind.HEAVY_2K2, (2, 1)),
            (PatternKind.HEAVY_TRIANGLE, (2, 2, 1)),
        ):
            with pytest.raises(ValueError):
                pattern_witness(kind, ws)

    def test_wrong_arity_rejected(self):
        for kind in PatternKind:
            arity = 3 if kind is PatternKind.HEAVY_TRIANGLE else 2
            for count in (0, arity - 1, arity + 1):
                with pytest.raises(ValueError, match=f"needs {arity} weights, got {count}"):
                    pattern_witness(kind, (2,) * count)

    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_witness_validity_sample(self, kind):
        arity = 3 if kind is PatternKind.HEAVY_TRIANGLE else 2
        for ws in product((2, 3, 4), repeat=arity):
            graph, w = pattern_witness(kind, ws)
            ideal = edge_ideal(graph)
            assert not member(ideal, w)
            assert fractional_packing(ideal, w).value >= 1
            doubled = tuple(2 * v for v in w)
            assert member(power(ideal, 2), doubled)

    def test_lift_places_the_witness_on_the_host_vertices(self):
        g = WeightedGraph(5, ((1, 4, 2), (3, 4, 3)))
        witness = forbidden_pattern_scan(g)
        assert witness.vertices == (1, 4, 3)
        # pattern_witness(P3, (2, 3)) is (1, 5, 2) on the path 1-2-3
        assert lifted_witness(witness, 5) == (1, 0, 2, 5, 0)

    @pytest.mark.parametrize("n", [2, 0])
    def test_lift_rejects_vertices_outside_the_host(self, n):
        witness = forbidden_pattern_scan(path_graph((2, 2)))
        with pytest.raises(ValueError, match="do not fit"):
            lifted_witness(witness, n)

    def test_lift_agrees_with_the_engine_on_every_flagged_graph(self):
        # Every flagged graph with n <= 4 and w <= 3: the lift is outside
        # I, its double inside I^2, and the engine finds I not closed.
        flagged = 0
        for n in range(1, 5):
            for g in enumerate_weighted_graphs(n, 3):
                witness = forbidden_pattern_scan(g)
                if witness is None:
                    continue
                flagged += 1
                ideal = edge_ideal(g)
                a = lifted_witness(witness, n)
                assert not member(ideal, a), g
                assert member(power(ideal, 2), tuple(2 * e for e in a)), g
                assert not is_integrally_closed(ideal, 1).closed, g
        assert flagged == 2832


class TestGraphValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 2, 1), (1, 2, 2)))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((2, 2, 1),))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((1, 2, 0),))

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError, match="a cycle needs at least 3 vertices"):
            cycle_graph((2, 3))

    def test_edges_sorted_deterministically(self):
        g = WeightedGraph(3, ((2, 3, 1), (1, 2, 2)))
        assert g.edges == ((1, 2, 2), (2, 3, 1))

    @pytest.mark.parametrize(
        "n, edges, match",
        [
            (3, ((1.0, 2, 1),), r"edges\[0\]: field 'u'"),
            (3, ((1, 2, 1), (2, 3, True)), r"edges\[1\]: field 'w'"),
            (3, ((1, 2, 1.0),), r"edges\[0\]: field 'w'"),
            (2.5, (), r"^n must be an int, got 2\.5$"),
        ],
        ids=["float-vertex", "bool-weight", "float-weight", "non-int-n"],
    )
    def test_non_integer_fields_rejected(self, n, edges, match):
        with pytest.raises(TypeError, match=match):
            WeightedGraph(n, edges)

    @pytest.mark.parametrize(
        "edges, index",
        [
            (((1, 2),), 0),
            (((1, 2, 1), 5), 1),
            (((1, 2, 1, 1),), 0),
            (((1, 2, 1), "123"), 1),
            (((1, 2, 1), None), 1),
        ],
        ids=["pair", "int", "four-items", "string", "none"],
    )
    def test_edge_that_is_not_a_triple_rejected(self, edges, index):
        with pytest.raises(ValueError, match=rf"edges\[{index}\]: must be a \(u, v, w\) triple"):
            WeightedGraph(3, edges)

    def test_list_edges_stored_as_tuples(self):
        g = WeightedGraph(3, ([2, 3, 1], (1, 2, 2)))
        assert g.edges == ((1, 2, 2), (2, 3, 1))
        assert g == WeightedGraph(3, ((1, 2, 2), (2, 3, 1)))


class TestJson:
    def test_round_trip(self):
        g = cycle_graph((2, 1, 3, 1, 4, 1))
        data = json.loads(json.dumps(to_jsonable(g)))
        assert graph_from_jsonable(data) == g

    def test_reversed_edge_rejected_with_position(self):
        data = {"n": 3, "edges": [{"u": 1, "v": 2, "w": 1}, {"u": 3, "v": 2, "w": 1}]}
        with pytest.raises(GraphFormatError, match=r"edges\[1\].*reversed"):
            graph_from_jsonable(data)

    def test_duplicate_edge_rejected_with_both_positions(self):
        data = {
            "n": 3,
            "edges": [
                {"u": 1, "v": 2, "w": 1},
                {"u": 2, "v": 3, "w": 1},
                {"u": 1, "v": 2, "w": 3},
            ],
        }
        with pytest.raises(GraphFormatError, match=r"edges\[2\].*edges\[0\]"):
            graph_from_jsonable(data)

    def test_missing_field_rejected(self):
        with pytest.raises(GraphFormatError, match=r"edges\[0\].*'w'"):
            graph_from_jsonable({"n": 2, "edges": [{"u": 1, "v": 2}]})

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
            graph_from_jsonable({"n": 2, "edges": [{"u": 1, "v": 5, "w": 1}]})

    @pytest.mark.parametrize(
        "edges, match",
        [
            ({"u": 1, "v": 2, "w": 1}, r"^'edges' must be a list$"),
            ([[1, 2, 1]], r"^edges\[0\]: must be an object$"),
        ],
        ids=["edges-not-a-list", "edge-not-an-object"],
    )
    def test_edges_shape_rejected(self, edges, match):
        with pytest.raises(GraphFormatError, match=match):
            graph_from_jsonable({"n": 2, "edges": edges})

    def test_bad_top_level(self):
        with pytest.raises(GraphFormatError):
            graph_from_jsonable([1, 2, 3])
        with pytest.raises(GraphFormatError):
            graph_from_jsonable({"edges": []})

    @pytest.mark.parametrize(
        "n, edges, error",
        [
            (3, [(2, 2, 1)], ValueError),
            (3, [(1, 2, 1), (3, 2, 1)], ValueError),
            (2, [(1, 5, 1)], ValueError),
            (3, [(1, 2, 0)], ValueError),
            (3, [(1, 2, 1), (2, 3, 1), (1, 2, 3)], ValueError),
            (3, [(1, 2, 1), (2, 3, 2.5)], TypeError),
        ],
        ids=["loop", "reversed", "out-of-range", "zero-weight", "duplicate", "non-integer"],
    )
    def test_reader_reports_the_constructor_message(self, n, edges, error):
        with pytest.raises(error) as direct:
            WeightedGraph(n, tuple(edges))
        data = {"n": n, "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}
        with pytest.raises(GraphFormatError) as parsed:
            graph_from_jsonable(data)
        assert str(parsed.value) == str(direct.value)
        assert f"edges[{len(edges) - 1}]" in str(direct.value)


def test_star_constructor_centers_last_vertex():
    g = star_graph((2, 1, 1))
    assert g.n == 4
    assert g.edges == ((1, 4, 2), (2, 4, 1), (3, 4, 1))
