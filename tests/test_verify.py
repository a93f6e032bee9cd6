import json

from edgeclosure.graphs import PatternKind, forbidden_pattern_scan, path_graph
from edgeclosure.verify import (
    enumerate_weighted_graphs,
    family_graphs,
    graph_key,
    run_equivalence_check,
    run_normality_check,
    sample_weighted_graphs,
)


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

    def test_json_output_is_deterministic(self):
        first = run_equivalence_check(3, 2, sample=30, seed=9)
        second = run_equivalence_check(3, 2, sample=30, seed=9)
        assert json.dumps(first.to_jsonable(), sort_keys=True) == json.dumps(
            second.to_jsonable(), sort_keys=True
        )


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
