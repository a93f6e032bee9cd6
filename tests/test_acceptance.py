"""End-to-end acceptance suite.

Seven criteria, each printed as one PASS/FAIL line.  All arithmetic is
exact (integers and rationals), so every comparison is tolerance-zero.
The normality criteria probe powers k <= 3: the underlying closedness
statements cover all powers, and the finite bound is the documented
desk-scale probe depth.

Each criterion builds a canonical JSON artifact; criterion 7 re-runs
criteria 1-6 from scratch and demands byte-identical JSON.
"""
import json
import math
import random
import time
from fractions import Fraction
from itertools import product

from edgeclosure.closure import (
    is_normal_up_to,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from edgeclosure.covers import PathInstance, extract_cover
from edgeclosure.graphs import (
    PatternKind,
    cycle_graph,
    edge_ideal,
    path_graph,
    pattern_witness,
    star_graph,
)
from edgeclosure.ideals import member, power
from edgeclosure.packing import fractional_packing, integer_packing
from edgeclosure.verify import graph_key, run_equivalence_check, run_normality_check

from conftest import random_proper_ideal
from oracles import integer_packing_enumerated

SEED = 20240811
_runs: dict[str, str] = {}


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def _cached(name: str, builder) -> str:
    if name not in _runs:
        _runs[name] = builder()
    return _runs[name]


def _criterion_1_json() -> str:
    exhaustive = run_equivalence_check(4, 3)
    sampled = run_equivalence_check(5, 3, sample=500, seed=SEED)
    return json.dumps(
        {"exhaustive": exhaustive.to_jsonable(), "sampled": sampled.to_jsonable()},
        sort_keys=True,
    )


def test_criterion_1_closedness_characterization_equivalence():
    start = time.monotonic()
    payload = json.loads(_cached("c1", _criterion_1_json))
    elapsed = time.monotonic() - start
    violations = (
        payload["exhaustive"]["violations"] + payload["sampled"]["violations"]
    )
    counts = (payload["exhaustive"]["graphs"], payload["sampled"]["graphs"])
    ok = not violations and counts == (4165, 500) and elapsed < 600
    _report(
        "criterion 1: scan <=> closed on n<=4 exhaustive + n=5 sample",
        ok,
        f"{counts[0]}+{counts[1]} graphs, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert ok, violations[:5]


def _criterion_2_json() -> str:
    cases = []
    for kind in PatternKind:
        arity = 3 if kind is PatternKind.HEAVY_TRIANGLE else 2
        for ws in product((2, 3, 4), repeat=arity):
            graph, w = pattern_witness(kind, ws)
            ideal = edge_ideal(graph)
            in_ideal = member(ideal, w)
            lp = fractional_packing(ideal, w)
            scaling = scaling_membership(ideal, w, 1, 2)
            cert = power_identity_certificate(ideal, w, 1)
            cases.append(
                {
                    "kind": kind.value,
                    "weights": list(ws),
                    "witness": list(w),
                    "member": in_ideal,
                    "lp_value": str(lp.value),
                    "scaling_member": scaling.member,
                    "scaling_s": scaling.s,
                    "certificate": {
                        "scale": cert.scale,
                        "multiplicities": list(cert.multiplicities),
                        "slack": list(cert.slack),
                    },
                    "certificate_verified": verify_power_identity(ideal, w, 1, cert),
                }
            )
    return json.dumps({"cases": cases}, sort_keys=True)


def test_criterion_2_pattern_witness_suite():
    payload = json.loads(_cached("c2", _criterion_2_json))
    failures = [
        c
        for c in payload["cases"]
        if c["member"]
        or Fraction(c["lp_value"]) < 1
        or not c["scaling_member"]
        or c["scaling_s"] > 2
        or not c["certificate_verified"]
    ]
    ok = not failures and len(payload["cases"]) == 9 + 9 + 27
    _report(
        "criterion 2: pattern witnesses for all weights in [2,4]",
        ok,
        f"{len(payload['cases'])} cases, {len(failures)} failures",
    )
    assert ok, failures[:3]


def _star_configs():
    for n in range(2, 7):
        leaves = n - 1
        yield (1,) * leaves
        for pos in range(leaves):
            for w in (2, 3, 4):
                ws = [1] * leaves
                ws[pos] = w
                yield tuple(ws)


def _criterion_3_json() -> str:
    results = []
    for ws in _star_configs():
        g = star_graph(ws)
        reports = is_normal_up_to(edge_ideal(g), 3)
        results.append(
            {
                "graph": graph_key(g),
                "closed_by_k": [[r.k, r.closed] for r in reports],
                "normal_up_to_3": all(r.closed for r in reports),
            }
        )
    return json.dumps({"stars": results}, sort_keys=True)


def test_criterion_3_star_normality():
    start = time.monotonic()
    payload = json.loads(_cached("c3", _criterion_3_json))
    elapsed = time.monotonic() - start
    bad = [r for r in payload["stars"] if not r["normal_up_to_3"]]
    ok = not bad and len(payload["stars"]) == 50 and elapsed < 300
    _report(
        "criterion 3: stars n<=6, <=1 heavy edge (w<=4) normal to k=3",
        ok,
        f"{len(payload['stars'])} stars, {len(bad)} failures, {elapsed:.1f}s",
    )
    assert ok, bad[:3]


def _criterion_4_json() -> str:
    paths = run_normality_check(6, 3, 3, families=("path",))
    cycles = run_normality_check(7, 3, 3, families=("cycle",))
    showcase = cycle_graph((2, 1, 3, 1, 4, 1))
    showcase_reports = is_normal_up_to(edge_ideal(showcase), 3)
    return json.dumps(
        {
            "paths": paths.to_jsonable(),
            "cycles": cycles.to_jsonable(),
            "alternating_c6": {
                "graph": graph_key(showcase),
                "closed_by_k": [[r.k, r.closed] for r in showcase_reports],
            },
        },
        sort_keys=True,
    )


def test_criterion_4_path_and_cycle_normality():
    start = time.monotonic()
    payload = json.loads(_cached("c4", _criterion_4_json))
    elapsed = time.monotonic() - start
    violations = payload["paths"]["violations"] + payload["cycles"]["violations"]
    showcase_ok = all(c for _, c in payload["alternating_c6"]["closed_by_k"])
    counts = (payload["paths"]["graphs"], payload["cycles"]["graphs"])
    ok = not violations and showcase_ok and counts == (363, 3267)
    _report(
        "criterion 4: paths n<=6 / cycles n<=7 (w<=3): clean=>normal(3), flagged=>fails k=1",
        ok,
        f"{counts[0]} paths + {counts[1]} cycles, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert ok, violations[:5]


def _criterion_5_json() -> str:
    rng = random.Random(SEED)
    instances = []
    for _ in range(1000):
        ideal = random_proper_ideal(rng, n_max=5, m_max=4, entry_max=4)
        box = [3 * max(g[j] for g in ideal.generators) for j in range(ideal.n)]
        a = tuple(rng.randint(0, b) for b in box)
        lp = fractional_packing(ideal, a)
        ip = integer_packing(ideal, a)
        enum = integer_packing_enumerated(ideal, a)
        record = {
            "generators": [list(g) for g in ideal.generators],
            "a": list(a),
            "lp_value": str(lp.value),
            "ip_value": str(ip.value),
            "enum_value": str(enum.value),
            "relaxation_ok": ip.value <= lp.value,
            "enum_agrees": ip.value == enum.value,
            "powers": [],
        }
        for k in (1, 2, 3):
            entry = {"k": k}
            entry["member_iff_value"] = member(power(ideal, k), a) == (
                ip.value >= k
            )
            if lp.value >= k:
                cert = power_identity_certificate(ideal, a, k)
                entry["certificate_verified"] = verify_power_identity(
                    ideal, a, k, cert
                )
            record["powers"].append(entry)
        instances.append(record)
    return json.dumps({"instances": instances}, sort_keys=True)


def test_criterion_5_oracle_cross_validation():
    start = time.monotonic()
    payload = json.loads(_cached("c5", _criterion_5_json))
    elapsed = time.monotonic() - start
    bad = []
    for rec in payload["instances"]:
        if not rec["relaxation_ok"] or not rec["enum_agrees"]:
            bad.append(rec)
            continue
        for entry in rec["powers"]:
            if not entry["member_iff_value"]:
                bad.append(rec)
                break
            if not entry.get("certificate_verified", True):
                bad.append(rec)
                break
    ok = not bad and len(payload["instances"]) == 1000
    _report(
        "criterion 5: LP/IP/enumeration/certificate cross-validation (1000 seeded)",
        ok,
        f"{len(payload['instances'])} instances, {len(bad)} disagreements, {elapsed:.1f}s",
    )
    assert ok, bad[:2]


def _criterion_6_json() -> str:
    rng = random.Random(SEED)
    direct = []
    for _ in range(500):
        n = rng.randint(2, 10)
        y = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n - 1)]
        a = []
        for i in range(n):
            if i == 0:
                need = y[0]
            elif i == n - 1:
                need = y[n - 2]
            else:
                need = y[i - 1] + y[i]
            a.append(math.ceil(need) + rng.randint(0, 2))
        inst = PathInstance(n, tuple(a), tuple(y))
        edges = extract_cover(inst)
        used = [0] * n
        for u, v in edges:
            used[u - 1] += 1
            used[v - 1] += 1
        direct.append(
            {
                "a": list(inst.a),
                "y": [str(v) for v in inst.y],
                "edges": [list(e) for e in edges],
                "size": len(edges),
                "target": inst.target_size(),
                "divides": all(c <= b for c, b in zip(used, inst.a)),
            }
        )
    optimal = []
    for _ in range(500):
        n = rng.randint(2, 10)
        a = tuple(rng.randint(0, 6) for _ in range(n))
        ideal = edge_ideal(path_graph((1,) * (n - 1)))
        cert = fractional_packing(ideal, a)
        by_gen = dict(zip(ideal.generators, cert.y))
        y = tuple(
            by_gen[tuple(1 if j in (i, i + 1) else 0 for j in range(n))]
            for i in range(n - 1)
        )
        edges = extract_cover(PathInstance(n, a, y))
        optimal.append(
            {
                "a": list(a),
                "lp_value": str(cert.value),
                "size": len(edges),
                "matches_ceiling": len(edges) == math.ceil(cert.value),
            }
        )
    return json.dumps({"direct": direct, "lp_optimal": optimal}, sort_keys=True)


def test_criterion_6_cover_extraction():
    payload = json.loads(_cached("c6", _criterion_6_json))
    bad_direct = [
        r
        for r in payload["direct"]
        if not r["divides"] or r["size"] < r["target"]
    ]
    bad_optimal = [r for r in payload["lp_optimal"] if not r["matches_ceiling"]]
    ok = (
        not bad_direct
        and not bad_optimal
        and len(payload["direct"]) == 500
        and len(payload["lp_optimal"]) == 500
    )
    _report(
        "criterion 6: path cover extraction (500 random + 500 LP-optimal)",
        ok,
        f"{len(bad_direct)}+{len(bad_optimal)} failures",
    )
    assert ok, (bad_direct[:2], bad_optimal[:2])


def test_criterion_7_determinism():
    start = time.monotonic()
    builders = {
        "c1": _criterion_1_json,
        "c2": _criterion_2_json,
        "c3": _criterion_3_json,
        "c4": _criterion_4_json,
        "c5": _criterion_5_json,
        "c6": _criterion_6_json,
    }
    mismatched = []
    for name, builder in builders.items():
        first = _cached(name, builder)
        second = builder()
        if first != second:
            mismatched.append(name)
    elapsed = time.monotonic() - start
    ok = not mismatched
    _report(
        "criterion 7: criteria 1-6 re-runs are byte-identical JSON",
        ok,
        f"rerun in {elapsed:.1f}s" + (f", mismatched: {mismatched}" if mismatched else ""),
    )
    assert ok, mismatched
