"""The three workloads: seeded inputs, one round of program calls, output checks.

A round is one closed-loop pass over the workload's whole input list from a
single caller: each item starts when the previous one has returned.  Every
round of a run uses the same inputs, so per-round counts repeat exactly.
The program is reached through attribute lookups on its modules at call
time, so the wrappers of a traced run see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import edgeclosure as ec
import edgeclosure.cli
import edgeclosure.verify

import oracles

WARM_UP_STRIDE = 8  # the untimed warm-up runs every 8th item of a round


@dataclass(frozen=True)
class KnownFault:
    """Output of an operation that failed on the fault the benchmark keeps."""

    error: str


@dataclass
class Round:
    outputs: list
    latencies: list  # seconds, one per operation that did not fail
    attempted: int
    failed: int
    wall: float


def run_ops(ops) -> Round:
    outputs, latencies, failed = [], [], 0
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        out = op()
        dt = time.perf_counter() - t
        if isinstance(out, KnownFault):
            failed += 1
        else:
            latencies.append(dt)
        outputs.append(out)
    return Round(outputs, latencies, len(ops), failed, time.perf_counter() - start)


class OpsWorkload:
    """A workload whose round calls `self.ops` in order."""

    def run_round(self, warm_up=False) -> Round:
        return run_ops(self.ops[::WARM_UP_STRIDE] if warm_up else self.ops)


def relabeled(edges, perm):
    """Edges with vertex v renamed perm[v - 1], in the u < v form."""
    return tuple(
        sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]), w)
               for u, v, w in edges)
    )


def cycle_edges(weights):
    n = len(weights)
    return tuple((i, i + 1, weights[i - 1]) for i in range(1, n)) + ((1, n, weights[-1]),)


def shuffled_cycles(rng, n_max, weight_max, keep):
    """Every weighted cycle n <= n_max, w <= weight_max that `keep` accepts,
    each under a seeded vertex relabeling, in seeded order."""
    graphs = []
    for n in range(3, n_max + 1):
        for ws in product(range(1, weight_max + 1), repeat=n):
            edges = cycle_edges(ws)
            if keep(n, edges):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                graphs.append((n, relabeled(edges, perm)))
    rng.shuffle(graphs)
    return graphs


def pattern_of(witness):
    if witness is None:
        return None
    return (witness.kind.value, witness.vertices, witness.weights)


def reports_of(reports):
    return tuple((r.k, r.closed, r.witness, r.closure_generators) for r in reports)


def check_clean_reports(key, n, edges, reports, kmax, problems):
    """Every power up to kmax closed, with the closure generators of I^k."""
    if [r[0] for r in reports] != list(range(1, kmax + 1)):
        problems.append(f"{key}: probed powers {[r[0] for r in reports]}, expected 1..{kmax}")
        return
    gens = oracles.edge_vectors(n, edges)
    for k, closed, witness, closure_gens in reports:
        if not closed or witness is not None:
            problems.append(f"{key}: scan-clean but I^{k} reported not closed")
        elif tuple(closure_gens) != oracles.power_minimal_generators(gens, k):
            problems.append(f"{key}: closure generators of I^{k} differ from those of I^{k}")


def sample(rng, items, count):
    return rng.sample(items, min(count, len(items)))


class Thm36:
    """Every labeled graph with n <= 4 and weights <= 3 through the
    scan-versus-engine harness at k = 1; the seed fixes the order."""

    name = "thm36"
    N_MAX, WEIGHT_MAX = 4, 3

    def __init__(self, seed):
        rng = random.Random(seed)
        graphs = []
        for n in range(1, self.N_MAX + 1):
            pairs = list(combinations(range(1, n + 1), 2))
            for ws in product(range(self.WEIGHT_MAX + 1), repeat=len(pairs)):
                edges = tuple((u, v, w) for (u, v), w in zip(pairs, ws) if w)
                graphs.append(ec.WeightedGraph(n, edges))
        rng.shuffle(graphs)
        self.graphs = graphs

    def run_round(self, warm_up=False) -> Round:
        graphs = self.graphs[::WARM_UP_STRIDE] if warm_up else self.graphs
        stamps = []

        def stream():
            for g in graphs:
                stamps.append(time.perf_counter())
                yield g
            stamps.append(time.perf_counter())

        start = time.perf_counter()
        run = edgeclosure.verify.check_equivalence(stream(), descriptor={"bench": self.name})
        wall = time.perf_counter() - start
        outputs = [
            (r.key, pattern_of(r.scan), r.closed_by_k, r.consistent) for r in run.records
        ]
        outputs.append(("run", run.passed, tuple(run.violations)))
        latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        return Round(outputs, latencies, len(graphs), 0, wall)

    def check(self, outputs, rng):
        problems = []
        expected = sum(4 ** math.comb(n, 2) for n in range(1, self.N_MAX + 1))
        records, (_, passed, violations) = outputs[:-1], outputs[-1]
        if len(self.graphs) != expected or len(records) != expected:
            problems.append(f"thm36: {len(records)} records, expected {expected}")
        if not passed or violations:
            problems.append(f"thm36: harness reported violations {violations[:3]}")
        for g, (key, scan, closed_by_k, consistent) in zip(self.graphs, records):
            expected_scan = oracles.first_pattern(g.n, g.edges)
            if scan != expected_scan:
                problems.append(f"{key}: scan {scan}, brute force {expected_scan}")
            if closed_by_k != ((1, expected_scan is None),) or not consistent:
                problems.append(f"{key}: closedness {closed_by_k} against the characterization")
        return problems


class DeepPowers(OpsWorkload):
    """Scan-clean powers to k = 4 where the sweep and `power` do the work:
    every scan-clean cycle with n <= 6 and w <= 3, unit-weight K5 and K6,
    the README C6 showcase through the CLI at k <= 5, and the kept fault."""

    name = "deep-powers"
    KMAX = 4
    SHOWCASE = (2, 1, 3, 1, 4, 1)
    SHOWCASE_KMAX = 5
    SHOWCASE_BOX_CAP = "20000000"  # its k = 5 box has 13.7M points
    HUGE_K = str(2**63 - 1)

    def __init__(self, seed):
        rng = random.Random(seed)
        cycles = shuffled_cycles(
            rng, 6, 3, lambda n, e: oracles.first_pattern(n, e) is None
        )
        complete = [
            (n, tuple((u, v, 1) for u, v in combinations(range(1, n + 1), 2)))
            for n in (5, 6)
        ]
        self.probes = cycles + complete
        showcase = json.dumps({
            "n": len(self.SHOWCASE),
            "edges": [{"u": u, "v": v, "w": w} for u, v, w in sorted(cycle_edges(self.SHOWCASE))],
        })
        self.showcase_edges = tuple(sorted(cycle_edges(self.SHOWCASE)))
        self.ops = [self._probe(ec.WeightedGraph(n, edges)) for n, edges in self.probes]
        self.ops.append(self._cli(showcase, ["check", "-", "--kmax", str(self.SHOWCASE_KMAX), "--json"]))
        self.ops.append(self._overflow(showcase))
        order = list(range(len(self.ops)))
        rng.shuffle(order)
        self.order = order
        self.ops = [self.ops[i] for i in order]
        os.environ["EDGECLOSURE_BOX_CAP"] = self.SHOWCASE_BOX_CAP

    def _probe(self, g):
        def op():
            return reports_of(ec.is_normal_up_to(ec.edge_ideal(g), self.KMAX, include_generators=True))
        return op

    def _cli(self, text, argv):
        def op():
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out):
                    code = edgeclosure.cli.main(argv)
            finally:
                sys.stdin = saved
            return code, out.getvalue()
        return op

    def _overflow(self, text):
        # `closure -k 2**63-1` raises OverflowError out of cli.main where the
        # documented contract is exit code 2 or 3; it is counted as failed.
        run = self._cli(text, ["closure", "-", "-k", self.HUGE_K])

        def op():
            try:
                return run()
            except OverflowError as exc:
                return KnownFault(f"OverflowError: {exc}")
        return op

    def check(self, outputs, rng):
        if len(outputs) != len(self.order):
            return [f"deep-powers: {len(outputs)} outputs for {len(self.order)} items"]
        problems = []
        canonical = [None] * len(outputs)
        for pos, i in enumerate(self.order):
            canonical[i] = outputs[pos]
        for (n, edges), reports in zip(self.probes, canonical):
            check_clean_reports(f"n={n} {edges}", n, edges, reports, self.KMAX, problems)
        code, text = canonical[len(self.probes)]
        expected = {
            "graph": {"n": len(self.SHOWCASE),
                      "edges": [{"u": u, "v": v, "w": w} for u, v, w in self.showcase_edges]},
            "kmax": self.SHOWCASE_KMAX,
            "reports": [{"k": k, "closed": True, "witness": None}
                        for k in range(1, self.SHOWCASE_KMAX + 1)],
            "normal_up_to_kmax": True,
        }
        if code != 0 or json.loads(text) != expected:
            problems.append(f"showcase: exit {code}, output differs from all powers closed")
        fault = canonical[len(self.probes) + 1]
        if not isinstance(fault, KnownFault) and fault[0] not in (2, 3):
            problems.append(f"closure with k = 2**63-1: exit {fault[0]}, expected 2 or 3")
        return problems


class Certificates(OpsWorkload):
    """Seeded random proper ideals, 20 for each shape n, m <= 6 (entries <= 4,
    m counted before dropping non-minimal generators), with queries from
    three times the generator box: LP and IP optima, a power identity for
    each k up to the LP value and scaling membership per query; then seeded
    path instances through cover extraction.  No closure code runs."""

    name = "certificates"
    IDEALS, QUERIES_PER_IDEAL, PATHS = 720, 4, 300
    S_MAX = 3  # explicit bound: the default one can exceed its cap of 64
    LP_CHECKS = 250  # queries whose LP value sympy re-derives per run
    SCALING_CHECKS = 250  # queries whose scaling answer is re-derived per run

    def __init__(self, seed):
        rng = random.Random(seed)
        self.queries = []
        for i in range(self.IDEALS):
            # every shape (n, m) equally often, so seeds differ only in entries
            n, gens = self._ideal(rng, 1 + i % 6, 1 + i // 6 % 6)
            box = [max(g[j] for g in gens) for j in range(n)]
            for _ in range(self.QUERIES_PER_IDEAL):
                self.queries.append((n, gens, tuple(rng.randint(0, 3 * b) for b in box)))
        self.paths = [self._path(rng) for _ in range(self.PATHS)]
        self.ops = [self._query(*q) for q in self.queries] + [self._cover(*p) for p in self.paths]

    @staticmethod
    def _ideal(rng, n, m):
        gens = set()
        for _ in range(50):
            if len(gens) == m:
                break
            v = tuple(rng.randint(0, 4) for _ in range(n))
            if any(v):
                gens.add(v)
        gens = sorted(gens)
        return n, tuple(g for g in gens if not any(h != g and oracles.divides(h, g) for h in gens))

    @staticmethod
    def _path(rng):
        n = rng.randint(2, 8)
        a = [rng.randint(0, 6) for _ in range(n)]
        y = []
        for i in range(n - 1):
            den = rng.choice((1, 2, 3))
            room = min(a[i] - (y[-1] if y else 0), a[i + 1])
            y.append(Fraction(rng.randint(0, int(room * den)), den))
        return n, tuple(a), tuple(y)

    def _query(self, n, gens, a):
        def op():
            ideal = ec.MonomialIdeal(n, gens)
            lp = ec.fractional_packing(ideal, a)
            ip = ec.integer_packing(ideal, a)
            certs = []
            for k in range(1, math.floor(lp.value) + 1):
                c = ec.power_identity_certificate(ideal, a, k)
                certs.append((k, c.scale, c.multiplicities, c.slack))
            k = max(1, math.floor(lp.value))
            sm = ec.scaling_membership(ideal, a, k, s_max=self.S_MAX)
            return lp.value, lp.y, ip.value, ip.y, tuple(certs), (k, sm.member, sm.s)
        return op

    def _cover(self, n, a, y):
        def op():
            return ec.extract_cover(ec.PathInstance(n, a, y))
        return op

    def check(self, outputs, rng):
        problems = []
        nq = len(self.queries)
        if len(outputs) != nq + len(self.paths):
            return [f"certificates: {len(outputs)} outputs for {nq + len(self.paths)} items"]
        answers = list(zip(self.queries, outputs[:nq]))
        for (n, gens, a), (lp, lp_y, ip, ip_y, certs, (k, member, s)) in answers:
            key = f"query {gens} a={a}"
            if not oracles.packing_feasible(gens, a, lp_y, lp):
                problems.append(f"{key}: LP packing {lp_y} infeasible or not of value {lp}")
            if ip != oracles.ip_value(gens, a) or ip > lp or any(
                Fraction(v).denominator != 1 for v in ip_y
            ) or not oracles.packing_feasible(gens, a, ip_y, ip):
                problems.append(f"{key}: IP value {ip} (packing {ip_y}) against brute force")
            if [c[0] for c in certs] != list(range(1, math.floor(lp) + 1)) or not all(
                oracles.power_identity_holds(gens, a, *c) for c in certs
            ):
                problems.append(f"{key}: power identities {certs} do not re-verify")
            if member and (s < 1 or s > self.S_MAX or lp < k) or (not member and s != self.S_MAX):
                problems.append(f"{key}: scaling answer {(member, s)} against LP value {lp}")
            if (ip >= k) != (member and s == 1):
                problems.append(f"{key}: scaling answer {(member, s)} against IP value {ip}")
        for (n, gens, a), out in sample(rng, answers, self.LP_CHECKS):
            if out[0] != oracles.lp_value(gens, a):
                problems.append(f"query {gens} a={a}: LP value {out[0]}, sympy {oracles.lp_value(gens, a)}")
        for (n, gens, a), out in sample(rng, answers, self.SCALING_CHECKS):
            k, member, s = out[5]
            hits = [t for t in range(1, self.S_MAX + 1)
                    if oracles.ip_value(gens, tuple(t * x for x in a)) >= t * k]
            if (member, s) != ((True, hits[0]) if hits else (False, self.S_MAX)):
                problems.append(f"query {gens} a={a}: scaling answer {(member, s)}, brute force {hits}")
        for (n, a, y), edges in zip(self.paths, outputs[nq:]):
            if not oracles.cover_holds(a, y, edges):
                problems.append(f"path a={a} y={y}: cover {edges} fails")
        return problems


WORKLOADS = {w.name: w for w in (Thm36, DeepPowers, Certificates)}
