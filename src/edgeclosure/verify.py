"""Desk-scale verification harness for the closedness characterization.

Two run modes replay the paper's two claims over a stream of graphs:

* thm36: over a universe of labeled weighted graphs, the pattern scan
  reports nothing exactly when the edge ideal is integrally closed;
* normality: over structured star/path/cycle families, every
  scan-clean member has all probed powers up to kmax closed, and every
  scan-flagged member already fails at k = 1.

Both modes run one per-graph loop, `_probe`.  It scans each graph; a
scan-clean graph is probed by the engine (dual enumeration and the box
sweep of `closure`) to kmax, 1 in thm36 mode.  A flagged graph is
decided at k = 1 by the paper's witness for the pattern the scan found,
lifted onto the graph: x^a outside I with x^(2a) in I^2 proves I not
integrally closed, by two exact divisibility tests on the graph's edges,
so a refuted graph needs no ideal.  Only when that certificate fails,
which a correct scan never causes, does the engine probe a flagged
graph at k = 1, so records and violation texts are the ones the engine
alone would give.  A record is consistent iff "scan-clean" agrees with
"every probed power closed"; an inconsistent record adds a violation
and flips the run's `passed` flag.  Serialized runs omit wall times so
identical inputs yield byte-identical JSON.  A size, count, seed or
kmax that is not an int raises TypeError, in the run entries and in the
graph generators alike, before the first graph; one out of range, or a
universe with no graph in it, raises ValueError rather than passing
vacuously.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .closure import DEFAULT_BOX_CAP, is_normal_up_to
from .graphs import (
    PatternWitness,
    WeightedGraph,
    cycle_graph,
    edge_ideal,
    forbidden_pattern_scan,
    lifted_witness,
    path_graph,
    star_graph,
    to_jsonable,
)
from .ideals import as_exponent_vector, require_int


@dataclass(frozen=True)
class GraphRecord:
    """Per-graph outcome inside a verification run."""

    key: str
    scan: PatternWitness | None
    closed_by_k: tuple[tuple[int, bool], ...]
    consistent: bool
    elapsed: float  # excluded from JSON output


@dataclass
class VerificationRun:
    """Aggregate result of one harness run."""

    mode: str
    descriptor: dict
    records: list[GraphRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def graph_count(self) -> int:
        return len(self.records)

    def to_jsonable(self) -> dict:
        # Timings are intentionally dropped: outputs must be
        # byte-identical across repeated seeded runs.
        return {
            "mode": self.mode,
            "descriptor": self.descriptor,
            "graphs": self.graph_count,
            "violations": list(self.violations),
            "passed": self.passed,
            "records": [
                to_jsonable(
                    {"key": r.key, "scan": r.scan, "closed_by_k": r.closed_by_k, "consistent": r.consistent}
                )
                for r in self.records
            ],
        }


def graph_key(g: WeightedGraph) -> str:
    edge_part = ",".join(f"{u}-{v}:{w}" for u, v, w in g.edges)
    return f"n{g.n}|{edge_part}" if edge_part else f"n{g.n}|"


def enumerate_weighted_graphs(n: int, weight_max: int) -> Iterator[WeightedGraph]:
    """All labeled graphs on [n] with each edge absent or weighted 1..weight_max."""
    require_int(0, n=n, weight_max=weight_max)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for assignment in itertools.product(range(weight_max + 1), repeat=len(pairs)):
        edges = tuple(
            (u, v, w) for (u, v), w in zip(pairs, assignment) if w > 0
        )
        yield WeightedGraph(n, edges)


def sample_weighted_graphs(
    n: int, weight_max: int, count: int, seed: int
) -> Iterator[WeightedGraph]:
    """Seeded uniform sample over the same universe as the exhaustive walk."""
    require_int(0, n=n, weight_max=weight_max, count=count, seed=seed)
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(count):
        edges = tuple(
            (u, v, w)
            for (u, v) in pairs
            if (w := rng.randint(0, weight_max)) > 0
        )
        yield WeightedGraph(n, edges)


# family -> (constructor from the edge weights, fewest edges, vertices minus edges)
_FAMILIES = {
    "star": (star_graph, 1, 1),
    "path": (path_graph, 1, 1),
    "cycle": (cycle_graph, 3, 0),
}


def family_graphs(
    family: str, n_max: int, weight_max: int
) -> Iterator[WeightedGraph]:
    """Structured star/path/cycle members with all weight assignments."""
    require_int(0, n_max=n_max, weight_max=weight_max)
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, fewest, excess = _FAMILIES[family]
    for m in range(fewest, n_max - excess + 1):
        for ws in itertools.product(range(1, weight_max + 1), repeat=m):
            yield build(ws)


def _probe(
    run: VerificationRun,
    keyed_graphs: Iterable[tuple[str, WeightedGraph]],
    kmax: int,
    box_cap: int,
    time_cap: float | None,
) -> VerificationRun:
    """Scan each graph, probe its powers, and record whether they agree.

    The graph with no edges has the zero ideal, closed without an engine
    call.  A flagged graph is decided at k = 1 by its lifted witness when
    `_refuted_by_lift` holds, and by the engine otherwise; a scan-clean
    graph always goes to the engine, up to kmax.  Only a graph that goes
    to the engine has its edge ideal built.  The record is consistent
    iff the scan is clean exactly when every probed power is closed.
    """
    for key, g in keyed_graphs:
        start = time.monotonic()
        deadline = start + time_cap if time_cap is not None else None
        witness = forbidden_pattern_scan(g)
        bad = None
        if not g.edges:
            closed_by_k = ((1, True),)
        elif witness is not None and _refuted_by_lift(g, witness):
            closed_by_k = ((1, False),)
        else:
            reports = is_normal_up_to(
                edge_ideal(g),
                kmax if witness is None else 1,
                box_cap=box_cap,
                deadline=deadline,
            )
            bad = next((r for r in reports if not r.closed), None)
            closed_by_k = tuple((r.k, r.closed) for r in reports)
        closed = all(c for _, c in closed_by_k)
        consistent = (witness is None) == closed
        run.records.append(
            GraphRecord(
                key=key,
                scan=witness,
                closed_by_k=closed_by_k,
                consistent=consistent,
                elapsed=time.monotonic() - start,
            )
        )
        if not consistent:
            run.violations.append(
                f"{key}: scan-clean but power {bad.k} not closed (witness {bad.witness})"
                if witness is None
                else f"{key}: scan found {witness.kind.value} but k=1 closed"
            )
    return run


def _refuted_by_lift(g: WeightedGraph, witness: PatternWitness) -> bool:
    """True when the lift a of `witness` proves g's edge ideal I not closed.

    It does when x^a is outside I and x^(2a) inside I^2, for then x^a is
    integral over I (Swanson-Huneke 2006, §1.4).  Both tests are exact
    divisibility on the edges, whose vectors are I's generators: x^a is
    in I iff some edge (u, v, w) has w <= a_u and w <= a_v, and x^(2a)
    is in I^2 iff two edges e and f (maybe equal), both dividing 2a,
    have f dividing 2a - vec(e).  Only the edges dividing 2a can take
    part, and they join the pattern's vertices, so the test stays small
    on a graph with many edges.  A scan the lift does not fit (vertices
    outside 1..n, a weight below 2) or whose lift leaves the 64-bit
    exponent range, and a pattern that is not induced, give False: the
    engine decides those graphs.  A weight beyond 64 bits raises the
    OverflowError that building the ideal with `edge_ideal` would.
    """
    as_exponent_vector([w for _, _, w in g.edges])  # edge_ideal's range check
    try:
        a = as_exponent_vector(lifted_witness(witness, g.n))
    except (ValueError, OverflowError):
        return False
    if any(w <= a[u - 1] and w <= a[v - 1] for u, v, w in g.edges):
        return False
    double = [2 * e for e in a]
    below = [
        (u - 1, v - 1, w) for u, v, w in g.edges if w <= double[u - 1] and w <= double[v - 1]
    ]
    for u, v, w in below:
        rest = double.copy()  # 2a - vec(e) for the edge e = (u, v, w)
        rest[u] -= w
        rest[v] -= w
        if any(x <= rest[p] and x <= rest[q] for p, q, x in below):
            return True
    return False


def check_equivalence(
    graphs: Iterable[WeightedGraph],
    *,
    descriptor: dict,
    box_cap: int = DEFAULT_BOX_CAP,
    time_cap: float | None = None,
) -> VerificationRun:
    """Scan-vs-engine agreement at k = 1 over an arbitrary graph stream."""
    return _probe(
        VerificationRun(mode="thm36", descriptor=descriptor),
        ((graph_key(g), g) for g in graphs),
        1,
        box_cap,
        time_cap,
    )


def run_equivalence_check(
    n_max: int,
    weight_max: int,
    *,
    sample: int | None = None,
    seed: int | None = None,
    box_cap: int = DEFAULT_BOX_CAP,
    time_cap: float | None = None,
) -> VerificationRun:
    """Equivalence over the exhaustive universe, or a seeded sample of it."""
    require_int(0, n_max=n_max, weight_max=weight_max)
    descriptor: dict = {"n_max": n_max, "weight_max": weight_max}
    if sample is not None:
        if seed is None:
            raise ValueError("sampled universes require a seed")
        require_int(0, sample=sample, seed=seed)
        descriptor.update({"sample": sample, "seed": seed})
        graphs: Iterable[WeightedGraph] = sample_weighted_graphs(
            n_max, weight_max, sample, seed
        )
    else:
        graphs = itertools.chain.from_iterable(
            enumerate_weighted_graphs(n, weight_max)
            for n in range(1, n_max + 1)
        )
    return _require_graphs(
        check_equivalence(
            graphs,
            descriptor=descriptor,
            box_cap=box_cap,
            time_cap=time_cap,
        )
    )


def run_normality_check(
    n_max: int,
    weight_max: int,
    kmax: int,
    *,
    families: Sequence[str] = ("star", "path", "cycle"),
    box_cap: int = DEFAULT_BOX_CAP,
    time_cap: float | None = None,
) -> VerificationRun:
    """Normality probe over structured families.

    Scan-clean members must have every power up to kmax closed, and
    scan-flagged members must fail already at k = 1.
    """
    require_int(0, n_max=n_max, weight_max=weight_max)
    require_int(1, kmax=kmax)
    run = VerificationRun(
        mode="normality",
        descriptor={
            "families": list(families),
            "n_max": n_max,
            "weight_max": weight_max,
            "kmax": kmax,
        },
    )
    keyed_graphs = (
        (f"{family}|{graph_key(g)}", g)
        for family in families
        for g in family_graphs(family, n_max, weight_max)
    )
    return _require_graphs(_probe(run, keyed_graphs, kmax, box_cap, time_cap))


def _require_graphs(run: VerificationRun) -> VerificationRun:
    """Refuse a run over an empty universe: it checked nothing."""
    if not run.records:
        raise ValueError(f"the universe {run.descriptor} has no graph to check")
    return run
