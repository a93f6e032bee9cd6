"""Desk-scale verification harness for the closedness characterization.

Two run modes:

* equivalence: over a universe of labeled weighted graphs, check that
  the pattern scan reports nothing exactly when the edge ideal is
  integrally closed (k = 1);
* normality: over structured star/path/cycle families, check that every
  scan-clean member has all probed powers closed, and that every
  scan-flagged member already fails at k = 1.

Runs collect one record per graph and a list of violations; any
violation flips the run's `passed` flag.  Serialized runs omit wall
times so identical inputs yield byte-identical JSON.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .closure import DEFAULT_BOX_CAP, is_integrally_closed, is_normal_up_to
from .graphs import (
    PatternWitness,
    WeightedGraph,
    cycle_graph,
    edge_ideal,
    forbidden_pattern_scan,
    path_graph,
    star_graph,
)


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
                {
                    "key": r.key,
                    "scan": None
                    if r.scan is None
                    else {
                        "kind": r.scan.kind.value,
                        "vertices": list(r.scan.vertices),
                        "weights": list(r.scan.weights),
                    },
                    "closed_by_k": [[k, c] for k, c in r.closed_by_k],
                    "consistent": r.consistent,
                }
                for r in self.records
            ],
        }


def graph_key(g: WeightedGraph) -> str:
    edge_part = ",".join(f"{u}-{v}:{w}" for u, v, w in g.edges)
    return f"n{g.n}|{edge_part}" if edge_part else f"n{g.n}|"


def enumerate_weighted_graphs(n: int, weight_max: int) -> Iterator[WeightedGraph]:
    """All labeled graphs on [n] with each edge absent or weighted 1..weight_max."""
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
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(count):
        edges = tuple(
            (u, v, w)
            for (u, v) in pairs
            if (w := rng.randint(0, weight_max)) > 0
        )
        yield WeightedGraph(n, edges)


def family_graphs(
    family: str, n_max: int, weight_max: int
) -> Iterator[WeightedGraph]:
    """Structured star/path/cycle members with all weight assignments."""
    weights_of = lambda count: itertools.product(
        range(1, weight_max + 1), repeat=count
    )
    if family == "star":
        for n in range(2, n_max + 1):
            for ws in weights_of(n - 1):
                yield star_graph(ws)
    elif family == "path":
        for n in range(2, n_max + 1):
            for ws in weights_of(n - 1):
                yield path_graph(ws)
    elif family == "cycle":
        for n in range(3, n_max + 1):
            for ws in weights_of(n):
                yield cycle_graph(ws)
    else:
        raise ValueError(f"unknown family {family!r}")


def check_equivalence(
    graphs: Iterable[WeightedGraph],
    *,
    descriptor: dict,
    box_cap: int = DEFAULT_BOX_CAP,
    time_cap: float | None = None,
) -> VerificationRun:
    """Scan-vs-engine agreement at k = 1 over an arbitrary graph stream."""
    run = VerificationRun(mode="thm36", descriptor=descriptor)
    for g in graphs:
        start = time.monotonic()
        deadline = start + time_cap if time_cap is not None else None
        witness = forbidden_pattern_scan(g)
        if g.edges:
            report = is_integrally_closed(
                edge_ideal(g), 1, box_cap=box_cap, deadline=deadline
            )
            closed = report.closed
        else:
            closed = True  # zero ideal: trivially closed, engine not applicable
        consistent = (witness is None) == closed
        key = graph_key(g)
        run.records.append(
            GraphRecord(
                key=key,
                scan=witness,
                closed_by_k=((1, closed),),
                consistent=consistent,
                elapsed=time.monotonic() - start,
            )
        )
        if not consistent:
            run.violations.append(
                f"{key}: scan={'none' if witness is None else witness.kind.value} "
                f"but closed={closed}"
            )
    return run


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
    descriptor: dict = {"n_max": n_max, "weight_max": weight_max}
    if sample is not None:
        if seed is None:
            raise ValueError("sampled universes require a seed")
        descriptor.update({"sample": sample, "seed": seed})
        graphs: Iterable[WeightedGraph] = sample_weighted_graphs(
            n_max, weight_max, sample, seed
        )
    else:
        graphs = itertools.chain.from_iterable(
            enumerate_weighted_graphs(n, weight_max)
            for n in range(1, n_max + 1)
        )
    return check_equivalence(
        graphs,
        descriptor=descriptor,
        box_cap=box_cap,
        time_cap=time_cap,
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
    run = VerificationRun(
        mode="normality",
        descriptor={
            "families": list(families),
            "n_max": n_max,
            "weight_max": weight_max,
            "kmax": kmax,
        },
    )
    for family in families:
        for g in family_graphs(family, n_max, weight_max):
            start = time.monotonic()
            deadline = start + time_cap if time_cap is not None else None
            witness = forbidden_pattern_scan(g)
            key = f"{family}|{graph_key(g)}"
            ideal = edge_ideal(g)
            if witness is None:
                reports = is_normal_up_to(
                    ideal, kmax, box_cap=box_cap, deadline=deadline
                )
                closed_by_k = tuple((r.k, r.closed) for r in reports)
                consistent = all(r.closed for r in reports)
                if not consistent:
                    bad = next(r for r in reports if not r.closed)
                    run.violations.append(
                        f"{key}: scan-clean but power {bad.k} not closed "
                        f"(witness {bad.witness})"
                    )
            else:
                report = is_integrally_closed(
                    ideal, 1, box_cap=box_cap, deadline=deadline
                )
                closed_by_k = ((1, report.closed),)
                consistent = not report.closed
                if not consistent:
                    run.violations.append(
                        f"{key}: scan found {witness.kind.value} but k=1 closed"
                    )
            run.records.append(
                GraphRecord(
                    key=key,
                    scan=witness,
                    closed_by_k=closed_by_k,
                    consistent=consistent,
                    elapsed=time.monotonic() - start,
                )
            )
    return run
