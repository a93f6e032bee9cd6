"""Edge-weighted graphs, their edge ideals, and the forbidden-pattern scan.

A graph on vertices 1..n with positive integer edge weights w yields the
monomial ideal generated by (x_u x_v)^w(e) over its edges e = {u, v}.
The ideal fails to be integrally closed exactly when the graph contains
one of three induced patterns built from heavy edges (weight >= 2): a
heavy path on three vertices, a heavy pair of disjoint edges with no
connection, or a fully heavy triangle.

`WeightedGraph` alone validates a graph: it checks the edges in input
order, names the offending `edges[i]`, then stores them sorted.  It
keeps the package's refusal contract: a field that is not an int
(`type(x) is int`, so no bool, float or `Fraction`) raises TypeError,
and an out-of-range value, a loop, a reversed or duplicate edge, or an
edge that is not a (u, v, w) triple raises ValueError.  The JSON reader
checks only the JSON shape.  `to_jsonable` converts package
values to JSON.
"""
from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GraphFormatError
from .ideals import ExponentVector, MonomialIdeal, require_int

HEAVY = 2  # least non-trivial weight


class PatternKind(enum.Enum):
    """The three forbidden induced patterns, in scan priority order."""

    HEAVY_P3 = "heavy_p3"
    HEAVY_2K2 = "heavy_2k2"
    HEAVY_TRIANGLE = "heavy_triangle"


@dataclass(frozen=True)
class PatternWitness:
    """A concrete occurrence of a forbidden pattern.

    Vertex tuples are canonical: (a, b, c) with a < c for the path
    (b is the middle), (a, b, c, d) with a < b, c < d, a < c for the
    disjoint pair, and sorted for the triangle.  Weights follow the edge
    order implied by the vertex tuple.
    """

    kind: PatternKind
    vertices: tuple[int, ...]
    weights: tuple[int, ...]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple graph on vertices 1..n with positive integer edge weights.

    Each edge is a (u, v, w) triple, a tuple or a list; edges are stored
    as tuples, sorted.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        require_int(0, n=self.n)
        first_index: dict[tuple[int, int], int] = {}
        for idx, edge in enumerate(self.edges):
            if not isinstance(edge, (tuple, list)) or len(edge) != 3:
                raise ValueError(f"edges[{idx}]: must be a (u, v, w) triple, got {edge!r}")
            u, v, w = edge
            # the rule of `require_int`; messages are built only on failure
            if not (type(u) is type(v) is type(w) is int):
                field = next(f for f, x in zip("uvw", (u, v, w)) if type(x) is not int)
                raise TypeError(f"edges[{idx}]: field '{field}' must be an integer")
            if u == v:
                raise ValueError(f"edges[{idx}]: loop ({u},{v}) not allowed")
            if u > v:
                raise ValueError(f"edges[{idx}]: reversed edge ({u},{v}); vertices must satisfy u < v")
            if u < 1 or v > self.n:
                raise ValueError(f"edges[{idx}]: edge ({u},{v}) out of range for n={self.n}")
            if w < 1:
                raise ValueError(f"edges[{idx}]: weight must be >= 1, got {w}")
            if (u, v) in first_index:
                raise ValueError(
                    f"edges[{idx}]: duplicate of edges[{first_index[(u, v)]}] for pair ({u},{v})"
                )
            first_index[(u, v)] = idx
        object.__setattr__(self, "edges", tuple(sorted(map(tuple, self.edges))))

    def heavy_edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(e for e in self.edges if e[2] >= HEAVY)


def path_graph(weights: Sequence[int]) -> WeightedGraph:
    """Path 1-2-...-(len(weights)+1) with the given edge weights."""
    n = len(weights) + 1
    return WeightedGraph(n, tuple((i, i + 1, w) for i, w in enumerate(weights, 1)))


def cycle_graph(weights: Sequence[int]) -> WeightedGraph:
    """Cycle 1-2-...-n-1; weights[i] is the weight of edge {i+1, i+2}."""
    n = len(weights)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1, weights[i - 1]) for i in range(1, n)]
    edges.append((1, n, weights[-1]))
    return WeightedGraph(n, tuple(edges))


def star_graph(weights: Sequence[int]) -> WeightedGraph:
    """Star with center n = len(weights)+1; weights[i] on edge {i+1, n}."""
    n = len(weights) + 1
    return WeightedGraph(n, tuple((i, n, w) for i, w in enumerate(weights, 1)))


def edge_ideal(g: WeightedGraph) -> MonomialIdeal:
    """The ideal generated by (x_u x_v)^w over the edges of g.

    Distinct edges give incomparable exponent vectors, so the edge
    vectors are already the minimal generators.
    """
    gens = []
    for u, v, w in g.edges:
        vec = [0] * g.n
        vec[u - 1] = w
        vec[v - 1] = w
        gens.append(tuple(vec))
    return MonomialIdeal(g.n, gens)


def forbidden_pattern_scan(g: WeightedGraph) -> PatternWitness | None:
    """Find a forbidden induced pattern, or None when the graph is clean.

    Every pattern contains two heavy edges, so the scan inspects pairs
    of heavy edges plus local adjacency.  Among all occurrences it
    returns the smallest kind (path < disjoint pair < triangle), then
    the lexicographically smallest vertex tuple.  The heavy edges come
    sorted, so a pair (a, b), (c, d) taken in order has a <= c: the two
    share a vertex iff a == c, b == c or b == d, and two disjoint edges
    are already in canonical order.
    """
    heavy = g.heavy_edges()
    weight_of = {(u, v): w for u, v, w in g.edges}
    best = None  # (kind rank, vertices, weights) of the least pattern so far
    for i, (a, b, w1) in enumerate(heavy):
        for c, d, w2 in heavy[i + 1:]:
            if a == c or b == c or b == d:
                mid = a if a == c else b
                p, q = (b, d) if a == c else (a, d) if b == c else (a, c)
                third = weight_of.get((p, q))
                if third is None:
                    found = (0, (p, mid, q), (w1, w2))
                elif third >= HEAVY:
                    x, y, z = sorted((p, mid, q))
                    found = (2, (x, y, z), (weight_of[x, y], weight_of[y, z], weight_of[x, z]))
                else:
                    continue
            elif weight_of.keys().isdisjoint(((a, c), (a, d), (b, c), (c, b), (b, d), (d, b))):
                found = (1, (a, b, c, d), (w1, w2))  # a < c < d; b may lie anywhere
            else:
                continue
            if best is None or found[:2] < best[:2]:
                best = found
    if best is None:
        return None
    rank, vertices, weights = best
    return PatternWitness(tuple(PatternKind)[rank], vertices, weights)


def _witness_exponents(kind: PatternKind, weights: Sequence[int]) -> ExponentVector:
    """The exponents of `pattern_witness` on the pattern graph's vertices."""
    ws = tuple(weights)
    expected = 3 if kind is PatternKind.HEAVY_TRIANGLE else 2
    if len(ws) != expected:
        raise ValueError(f"{kind.value} needs {expected} weights, got {len(ws)}")
    if any(w < HEAVY for w in ws):
        raise ValueError(f"witness formulas require all weights >= {HEAVY}, got {ws}")
    if kind is PatternKind.HEAVY_P3:
        w1, w2 = ws
        return (w1 - 1, w1 + w2, w2 - 1)
    if kind is PatternKind.HEAVY_2K2:
        w1, w3 = ws
        return (w1 - 1, w1 - 1, w3 - 1, w3 - 1)
    w1, w2, w3 = ws
    if w1 > w2 - 1:
        return (w3 - 1, w2 - 1, w2 + w3)
    return (w1 + w3, w1 - 1, w3 - 1)


def pattern_witness(
    kind: PatternKind, weights: Sequence[int]
) -> tuple[WeightedGraph, ExponentVector]:
    """The standard non-membership witness monomial for a heavy pattern.

    Builds the pattern graph with the given heavy weights and returns it
    with the exponent vector of a monomial outside the edge ideal whose
    square lies in the ideal's square.  All weights must be >= 2.
    """
    ws = tuple(weights)
    w = _witness_exponents(kind, ws)
    if kind is PatternKind.HEAVY_P3:
        return path_graph(ws), w
    if kind is PatternKind.HEAVY_2K2:
        return WeightedGraph(4, ((1, 2, ws[0]), (3, 4, ws[1]))), w
    return cycle_graph(ws), w


def lifted_witness(witness: PatternWitness, n: int) -> ExponentVector:
    """`pattern_witness` for a scanned pattern, on its host's n vertices.

    The canonical vertex tuple of a `PatternWitness` lists the vertices
    in the order of the pattern graph's vertices 1, 2, ..., so vertex
    `witness.vertices[i]` takes the pattern witness's entry i, and every
    other vertex takes 0.  In a host where the pattern is induced, the
    lift is outside the edge ideal and its square inside the ideal's
    square, exactly as on the pattern graph.  Raises ValueError when the
    weights are not heavy, or when the vertices are not as many distinct
    vertices of 1..n as the pattern has.
    """
    local = _witness_exponents(witness.kind, witness.weights)
    vertices = witness.vertices
    if len(vertices) != len(local) or len(set(vertices)) != len(vertices) or not all(
        1 <= v <= n for v in vertices
    ):
        raise ValueError(
            f"{witness.kind.value} vertices {vertices} do not fit a graph on 1..{n}"
        )
    lifted = [0] * n
    for v, e in zip(vertices, local):
        lifted[v - 1] = e
    return tuple(lifted)


def to_jsonable(obj):
    """Recursively convert package values to JSON-safe structures."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, PatternKind):
        return obj.value
    if isinstance(obj, WeightedGraph):
        return {"n": obj.n, "edges": [{"u": u, "v": v, "w": w} for u, v, w in obj.edges]}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def graph_from_jsonable(data: object) -> WeightedGraph:
    """Read the graph JSON shape; WeightedGraph checks everything else.

    A shape error, or the constructor's TypeError or ValueError, is
    raised as a GraphFormatError naming the offending position
    `edges[i]` or the field `n`.
    """
    if not isinstance(data, dict):
        raise GraphFormatError("graph must be a JSON object")
    if "n" not in data:
        raise GraphFormatError("missing field 'n'")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    for idx, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise GraphFormatError(f"edges[{idx}]: must be an object")
        for field in ("u", "v", "w"):
            if field not in item:
                raise GraphFormatError(f"edges[{idx}]: missing field '{field}'")
        edges.append((item["u"], item["v"], item["w"]))
    try:
        return WeightedGraph(data["n"], tuple(edges))
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc)) from exc
