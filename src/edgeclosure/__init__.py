"""Integral closure and normality of edge ideals of edge-weighted graphs.

Library surface:

* ideals: exponent vectors, minimal generating antichains, powers,
  divisibility membership;
* graphs: weighted graphs, edge ideals, the forbidden-pattern scan
  and its standard witnesses;
* packing: exact rational LP / integer membership oracles with
  verifiable certificates;
* closure: closure generators, closedness and normality probes,
  power-identity certificates;
* covers: maximum dividing edge covers on paths;
* verify: desk-scale verification harness behind the CLI.
"""

from .closure import (
    ClosureReport,
    PowerIdentityCertificate,
    ScalingResult,
    closure_generators,
    is_integrally_closed,
    is_normal_up_to,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from .covers import PathInstance, extract_cover
from .errors import (
    DimensionMismatchError,
    EdgeClosureError,
    GraphFormatError,
    InfeasibleInstanceError,
    ResourceCapError,
    UnitIdealError,
    ZeroIdealError,
)
from .graphs import (
    PatternKind,
    PatternWitness,
    WeightedGraph,
    cycle_graph,
    edge_ideal,
    forbidden_pattern_scan,
    graph_from_jsonable,
    graph_to_jsonable,
    path_graph,
    pattern_witness,
    star_graph,
)
from .ideals import (
    ExponentVector,
    MonomialIdeal,
    divides,
    member,
    minimalize,
    power,
)
from .packing import (
    MembershipCertificate,
    dual_functionals,
    fractional_packing,
    integer_packing,
    verify_certificate,
)
from .verify import (
    VerificationRun,
    run_equivalence_check,
    run_normality_check,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureReport",
    "DimensionMismatchError",
    "EdgeClosureError",
    "ExponentVector",
    "GraphFormatError",
    "InfeasibleInstanceError",
    "MembershipCertificate",
    "MonomialIdeal",
    "PathInstance",
    "PatternKind",
    "PatternWitness",
    "PowerIdentityCertificate",
    "ResourceCapError",
    "ScalingResult",
    "UnitIdealError",
    "VerificationRun",
    "WeightedGraph",
    "ZeroIdealError",
    "closure_generators",
    "cycle_graph",
    "divides",
    "dual_functionals",
    "edge_ideal",
    "extract_cover",
    "forbidden_pattern_scan",
    "fractional_packing",
    "graph_from_jsonable",
    "graph_to_jsonable",
    "integer_packing",
    "is_integrally_closed",
    "is_normal_up_to",
    "member",
    "minimalize",
    "path_graph",
    "pattern_witness",
    "power",
    "power_identity_certificate",
    "run_equivalence_check",
    "run_normality_check",
    "scaling_membership",
    "star_graph",
    "verify_certificate",
    "verify_power_identity",
]
