"""Integral closure and normality of edge ideals of edge-weighted graphs.

The top level holds the names that a library caller needs to build a
graph or an ideal, scan it, probe its powers and ask the packing
oracles for certificates.  Everything else stays in its module:

* ideals: exponent vectors, `MonomialIdeal`, powers, divisibility
  membership;
* graphs: weighted graphs, edge ideals, the forbidden-pattern scan,
  its standard witnesses and the JSON reader and converter;
* packing: exact rational LP / integer membership oracles with
  verifiable certificates;
* closure: closure generators, closedness and normality probes,
  power-identity certificates, scaling membership;
* covers: maximum dividing edge covers on paths;
* errors: the exception classes;
* verify: the verification harness behind the CLI's `verify`, not
  imported by `import edgeclosure`.
"""

from .closure import (
    closure_generators,
    is_normal_up_to,
    power_identity_certificate,
    scaling_membership,
)
from .covers import PathInstance, extract_cover
from .graphs import WeightedGraph, cycle_graph, edge_ideal, forbidden_pattern_scan, path_graph
from .ideals import MonomialIdeal
from .packing import fractional_packing, integer_packing

__version__ = "0.1.0"

__all__ = [
    "MonomialIdeal",
    "PathInstance",
    "WeightedGraph",
    "closure_generators",
    "cycle_graph",
    "edge_ideal",
    "extract_cover",
    "forbidden_pattern_scan",
    "fractional_packing",
    "integer_packing",
    "is_normal_up_to",
    "path_graph",
    "power_identity_certificate",
    "scaling_membership",
]
