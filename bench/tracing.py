"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces each traced public function with a wrapper at
every binding site: every `edgeclosure` module attribute that holds the
function, so calls between modules (`closure` calling `dual_functionals`,
`verify` calling `forbidden_pattern_scan`) are seen as well.  A layer's
self time is its span minus the spans of the traced calls made inside it.
Counts come from call counts and return values.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import edgeclosure.cli
import edgeclosure.closure
import edgeclosure.covers
import edgeclosure.graphs
import edgeclosure.ideals
import edgeclosure.packing
import edgeclosure.simplex
import edgeclosure.verify


def _box_points(result, ideal, k, *args, **kwargs):
    return {
        "closure.box_points": math.prod(
            k * max(g[j] for g in ideal.generators) + 1 for j in range(ideal.n)
        ),
        "closure.minimal_points": len(result),
    }


# (layer, defining module, function, counts derived from result and arguments)
SPANS = (
    ("graphs.scan", edgeclosure.graphs, "forbidden_pattern_scan",
     lambda r, *a, **kw: {"graphs.scan_calls": 1}),
    ("packing.dual", edgeclosure.packing, "dual_functionals",
     lambda r, *a, **kw: {"packing.dual_vertices": len(r)}),
    ("closure.sweep", edgeclosure.closure, "closure_generators", _box_points),
    ("ideals.power", edgeclosure.ideals, "power",
     lambda r, *a, **kw: {"ideals.power_generators": r.num_generators}),
    ("ideals.member", edgeclosure.ideals, "member",
     lambda r, *a, **kw: {"ideals.member_calls": 1}),
    ("packing.lp", edgeclosure.packing, "fractional_packing",
     lambda r, *a, **kw: {"packing.lp_calls": 1}),
    ("packing.ip", edgeclosure.packing, "integer_packing",
     lambda r, *a, **kw: {"packing.ip_calls": 1}),
    ("simplex.solve", edgeclosure.simplex, "simplex_maximize",
     lambda r, *a, **kw: {"simplex.solves": 1}),
    ("closure.certificate", edgeclosure.closure, "power_identity_certificate", None),
    ("closure.scaling", edgeclosure.closure, "scaling_membership", None),
    ("covers.extract", edgeclosure.covers, "extract_cover",
     lambda r, *a, **kw: {"covers.edges": len(r)}),
    ("verify.self", edgeclosure.verify, "check_equivalence", None),
    ("cli.self", edgeclosure.cli, "main", None),
)

TIME_METRICS = tuple(layer + "_s" for layer, *_ in SPANS)
COUNT_METRICS = (
    "graphs.scan_calls", "packing.dual_bases", "packing.dual_vertices",
    "closure.box_points", "closure.minimal_points", "ideals.power_generators",
    "ideals.member_calls", "packing.lp_calls", "packing.ip_calls",
    "packing.ip_lp_solves", "simplex.solves", "covers.edges",
)


class Tracer:
    """Self time per layer and work counts, accumulated while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []  # time spent in traced callees, per open span
        self._open = defaultdict(int)  # layer -> number of open spans
        self._patches = []

    def install(self):
        for layer, module, name, counts in SPANS:
            self._rebind(getattr(module, name), self._span(layer, getattr(module, name), counts))
        solve = edgeclosure.simplex.solve_integer_system_scaled
        self._rebind(solve, self._bases(solve))

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _rebind(self, original, wrapper):
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name != "edgeclosure" and not mod_name.startswith("edgeclosure."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, original))

    def _span(self, layer, fn, counts):
        metric = layer + "_s"
        children, opened, self_s, totals = self._children, self._open, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            children.append(0.0)
            opened[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                opened[layer] -= 1
                self_s[metric] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if counts is not None:
                for key, value in counts(result, *args, **kwargs).items():
                    totals[key] += value
            if layer == "simplex.solve" and opened["packing.ip"]:
                totals["packing.ip_lp_solves"] += 1
            return result

        return wrapper

    def _bases(self, fn):
        opened, totals = self._open, self.counts

        def wrapper(*args, **kwargs):
            if opened["packing.dual"]:
                totals["packing.dual_bases"] += 1
            return fn(*args, **kwargs)

        return wrapper
