"""Command-line interface.

Subcommands: scan, check, closure, witness, cover, verify.  Every
subcommand accepts --json for machine-readable output; the default is
aligned text.  Exit codes: 0 all checks passed, 1 mathematical
violation found, 2 input error, 3 resource cap exceeded, 4 internal
error (a certificate failed its own self-check, or any other unexpected
exception: a bug, not a verdict), 141 standard output
closed by its reader before the output was written (128 + SIGPIPE, as a
shell reports a command that `| head` cut short).

Resource caps come from the environment: EDGECLOSURE_BOX_CAP bounds the
lattice box volume per closure computation (default 10_000_000 points)
and EDGECLOSURE_TIME_CAP_S bounds wall-clock time per graph (default
30 seconds); a cap that is not a positive number is an input error.
cover refuses a cover of more than MAX_COVER_EDGES (1_000_000) edges,
a fixed constant, with exit 3.  A computation that runs out of memory,
such as a sweep under a raised box cap, also exits 3.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from itertools import islice

from .closure import (
    DEFAULT_BOX_CAP,
    closure_generators,
    is_normal_up_to,
    power_identity_certificate,
    scaling_membership,
    verify_power_identity,
)
from .covers import MAX_COVER_EDGES, PathInstance, extract_cover
from .errors import EdgeClosureError, GraphFormatError, ResourceCapError
from .graphs import (
    PatternKind,
    WeightedGraph,
    edge_ideal,
    forbidden_pattern_scan,
    graph_from_jsonable,
    pattern_witness,
    to_jsonable,
)
from .ideals import member
from .packing import fractional_packing
from .verify import run_equivalence_check, run_normality_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

DEFAULT_TIME_CAP_S = 30.0

_PATTERN_NAMES = {
    "p3": PatternKind.HEAVY_P3,
    "2k2": PatternKind.HEAVY_2K2,
    "triangle": PatternKind.HEAVY_TRIANGLE,
}


def _positive_env(name: str, parse, default):
    """A cap from the environment; one that is not a positive number is an input error."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = parse(raw)
        if value > 0:  # false for nan
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} must be a positive number, got {raw!r}")


def _box_cap() -> int:
    return _positive_env("EDGECLOSURE_BOX_CAP", int, DEFAULT_BOX_CAP)


def _time_cap() -> float:
    return _positive_env("EDGECLOSURE_TIME_CAP_S", float, DEFAULT_TIME_CAP_S)


def _deadline() -> float:
    return time.monotonic() + _time_cap()


def _emit_json(payload) -> None:
    # Streamed in blocks of encoder chunks, so a large payload (a cover
    # at the edge cap) is never held as one string; joining a block
    # first saves a write call per chunk.  Package values are converted
    # as the encoder meets them, so a payload that is already plain JSON
    # (a verify run) is not walked twice.
    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=to_jsonable).iterencode(payload)
    while block := "".join(islice(chunks, 1 << 14)):
        sys.stdout.write(block)
    sys.stdout.write("\n")


def _load_json(path: str):
    """Parse the JSON in a file, or in stdin for `-`."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise GraphFormatError(f"{path}: JSON nested too deeply") from exc


def _load_graph(path: str) -> WeightedGraph:
    return graph_from_jsonable(_load_json(path))


def _cmd_scan(args) -> int:
    g = _load_graph(args.graph)
    witness = forbidden_pattern_scan(g)
    if args.json:
        _emit_json({"graph": g, "pattern": witness})
    elif witness is None:
        print("no forbidden pattern: edge ideal is integrally closed")
    else:
        print(f"pattern: {witness.kind.value}")
        print(f"vertices: {', '.join(map(str, witness.vertices))}")
        print(f"weights: {', '.join(map(str, witness.weights))}")
    return EXIT_OK if witness is None else EXIT_VIOLATION


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    if not g.edges:
        raise GraphFormatError("graph has no edges: the zero ideal has no powers to probe")
    reports = is_normal_up_to(
        edge_ideal(g), args.kmax, box_cap=_box_cap(), deadline=_deadline()
    )
    all_closed = all(r.closed for r in reports)
    if args.json:
        _emit_json(
            {
                "graph": g,
                "kmax": args.kmax,
                "reports": [
                    {"k": r.k, "closed": r.closed, "witness": r.witness}
                    for r in reports
                ],
                "normal_up_to_kmax": all_closed,
            }
        )
    else:
        print(f"{'k':>3}  {'closed':<6}  witness")
        for r in reports:
            wtxt = "-" if r.witness is None else str(r.witness)
            print(f"{r.k:>3}  {str(r.closed).lower():<6}  {wtxt}")
        verdict = "all probed powers closed" if all_closed else "not integrally closed"
        print(f"result: {verdict} (k <= {reports[-1].k})")
    return EXIT_OK if all_closed else EXIT_VIOLATION


def _cmd_closure(args) -> int:
    g = _load_graph(args.graph)
    if not g.edges:
        raise GraphFormatError("graph has no edges: the zero ideal has no closure generators")
    gens = closure_generators(
        edge_ideal(g), args.k, box_cap=_box_cap(), deadline=_deadline()
    )
    if args.json:
        _emit_json({"graph": g, "k": args.k, "generators": gens})
    else:
        print(f"minimal generators of the closure of I^{args.k}:")
        for v in gens:
            print("  (" + ", ".join(map(str, v)) + ")")
    return EXIT_OK


def _cmd_witness(args) -> int:
    kind = _PATTERN_NAMES[args.pattern]
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError as exc:
        raise GraphFormatError(f"invalid weights {args.weights!r}") from exc
    graph, w = pattern_witness(kind, weights)
    ideal = edge_ideal(graph)
    in_ideal = member(ideal, w)
    lp = fractional_packing(ideal, w)
    cert = power_identity_certificate(ideal, w, 1)
    scaling = scaling_membership(ideal, w, 1, deadline=_deadline())
    cert_ok = verify_power_identity(ideal, w, 1, cert)
    transcript_ok = (not in_ideal) and lp.value >= 1 and scaling.member and cert_ok
    if args.json:
        _emit_json(
            {
                "pattern": kind,
                "graph": graph,
                "witness": w,
                "transcript": {
                    "member_of_ideal": in_ideal,
                    "lp_value": lp.value,
                    "scaling": scaling,
                    "certificate": cert,
                    "certificate_verified": cert_ok,
                    "passed": transcript_ok,
                },
            }
        )
    else:
        print(f"pattern graph: {json.dumps(to_jsonable(graph))}")
        print(f"witness exponent vector: {w}")
        print(f"member of edge ideal: {in_ideal}")
        print(f"fractional packing value: {lp.value}")
        print(f"scaling membership: s = {scaling.s} ({'yes' if scaling.member else 'no'})")
        print(
            f"power identity: scale {cert.scale}, multiplicities {cert.multiplicities}, "
            f"slack {cert.slack}, verified {cert_ok}"
        )
        print(f"transcript: {'PASS' if transcript_ok else 'FAIL'}")
    return EXIT_OK if transcript_ok else EXIT_VIOLATION


def _parse_fraction(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"invalid fraction {value!r}") from exc
    raise GraphFormatError(f"edge values must be integers or 'p/q' strings, got {value!r}")


def _cmd_cover(args) -> int:
    data = _load_json(args.instance)
    if not isinstance(data, dict) or "a" not in data or "y" not in data:
        raise GraphFormatError("cover instance needs fields 'a' and 'y'")
    a = data["a"]
    if not isinstance(a, list):
        raise GraphFormatError("'a' must be a list of integers")
    if not isinstance(data["y"], list):
        raise GraphFormatError("'y' must be a list of integers or 'p/q' strings")
    y = [_parse_fraction(v) for v in data["y"]]
    try:
        inst = PathInstance(len(a), tuple(a), tuple(y))
    except TypeError as exc:  # a bool, float or non-number in `a`
        raise GraphFormatError(str(exc)) from exc
    edges = extract_cover(inst)
    if args.json:
        _emit_json(
            {
                "a": inst.a,
                "y": inst.y,
                "target_size": inst.target_size(),
                "edges": edges,
                "size": len(edges),
            }
        )
    else:
        print(f"target size: {inst.target_size()}")
        print(f"cover size:  {len(edges)}")
        print("edges: " + " ".join(f"({u},{v})" for u, v in edges))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.mode == "thm36":
        if args.kmax is not None:
            raise GraphFormatError("--kmax applies to mode normality only")
        run = run_equivalence_check(
            args.n_max,
            args.weight_max,
            sample=args.sample,
            seed=args.seed,
            box_cap=_box_cap(),
            time_cap=_time_cap(),
        )
    else:
        if args.kmax is None:
            raise GraphFormatError("--kmax is required for mode normality")
        if args.sample is not None or args.seed is not None:
            raise GraphFormatError("--sample and --seed apply to mode thm36 only")
        run = run_normality_check(
            args.n_max,
            args.weight_max,
            args.kmax,
            box_cap=_box_cap(),
            time_cap=_time_cap(),
        )
    if args.json:
        _emit_json(run.to_jsonable())
    else:
        print(f"mode: {run.mode}")
        print(f"graphs checked: {run.graph_count}")
        print(f"violations: {len(run.violations)}")
        for v in run.violations[:20]:
            print(f"  {v}")
        print("result: " + ("PASS" if run.passed else "FAIL"))
    return EXIT_OK if run.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeclosure",
        description=(
            "Integral closure and normality checks for edge ideals of "
            "edge-weighted graphs."
        ),
        epilog=(
            "Exit codes: 0 ok, 1 violation found, 2 input error, 3 resource cap, "
            "4 internal error, 141 standard output closed early. "
            f"Caps: EDGECLOSURE_BOX_CAP (default {DEFAULT_BOX_CAP} lattice points), "
            f"EDGECLOSURE_TIME_CAP_S (default {DEFAULT_TIME_CAP_S}s per graph)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("scan", help="scan a graph for the three forbidden heavy patterns")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    add_json(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("check", help="probe integral closedness of I^k for k = 1..kmax")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--kmax", type=int, required=True, help="largest power to probe")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("closure", help="list minimal generators of the closure of I^k")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("-k", type=int, required=True, help="power of the ideal")
    add_json(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("witness", help="emit a pattern's standard witness with a verification transcript")
    p.add_argument("--pattern", choices=sorted(_PATTERN_NAMES), required=True)
    p.add_argument("--weights", required=True, help="comma-separated heavy weights, all >= 2")
    add_json(p)
    p.set_defaults(func=_cmd_witness)

    cover_help = (
        "extract a maximum dividing edge multiset from a path instance; "
        f"a cover of more than {MAX_COVER_EDGES} edges is refused (exit 3)"
    )
    p = sub.add_parser("cover", help=cover_help, description=cover_help)
    p.add_argument("instance", help="instance JSON file {'a': [...], 'y': [...]}, or - for stdin")
    add_json(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("verify", help="run a desk-scale verification suite")
    p.add_argument("--mode", choices=("thm36", "normality"), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--weight-max", type=int, required=True)
    p.add_argument("--kmax", type=int, help="largest power (mode normality)")
    p.add_argument("--seed", type=int, help="seed for sampled universes (mode thm36)")
    p.add_argument("--sample", type=int, help="sample size instead of exhaustive enumeration (mode thm36)")
    add_json(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here so that a closed stdout is reported below, not by
        # the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  With stdout on devnull, the output still
        # buffered and the flush at exit go nowhere instead of raising.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"resource cap exceeded: out of memory: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (EdgeClosureError, ValueError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a failed self-check, or any other bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
