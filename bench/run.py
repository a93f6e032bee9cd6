"""Benchmark of the edgeclosure engine.

    python3 bench/run.py --workload thm36 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; the package is imported from
`src/`.  A run sets up (import, input generation from the seed, an
untimed warm-up over every 8th item), then repeats whole rounds over the
workload's inputs until `--seconds` have passed, reads the memory
high-water mark, and checks the outputs against `oracles.py`.  The last
line of standard output is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  `--workload all`
runs each workload in its own process and prints a table.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("thm36", "deep-powers", "certificates")
SETUP_REPEATS = 5
CHECK_SEED_SALT = 0x5EED  # picks the seeded subsets that sympy re-derives


def percentile_for(items_per_round):
    """Highest of p50/p90/p99/p99.9 with at least ten of one round's samples beyond it."""
    return max(p for p in (50, 90, 99, 99.9) if items_per_round * (100 - p) / 100 >= 10)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import edgeclosure; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_one(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        workload = cls(args.seed)
        setups.append(imported + time.perf_counter() - start)
    workload.run_round(warm_up=True)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds, traced, untraced, problems = [], [], [], []
    gc.collect()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        # a traced run alternates untraced and traced rounds, to measure overhead
        for use_trace in ((False, True) if tracer else (False,)):
            if use_trace:
                tracer.install()
            try:
                result = workload.run_round()
            finally:
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else untraced).append(result.wall)
            if rounds:
                # keep one round's outputs, so memory does not grow with the round count
                if result.outputs != rounds[0].outputs:
                    problems.append(f"round {len(rounds) + 1} outputs differ from round 1")
                result.outputs = None
            rounds.append(result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems += workload.check(rounds[0].outputs, random.Random(args.seed ^ CHECK_SEED_SALT))

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if tracer:
        n = len(traced)
        metrics = {name: {"value": tracer.self_s[name] / n, "unit": "s"} for name in tracing.TIME_METRICS}
        metrics.update({name: {"value": tracer.counts[name] / n, "unit": "count"} for name in tracing.COUNT_METRICS})
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    else:
        latencies = [t for r in rounds for t in r.latencies]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "items_per_s": {"value": sum(len(r.latencies) for r in rounds) / sum(r.wall for r in rounds),
                            "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": nearest_rank(latencies, percentile_for(len(rounds[0].latencies))) * 1e3,
                             "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of "
          f"{', '.join(f'{r.wall:.2f}' for r in rounds)} s, {attempted} operations, "
          f"{failed} failed, {len(problems)} check failures", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgeclosure" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import edgeclosure

    if Path(edgeclosure.__file__).resolve().parent != SRC / "edgeclosure":
        print(f"edgeclosure imported from {edgeclosure.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
