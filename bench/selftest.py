"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one round of each workload, confirms that its checks pass, then
tampers with one output at a time and confirms that the matching check
fails.  Exits 1 if a check passes wrong output or fails right output.
"""
from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import workloads  # noqa: E402

SEED = 7


def replaced(seq, i, value):
    return seq[:i] + type(seq)([value]) + seq[i + 1:]


def first(outputs, pred):
    return next(i for i, out in enumerate(outputs) if pred(out))


def thm36_tampers(w, out):
    clean = first(out[:-1], lambda o: o[1] is None)
    key, scan, _, consistent = out[clean]
    yield "flip one closedness verdict", replaced(out, clean, (key, scan, ((1, False),), consistent))
    flagged = first(out[:-1], lambda o: o[1] is not None)
    key, _, closed_by_k, consistent = out[flagged]
    yield "drop one scan witness", replaced(out, flagged, (key, None, closed_by_k, consistent))
    yield "drop one record", out[:clean] + out[clean + 1:]


def deep_powers_tampers(w, out):
    k6 = w.order.index(len(w.probes) - 1)
    reports = out[k6]
    k, closed, witness, gens = reports[3]
    yield "drop one closure generator of K6^4", replaced(
        out, k6, replaced(reports, 3, (k, closed, witness, gens[:-1])))
    showcase = w.order.index(len(w.probes))
    code, text = out[showcase]
    data = json.loads(text)
    data["reports"][-1]["closed"] = False
    yield "flip the showcase's k = 5 verdict", replaced(out, showcase, (code, json.dumps(data)))
    fault = w.order.index(len(w.probes) + 1)
    yield "report exit 0 for k = 2**63-1", replaced(out, fault, (0, ""))


def certificates_tampers(w, out):
    nq = len(w.queries)
    i = first(out[:nq], lambda o: o[0] >= 2)
    lp, lp_y, ip, ip_y, certs, scaling = out[i]
    yield "perturb one LP value", replaced(out, i, (lp + Fraction(1, 7), lp_y, ip, ip_y, certs, scaling))
    yield "perturb one IP value", replaced(out, i, (lp, lp_y, ip - 1, ip_y, certs, scaling))
    k, scale, mults, slack = certs[0]
    yield "break one power identity", replaced(
        out, i, (lp, lp_y, ip, ip_y, replaced(certs, 0, (k, scale, mults, replaced(slack, 0, slack[0] + 1))), scaling))
    k, member, s = scaling
    yield "flip one scaling answer", replaced(out, i, (lp, lp_y, ip, ip_y, certs, (k, not member, s)))
    j = nq + first(range(len(w.paths)), lambda t: 0 < len(out[nq + t]) == math.ceil(sum(w.paths[t][2])))
    yield "drop one cover edge", replaced(out, j, out[j][1:])
    yield "add one non-path edge to a cover", replaced(out, j, out[j] + ((1, 3),))


def lp_value_tamper(w, out):
    """An LP value lowered together with its packing keeps the packing feasible."""
    nq = len(w.queries)
    i = first(out[:nq], lambda o: o[0] >= 1 and any(o[1]))
    lp, lp_y, ip, ip_y, certs, scaling = out[i]
    j = next(t for t, v in enumerate(lp_y) if v)
    shrunk = replaced(lp_y, j, lp_y[j] / 2)
    w.LP_CHECKS = nq  # let the sympy check see every query
    yield "lower one LP optimum with a feasible packing", replaced(
        out, i, (lp - lp_y[j] / 2, shrunk, ip, ip_y, certs, scaling)), "sympy"


TAMPERS = {
    "thm36": [thm36_tampers],
    "deep-powers": [deep_powers_tampers],
    "certificates": [certificates_tampers, lp_value_tamper],
}


def main():
    ok = True
    for name, tamper_sets in TAMPERS.items():
        w = workloads.WORKLOADS[name](SEED)
        out = w.run_round().outputs
        problems = w.check(out, random.Random(SEED))
        print(f"[{'PASS' if not problems else 'FAIL'}] {name}: untouched outputs pass")
        ok &= not problems
        for tampers in tamper_sets:
            for label, bad, *marker in tampers(w, out):
                found = w.check(bad, random.Random(SEED))
                caught = any(marker[0] in p for p in found) if marker else bool(found)
                print(f"[{'PASS' if caught else 'FAIL'}] {name}: {label} is caught")
                ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
