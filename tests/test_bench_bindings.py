"""The benchmark must still find every function it binds and build its inputs.

`bench/tracing.py` wraps library functions by name, so renaming or
deleting one of them breaks the benchmark; `bench/workloads.py` builds
graphs and path instances through the library's constructors, so a
stricter validator can reject them.  One full round of each workload
must pass the benchmark's own output checks, and a `certificates`
warm-up round must solve no packing LP twice within one operation.
The modules are loaded from their files: putting `bench/` on sys.path
would let `bench/oracles.py` shadow `tests/oracles.py`.
"""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import edgeclosure.closure
import edgeclosure.packing

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load("bench_tracing", "tracing.py").Tracer()
    original = edgeclosure.packing.dual_functionals
    tracer.install()
    try:
        assert edgeclosure.closure.dual_functionals is not original
        assert edgeclosure.packing.dual_functionals is not original
    finally:
        tracer.uninstall()
    assert edgeclosure.closure.dual_functionals is original
    assert edgeclosure.packing.dual_functionals is original


@pytest.fixture
def workloads(monkeypatch):
    # workloads imports its oracles as `oracles`; monkeypatch puts the
    # tests' module of that name back afterwards.
    monkeypatch.setitem(sys.modules, "oracles", _load("bench_oracles", "oracles.py"))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_workloads_build_and_warm_up(workloads, monkeypatch):
    # DeepPowers sets the box cap; setting it first makes monkeypatch restore it.
    monkeypatch.setenv("EDGECLOSURE_BOX_CAP", str(edgeclosure.closure.DEFAULT_BOX_CAP))
    for name, cls in workloads.WORKLOADS.items():
        warm_up = cls(1).run_round(warm_up=True)
        assert warm_up.attempted > 0, name
        assert warm_up.failed == 0, name


@pytest.mark.parametrize("name", ["thm36", "deep-powers", "certificates"])
def test_full_round_passes_the_benchmark_checks(workloads, monkeypatch, name):
    # DeepPowers sets the box cap; setting it first makes monkeypatch restore it.
    monkeypatch.setenv("EDGECLOSURE_BOX_CAP", str(edgeclosure.closure.DEFAULT_BOX_CAP))
    salt = _load("bench_run", "run.py").CHECK_SEED_SALT
    workload = workloads.WORKLOADS[name](1)
    result = workload.run_round()
    assert result.failed == 0
    assert result.attempted > 0
    assert workload.check(result.outputs, random.Random(1 ^ salt)) == []


def test_certificates_solve_each_program_once_per_operation(workloads, solve_keys):
    starts = []  # where each operation's solves begin in solve_keys

    def opening(op):
        def wrapped():
            starts.append(len(solve_keys))
            return op()
        return wrapped

    certificates = workloads.WORKLOADS["certificates"](1)
    certificates.ops = [opening(op) for op in certificates.ops]
    warm_up = certificates.run_round(warm_up=True)
    assert warm_up.failed == 0
    assert solve_keys
    ends = starts[1:] + [len(solve_keys)]
    repeated = [
        i for i, (lo, hi) in enumerate(zip(starts, ends))
        if len(set(solve_keys[lo:hi])) != hi - lo
    ]
    assert not repeated, f"{len(repeated)} operations solve an LP twice"
