"""The benchmark's tracer must still find every function it binds.

`bench/tracing.py` wraps library functions by name, so renaming or
deleting one of them breaks the benchmark.  The module is loaded from
its file: putting `bench/` on sys.path would let `bench/oracles.py`
shadow `tests/oracles.py`.
"""
import importlib.util
from pathlib import Path

import edgeclosure.closure
import edgeclosure.packing


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracing().Tracer()
    original = edgeclosure.packing.dual_functionals
    tracer.install()
    try:
        assert edgeclosure.closure.dual_functionals is not original
        assert edgeclosure.packing.dual_functionals is not original
    finally:
        tracer.uninstall()
    assert edgeclosure.closure.dual_functionals is original
    assert edgeclosure.packing.dual_functionals is original
