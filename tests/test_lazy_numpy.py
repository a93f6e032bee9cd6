"""numpy is loaded by the first box sweep and by nothing before it.

The certificates, the packing oracles, the covers, the pattern scan and
the CLI commands that use only those (scan, witness, cover) run without
numpy; the check runs in a fresh interpreter, since this one has
already imported it.  That interpreter also checks that `import
edgeclosure` leaves the verify harness unloaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import edgeclosure

_CHILD = """
import contextlib, io, sys

from edgeclosure import (
    PathInstance, closure_generators, edge_ideal, extract_cover,
    forbidden_pattern_scan, fractional_packing, integer_packing, path_graph,
    power_identity_certificate, scaling_membership,
)
assert "edgeclosure.verify" not in sys.modules, "import edgeclosure loaded verify"
from edgeclosure.cli import main

graph_file, cover_file = sys.argv[1:]
ideal = edge_ideal(path_graph([2, 1, 2]))
fractional_packing(ideal, (2, 2, 2, 2))
integer_packing(ideal, (2, 2, 2, 2))
power_identity_certificate(ideal, (2, 3, 2, 2), 2)
scaling_membership(ideal, (2, 3, 2, 2), 2)
extract_cover(PathInstance(3, (1, 2, 1), (1, 1)))
forbidden_pattern_scan(path_graph([2, 2]))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["scan", graph_file, "--json"]),
        main(["witness", "--pattern", "p3", "--weights", "2,3", "--json"]),
        main(["cover", cover_file, "--json"]),
    ]
assert codes == [1, 0, 0], codes
assert "numpy" not in sys.modules, "numpy loaded before any sweep"
closure_generators(ideal, 2)
assert "numpy" in sys.modules, "the sweep did not load numpy"
"""


def test_numpy_waits_for_the_first_sweep(tmp_path):
    graph_file = tmp_path / "p3.json"
    graph_file.write_text(
        json.dumps({"n": 3, "edges": [{"u": 1, "v": 2, "w": 2}, {"u": 2, "v": 3, "w": 2}]})
    )
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(json.dumps({"a": [1, 2, 1], "y": ["1", "1"]}))
    env = dict(os.environ, PYTHONPATH=str(Path(edgeclosure.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(graph_file), str(cover_file)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
