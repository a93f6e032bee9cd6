import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeclosure
from edgeclosure.cli import main


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "edges": [
                    {"u": 1, "v": 2, "w": 2},
                    {"u": 2, "v": 3, "w": 2},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    edges = [
        {"u": 1, "v": 2, "w": 2},
        {"u": 2, "v": 3, "w": 1},
        {"u": 3, "v": 4, "w": 2},
        {"u": 4, "v": 5, "w": 1},
        {"u": 5, "v": 6, "w": 2},
        {"u": 1, "v": 6, "w": 1},
    ]
    path.write_text(json.dumps({"n": 6, "edges": edges}))
    return str(path)


class TestScan:
    def test_pattern_found_exits_one(self, p3_file, capsys):
        assert main(["scan", p3_file]) == 1
        out = capsys.readouterr().out
        assert "heavy_p3" in out

    def test_clean_graph_exits_zero(self, c6_file, capsys):
        assert main(["scan", c6_file]) == 0
        assert "integrally closed" in capsys.readouterr().out

    def test_json_output(self, p3_file, capsys):
        assert main(["scan", p3_file, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["pattern"]["kind"] == "heavy_p3"
        assert data["pattern"]["vertices"] == [1, 2, 3]


class TestCheck:
    def test_failing_graph_text(self, p3_file, capsys):
        assert main(["check", p3_file, "--kmax", "2"]) == 1
        out = capsys.readouterr().out
        assert "not integrally closed" in out
        assert "(1, 2, 1)" in out

    def test_failing_graph_json(self, p3_file, capsys):
        assert main(["check", p3_file, "--kmax", "2", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["reports"] == [
            {"k": 1, "closed": False, "witness": [1, 2, 1]}
        ]
        assert data["normal_up_to_kmax"] is False

    def test_clean_cycle(self, c6_file, capsys):
        assert main(["check", c6_file, "--kmax", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["closed"] for r in data["reports"]] == [True, True, True]

    def test_graph_beyond_64_vertices(self, tmp_path, capsys):
        # 63 isolated vertices must not cost an array axis each: numpy
        # caps an array at 64 axes (32 on numpy 1.x).
        path = tmp_path / "g65.json"
        path.write_text(json.dumps({"n": 65, "edges": [{"u": 1, "v": 2, "w": 2}]}))
        assert main(["check", str(path), "--kmax", "2"]) == 0
        assert "all probed powers closed" in capsys.readouterr().out
        assert main(["closure", str(path), "-k", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["generators"] == [[2, 2] + [0] * 63]


class TestClosure:
    def test_lists_generators(self, p3_file, capsys):
        assert main(["closure", p3_file, "-k", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["generators"] == [[0, 2, 2], [1, 2, 1], [2, 2, 0]]

    def test_lists_generators_as_text(self, p3_file, capsys):
        assert main(["closure", p3_file, "-k", "1"]) == 0
        assert capsys.readouterr().out == (
            "minimal generators of the closure of I^1:\n"
            "  (0, 2, 2)\n"
            "  (1, 2, 1)\n"
            "  (2, 2, 0)\n"
        )


class TestWitness:
    def test_transcript_passes(self, capsys):
        assert main(["witness", "--pattern", "p3", "--weights", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "(1, 5, 2)" in out
        assert "PASS" in out

    def test_triangle_second_branch(self, capsys):
        code = main(
            ["witness", "--pattern", "triangle", "--weights", "2,3,2", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["witness"] == [4, 1, 1]
        assert data["transcript"]["passed"] is True
        assert data["transcript"]["scaling"]["s"] == 2

    def test_trivial_weight_rejected(self, capsys):
        assert main(["witness", "--pattern", "p3", "--weights", "1,2"]) == 2

    def test_triangle_makes_two_solves(self, capsys, solve_keys):
        # The LP of w serves the transcript, the power identity, scaling's
        # default bound and the IP root at s = 1; then comes one
        # branch-and-bound child.  The root of 2w is the LP of w, rescaled.
        code = main(
            ["witness", "--pattern", "triangle", "--weights", "2,3,2", "--json"]
        )
        assert code == 0
        assert len(solve_keys) == 2
        assert len(set(solve_keys)) == 2
        edges = [{"u": 1, "v": 2, "w": 2}, {"u": 1, "v": 3, "w": 2}, {"u": 2, "v": 3, "w": 3}]
        expected = {
            "graph": {"edges": edges, "n": 3},
            "pattern": "heavy_triangle",
            "transcript": {
                "certificate": {"multiplicities": [0, 1, 1], "scale": 2, "slack": [4, 0, 0]},
                "certificate_verified": True,
                "lp_value": "1",
                "member_of_ideal": False,
                "passed": True,
                "scaling": {"member": True, "s": 2},
            },
            "witness": [4, 1, 1],
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestCover:
    def test_extracts_cover(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"a": [1, 2, 1], "y": ["1", "1"]}))
        assert main(["cover", str(inst), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["edges"] == [[1, 2], [2, 3]]
        assert data["size"] == 2

    def test_extracts_cover_as_text(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"a": [1, 2, 1], "y": ["1", "1"]}))
        assert main(["cover", str(inst)]) == 0
        assert capsys.readouterr().out == "target size: 2\ncover size:  2\nedges: (1,2) (2,3)\n"

    def test_fractional_values(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"a": [1, 4, 1], "y": ["1/2", "1/2"]}))
        assert main(["cover", str(inst), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["target_size"] == 1
        assert data["size"] >= 1

    def test_infeasible_instance_is_input_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps({"a": [2, 1, 3, 1, 2], "y": [1, 0, 1, 1]})
        )
        assert main(["cover", str(inst)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "instance",
        [{"a": [1, 2, 1], "y": ["1/0", "0"]}, {"a": [1, 2, 1], "y": 5}],
        ids=["zero-denominator", "y-not-a-list"],
    )
    def test_malformed_y_is_input_error(self, tmp_path, capsys, instance):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(instance))
        assert main(["cover", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err

    def test_cover_over_size_cap_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(edgeclosure.covers, "MAX_COVER_EDGES", 5)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"a": [3, 6, 3], "y": [3, 3]}))
        assert main(["cover", str(inst), "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource cap exceeded:")

    def test_boolean_in_a_is_input_error(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"a": [True, 2, 1], "y": ["1", "1"]}))
        assert main(["cover", str(inst), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err


class TestVerify:
    def test_thm36_small(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "--mode",
                    "thm36",
                    "--n-max",
                    "3",
                    "--weight-max",
                    "2",
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_normality_requires_kmax(self, capsys):
        code = main(
            ["verify", "--mode", "normality", "--n-max", "3", "--weight-max", "2"]
        )
        assert code == 2

    def test_normality_rejects_sample_and_seed(self, capsys):
        base = ["verify", "--mode", "normality", "--n-max", "3", "--weight-max", "2"]
        for extra in (["--sample", "5"], ["--seed", "1"]):
            assert main(base + ["--kmax", "1"] + extra) == 2
            assert capsys.readouterr().err.startswith("input error:")

    def test_thm36_rejects_kmax(self, capsys):
        code = main(
            ["verify", "--mode", "thm36", "--n-max", "3", "--weight-max", "2", "--kmax", "5"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "thm36", "--n-max", "4", "--weight-max", "3"]
            + ["--sample", "-5", "--seed", "1"],
            ["--mode", "normality", "--n-max", "1", "--weight-max", "3", "--kmax", "3"],
            ["--mode", "thm36", "--n-max", "3", "--weight-max", "-1"],
        ],
        ids=["negative-sample", "no-family-member", "negative-weight-max"],
    )
    def test_empty_universe_is_input_error(self, capsys, argv):
        assert main(["verify", *argv, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")

    def test_normality_small(self, capsys):
        code = main(
            [
                "verify",
                "--mode",
                "normality",
                "--n-max",
                "4",
                "--weight-max",
                "2",
                "--kmax",
                "2",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True


class TestErrorsAndCaps:
    def test_invalid_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scan", str(bad)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_duplicate_edge_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "dup.json"
        bad.write_text(
            json.dumps(
                {
                    "n": 2,
                    "edges": [
                        {"u": 1, "v": 2, "w": 1},
                        {"u": 1, "v": 2, "w": 2},
                    ],
                }
            )
        )
        assert main(["scan", str(bad)]) == 2
        assert "edges[1]" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["scan", "/nonexistent/graph.json"]) == 2

    def test_box_cap_exits_three(self, c6_file, capsys, monkeypatch):
        monkeypatch.setenv("EDGECLOSURE_BOX_CAP", "5")
        assert main(["check", c6_file, "--kmax", "1"]) == 3
        assert "resource cap" in capsys.readouterr().err

    # A one-nanosecond cap has run out by the first deadline check.
    def test_time_cap_exits_three(self, c6_file, capsys, monkeypatch):
        monkeypatch.setenv("EDGECLOSURE_TIME_CAP_S", "1e-9")
        assert main(["check", c6_file, "--kmax", "3"]) == 3

    def test_time_cap_reaches_witness_branch_and_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("EDGECLOSURE_TIME_CAP_S", "1e-9")
        assert main(["witness", "--pattern", "p3", "--weights", "2,2"]) == 3
        assert "resource cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("EDGECLOSURE_TIME_CAP_S", "nan"),
            ("EDGECLOSURE_TIME_CAP_S", "-1"),
            ("EDGECLOSURE_TIME_CAP_S", "0"),
            ("EDGECLOSURE_TIME_CAP_S", "soon"),
            ("EDGECLOSURE_BOX_CAP", "0"),
            ("EDGECLOSURE_BOX_CAP", "-5"),
            ("EDGECLOSURE_BOX_CAP", "1e7"),
        ],
    )
    def test_cap_that_is_not_positive_is_input_error(
        self, c6_file, capsys, monkeypatch, name, value
    ):
        # A nan time cap never expires, and a cap <= 0 fails every graph.
        monkeypatch.setenv(name, value)
        assert main(["check", c6_file, "--kmax", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {name} must be a positive number")
        assert "Traceback" not in err

    def test_time_cap_holds_on_unit_k10(self, tmp_path):
        # Unit-weight K10 to k = 3 must finish or hit the 2 s cap well
        # within 15 s; the child is killed and the test fails otherwise.
        edges = [
            {"u": u, "v": v, "w": 1}
            for u in range(1, 11)
            for v in range(u + 1, 11)
        ]
        path = tmp_path / "k10.json"
        path.write_text(json.dumps({"n": 10, "edges": edges}))
        env = dict(
            os.environ,
            EDGECLOSURE_TIME_CAP_S="2",
            PYTHONPATH=str(Path(edgeclosure.__file__).parents[1]),
        )
        done = subprocess.run(
            [sys.executable, "-m", "edgeclosure.cli", "check", str(path), "--kmax", "3"],
            env=env,
            capture_output=True,
            timeout=15,
        )
        assert done.returncode in (0, 3)

    def test_failed_allocation_exits_three(self, tmp_path):
        # Under a raised box cap the sweep's grid for this 14-vertex
        # path at k = 3 would take terabytes.  The child's address space
        # is capped first, so the allocation fails the same way under
        # any overcommit setting and never touches memory.  BLAS is kept
        # to one thread, so that its start-up on a many-core host cannot
        # use up the capped address space before the sweep allocates.
        weights = [3, 3, 1] * 4 + [3]
        edges = [{"u": u, "v": u + 1, "w": w} for u, w in enumerate(weights, 1)]
        path = tmp_path / "p14.json"
        path.write_text(json.dumps({"n": 14, "edges": edges}))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from edgeclosure.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(
            os.environ,
            EDGECLOSURE_BOX_CAP=str(10**15),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=str(Path(edgeclosure.__file__).parents[1]),
        )
        done = subprocess.run(
            [sys.executable, "-c", code, "closure", str(path), "-k", "3"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("resource cap exceeded: out of memory")
        assert "Traceback" not in done.stderr

    def test_power_beyond_64_bits_exits_two(self, c6_file, capsys):
        assert main(["closure", c6_file, "-k", str(2**63 - 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err

    # A closed pipe shows on the write of a large output, and on the
    # flush of an output small enough to sit in the buffer.
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_closed_stdout_exits_141(self, p3_file, tmp_path, capsys, monkeypatch, failing):
        sink = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                if failing == "flush":
                    raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["scan", p3_file, "--json"]) == 141
            # stdout's descriptor now writes to devnull
            assert os.path.samestat(os.fstat(sink), os.stat(os.devnull))
        finally:
            os.close(sink)
        assert capsys.readouterr().err == ""

    def test_reader_closing_the_pipe_exits_141(self):
        # About 190 kB of JSON, far more than a pipe buffers, so the
        # writer is still writing when the reader leaves.
        env = dict(os.environ, PYTHONPATH=str(Path(edgeclosure.__file__).parents[1]))
        argv = ["verify", "--mode", "thm36", "--n-max", "4", "--weight-max", "2", "--json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "edgeclosure.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 141
        assert err == b""

    def test_failed_self_check_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "edgeclosure.packing._certificate_holds", lambda *args: False
        )
        assert main(["witness", "--pattern", "p3", "--weights", "2,2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error:")
        assert "Traceback" not in err


class TestDeterminism:
    def test_repeated_json_outputs_identical(self, c6_file, capsys):
        main(["check", c6_file, "--kmax", "2", "--json"])
        first = capsys.readouterr().out
        main(["check", c6_file, "--kmax", "2", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_verify_sampled_byte_stable(self, capsys):
        argv = [
            "verify",
            "--mode",
            "thm36",
            "--n-max",
            "4",
            "--weight-max",
            "2",
            "--sample",
            "20",
            "--seed",
            "3",
            "--json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command", ["cover", "check"])
    def test_streamed_json_matches_one_string(self, tmp_path, c6_file, capsys, monkeypatch, command):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"a": [3, 5, 4, 2, 6], "y": ["1/2", 1, 1, 1]}))
        argv = {
            "cover": ["cover", str(inst), "--json"],
            "check": ["check", c6_file, "--kmax", "2", "--json"],
        }[command]
        payloads = []
        emit = edgeclosure.cli._emit_json

        def spy(payload):
            payloads.append(payload)
            emit(payload)

        monkeypatch.setattr(edgeclosure.cli, "_emit_json", spy)
        main(argv)
        (payload,) = payloads
        expected = json.dumps(
            edgeclosure.graphs.to_jsonable(payload), indent=2, sort_keys=True
        )
        assert capsys.readouterr().out == expected + "\n"
