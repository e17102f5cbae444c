"""Command-line interface: file formats, exit codes, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stillflow import FieldGrid, Window, cli, core, single_orbit, velocity_grid
from stillflow.field import MAX_GRID_NODES
from stillflow.generators import MAX_POINTS
from stillflow.cli import (
    EXIT_COLLISION,
    EXIT_GENERATION,
    EXIT_NO_EQUILIBRIUM,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    build_parser,
    configuration_tree,
    load_configuration,
    main,
)


def write_config(path, points, strengths=None, metadata=None):
    tree = {"points": [[z.real, z.imag] for z in points]}
    if strengths is not None:
        tree["strengths"] = [[g.real, g.imag] for g in strengths]
    if metadata is not None:
        tree["metadata"] = metadata
    path.write_text(json.dumps(tree))
    return str(path)


def solved_line(tmp_path):
    cfg = tmp_path / "c.json"
    solved = tmp_path / "s.json"
    main(["generate", "--line", "--n", "3", "--out", str(cfg)])
    main(["solve", "--in", str(cfg), "--out", str(tmp_path / "r.json"),
          "--save-config", str(solved)])
    return str(solved)


def run_module(argv):
    """python -m stillflow.cli in a fresh process: (exit code, stdout, stderr)."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "stillflow.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def per_node_grid_csv(grid):
    """The field CSV formatted one node at a time: the reference layout."""
    lines = ["x,y,u,v,singular"]
    for j, y in enumerate(grid.ys):
        for i, x in enumerate(grid.xs):
            v = grid.velocity[j, i]
            flag = int(bool(grid.singular[j, i]))
            lines.append(f"{x:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g},{flag}")
    return "\n".join(lines) + "\n"


class TestConfigurationFiles:
    def test_round_trip(self, tmp_path):
        points = np.array([0j, 0.5 + 0j, 1 + 0j])
        strengths = np.array([1 + 0j, -0.5 + 0j, 1 + 0j])
        tree = configuration_tree(points, strengths, {"note": "x"})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tree))
        p2, s2, meta = load_configuration(str(path))
        assert np.array_equal(p2, points)
        assert np.array_equal(s2, strengths)
        assert meta == {"note": "x"}

    def test_missing_points_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"strengths": []}')
        with pytest.raises(ValueError):
            load_configuration(str(path))

    def test_mismatched_strengths_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points": [[0,0],[1,0]], "strengths": [[1,0]]}')
        with pytest.raises(ValueError):
            load_configuration(str(path))

    @pytest.mark.parametrize("text, command", ids=[
        "points", "strengths", "metadata", "quoted-points", "bool-point", "null-point",
        "huge-int-point", "bool-strength", "quoted-strength",
    ], argvalues=[
        ('{"points": [[{}, 1], [0, 1]]}', ["solve"]),
        ('{"points": [[0, 0], [0.5, 0], [1, 0]], "strengths": [[1, 0], [{}, 0], [1, 0]]}',
         ["verify"]),
        ('{"points": [[0, 0], [0.5, 0], [1, 0]], "metadata": 5}',
         ["solve", "--save-config", "{out}"]),
        ('{"points": [["0", "0"], ["0.5", 0], [1, 0]]}', ["spectrum"]),
        ('{"points": [[true, 0], [0.5, 0], [0, 1]]}', ["spectrum"]),
        ('{"points": [[null, 0], [0.5, 0], [1, 0]]}', ["solve"]),
        ('{"points": [[1%s, 0], [0.5, 0], [1, 0]]}' % ("0" * 400), ["spectrum"]),
        ('{"points": [[0, 0], [0.5, 0], [1, 0]], "strengths": [[1, 0], [1, false], [1, 0]]}',
         ["verify"]),
        ('{"points": [[0, 0], [0.5, 0], [1, 0]], "strengths": [[1, 0], ["-0.5", 0], [1, 0]]}',
         ["solve", "--save-config", "{out}"]),
    ])
    def test_malformed_file_exits_2_naming_it(self, tmp_path, capsys, text, command):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.json"):
            load_configuration(str(path))
        out = tmp_path / "out.json"
        args = [command[0], "--in", str(path)] + [a.format(out=out) for a in command[1:]]
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()


class TestGenerate:
    def test_line_to_stdout(self, capsys):
        assert main(["generate", "--line", "--n", "3"]) == EXIT_OK
        tree = json.loads(capsys.readouterr().out)
        assert tree["points"] == [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]
        assert tree["metadata"]["generator"] == "line"
        assert tree["metadata"]["n"] == 3

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["generate", "--plane", "--n", "7", "--seed", "11",
                         "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_points(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--plane", "--n", "7", "--seed", "1", "--out", str(a)])
        main(["generate", "--plane", "--n", "7", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_curve_metadata(self, capsys):
        assert main(["generate", "--curve", "flower", "--n", "7", "--random",
                     "--seed", "42"]) == EXIT_OK
        tree = json.loads(capsys.readouterr().out)
        assert tree["metadata"]["generator"] == "flower"
        assert tree["metadata"]["distribution"] == "random_parameter"
        assert len(tree["points"]) == 7

    def test_degenerate_placement_exits_3(self, capsys):
        # the flower passes through the origin at four parameter values
        code = main(["generate", "--curve", "flower", "--n", "8",
                     "--even", "--spacing", "parameter"])
        assert code == EXIT_GENERATION
        assert "generation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("args, err", [
        (["--circle", "--radius", "inf"], "need a positive finite radius and a finite phase,"
                                          " got inf, 0.0"),
        (["--circle", "--phase", "nan"], "need a positive finite radius and a finite phase,"
                                         " got 1.0, nan"),
        (["--curve", "flower", "--phase", "inf"], "phase must be finite, got inf"),
        (["--curve", "figure_eight", "--random", "--phase", "nan"],
         "phase must be finite, got nan"),
        (["--plane", "--bounds", "0", "inf", "0", "1"],
         "region rectangle is empty or not finite:"
         " RegionSpec(x_min=0.0, x_max=inf, y_min=0.0, y_max=1.0, seed=0)"),
    ], ids=["circle-radius", "circle-phase", "curve-phase", "random-curve-phase", "plane-bounds"])
    def test_non_finite_parameter_exits_3_with_one_line(self, capsys, args, err):
        assert main(["generate", *args, "--n", "5"]) == EXIT_GENERATION
        captured = capsys.readouterr()
        assert captured.err == f"error: generation failed: {err}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("source", [
        ["--line"], ["--circle"], ["--curve", "flower"], ["--plane"],
    ], ids=["line", "circle", "curve", "plane"])
    def test_too_many_points_exits_3_with_one_line(self, capsys, source):
        assert main(["generate", *source, "--n", "100000000000"]) == EXIT_GENERATION
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: generation failed: need n <= {MAX_POINTS}, got 100000000000\n")
        assert captured.out == ""

    def test_empty_region_exits_3(self, capsys):
        code = main(["generate", "--plane", "--n", "5",
                     "--bounds", "1", "-1", "0", "1"])
        assert code == EXIT_GENERATION
        capsys.readouterr()

    def test_missing_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--line"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSolve:
    def test_report_content(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 0.5 + 0j, 1 + 0j])
        assert main(["solve", "--in", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        g = np.array([complex(*p) for p in report["solution"]["strengths"]])
        assert np.allclose(g, [1, -0.5, 1], atol=1e-10)
        assert report["solution"]["residual"] <= 1e-12
        assert report["solution"]["nullity"] == 1
        assert report["spectrum"]["entropy"] == pytest.approx(np.log(2), abs=1e-9)
        assert report["spectrum"]["mode"] == "power"
        assert report["classification"]["per_point"] == [
            "vortex_ccw", "vortex_cw", "vortex_ccw"]
        assert report["classification"]["far_field"] == "vortex_ccw"
        assert report["classification"]["center_of_vorticity"] == \
            pytest.approx([0.5, 0.0], abs=1e-12)

    def test_circle_seven_report(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        main(["generate", "--circle", "--n", "7", "--out", str(cfg)])
        assert main(["solve", "--in", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["spectrum"]["sigma_raw"],
                           [3, 3, 2, 2, 1, 1, 0], atol=1e-9)
        assert report["classification"]["far_field"] == "null"
        assert not report["classification"]["center_defined"]
        assert report["classification"]["center_of_vorticity"] is None

    def test_linear_mode_recorded(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 0.5 + 0j, 1 + 0j])
        assert main(["solve", "--in", cfg, "--mode", "linear"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["spectrum"]["mode"] == "linear"

    def test_two_points_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 1 + 0j])
        assert main(["solve", "--in", cfg]) == EXIT_NO_EQUILIBRIUM
        capsys.readouterr()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--in", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"strengths": []}')
        assert main(["solve", "--in", str(bad)]) == EXIT_USAGE
        capsys.readouterr()

    def test_byte_deterministic_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", [0j, 0.5 + 0j, 1 + 0j])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["solve", "--in", cfg, "--out", str(r1)])
        main(["solve", "--in", cfg, "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()


class TestVerify:
    def test_solved_configuration_passes(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        solved = tmp_path / "s.json"
        main(["generate", "--line", "--n", "7", "--out", str(cfg)])
        main(["solve", "--in", str(cfg), "--out", str(tmp_path / "r.json"),
              "--save-config", str(solved)])
        assert main(["verify", "--in", str(solved)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(lines["residual"]) <= 1e-10
        assert float(lines["max_drift"]) <= 1e-8

    def test_perturbed_strengths_exit_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 0.5 + 0j, 1 + 0j],
                           strengths=[1 + 0j, -0.4 + 0j, 1 + 0j])
        assert main(["verify", "--in", cfg]) == EXIT_TOLERANCE
        capsys.readouterr()

    def test_sink_pair_exit_6(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 1 + 0j],
                           strengths=[-2j * np.pi, -2j * np.pi])
        assert main(["verify", "--in", cfg]) == EXIT_COLLISION
        assert "collision at t" in capsys.readouterr().err

    def test_missing_strengths_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 0.5 + 0j, 1 + 0j])
        assert main(["verify", "--in", cfg]) == EXIT_USAGE
        assert "needs a file with strengths" in capsys.readouterr().err


class TestField:
    def test_csv_layout(self, tmp_path):
        solved = solved_line(tmp_path)
        out = tmp_path / "g.csv"
        assert main(["field", "--in", solved, "--nx", "7", "--ny", "3",
                     "--window", "-1", "2", "-1", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,u,v,singular"
        assert len(lines) == 1 + 7 * 3
        first = lines[1].split(",")
        assert float(first[0]) == -1.0 and float(first[1]) == -1.0
        second = lines[2].split(",")
        assert float(second[0]) == -0.5 and float(second[1]) == -1.0

    def test_singular_nodes_flagged(self, tmp_path):
        solved = solved_line(tmp_path)
        out = tmp_path / "g.csv"
        main(["field", "--in", solved, "--nx", "7", "--ny", "3",
              "--window", "-1", "2", "-1", "1", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        flagged = {(float(r[0]), float(r[1])) for r in rows if r[4] == "1"}
        assert flagged == {(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)}
        for r in rows:
            if r[4] == "1":
                assert float(r[2]) == 0.0 and float(r[3]) == 0.0

    def test_lattice_over_max_nodes_exits_2_before_allocating(self, tmp_path, capsys):
        solved = solved_line(tmp_path)
        tracemalloc.start()
        try:
            code = main(["field", "--in", solved, "--nx", "100000", "--ny", "100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: need nx * ny <= {MAX_GRID_NODES}, got 100000 * 100000\n")
        assert peak < 1_000_000

    def test_ortho_rotates_field(self, tmp_path):
        solved = solved_line(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["field", "--in", solved, "--nx", "5", "--ny", "5",
                "--window", "-2", "3", "-2", "2"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--ortho", "--out", str(b)]) == EXIT_OK
        rows_a = [r.split(",") for r in a.read_text().strip().splitlines()[1:]]
        rows_b = [r.split(",") for r in b.read_text().strip().splitlines()[1:]]
        for ra, rb in zip(rows_a, rows_b):
            if ra[4] == "1":
                continue
            va = complex(float(ra[2]), float(ra[3]))
            vb = complex(float(rb[2]), float(rb[3]))
            assert abs(vb) == pytest.approx(abs(va), rel=1e-12)
            assert abs((va * vb.conjugate()).real) <= 1e-12 * max(abs(va) ** 2, 1e-30)

    def test_csv_bytes_match_per_node_formatter(self):
        # points on lattice nodes make singular rows; the odd window and
        # strengths give long, negative and tiny coordinates and velocities
        z = np.array([0j, 0.5 + 0j, 1 + 0j, 0.3 + 0.7j])
        g = np.array([1 + 0j, -0.5 + 0.25j, 1e-300 + 0j, -3j])
        for window, nx, ny in ((Window(-1, 2, -1, 1), 7, 3),
                               (Window(-1, 2, -0.7, 0.7), 101, 57)):
            grid = velocity_grid(z, g, window, nx, ny)
            assert grid.singular.any()
            assert cli._grid_csv(grid) == per_node_grid_csv(grid)
        # special values the lattice itself does not produce
        vel = np.array([[complex(-0.0, 0.0), complex(5e-324, -1e300)],
                        [complex(np.inf, -np.inf), complex(np.nan, 1 / 3)]])
        grid = FieldGrid(Window(-1, 1, -1, 1), np.array([-0.0, 1e-17]),
                         np.array([-1e-310, 0.1]), vel, np.array([[True, False], [False, True]]))
        assert cli._grid_csv(grid) == per_node_grid_csv(grid)

    def test_unsolvable_without_strengths_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", [0j, 1 + 0j])
        assert main(["field", "--in", cfg]) == EXIT_NO_EQUILIBRIUM
        capsys.readouterr()


class TestSpectrum:
    def test_table_format(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        main(["generate", "--circle", "--n", "7", "--out", str(cfg)])
        capsys.readouterr()
        assert main(["spectrum", "--in", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sigma_raw        3.0000 3.0000 2.0000 2.0000 1.0000 1.0000 0.0000"
        assert out[1] == ("sigma_normalized 0.3214 0.3214 0.1429 0.1429"
                          " 0.0357 0.0357")
        assert out[2] == "entropy          1.5236"
        assert out[3] == "spectral_gap     1.0000 raw 0.0357 normalized"


class TestOrbit:
    def test_matches_closed_form(self, capsys):
        code = main(["orbit", "--gamma", "0", "6.283185307179586", "--r0", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic r 1.732" in out

    def test_impossible_tolerance_exit_5(self, capsys):
        code = main(["orbit", "--gamma", "1", "1", "--r0", "1", "--tol", "1e-300"])
        assert code == EXIT_TOLERANCE
        capsys.readouterr()

    @pytest.mark.parametrize("numeric", ids=["both", "theta", "r"], argvalues=[
        lambda p, t: (math.nan, math.nan),
        lambda p, t: (single_orbit(p, t)[0], math.nan),
        lambda p, t: (math.nan, single_orbit(p, t)[1]),
    ])
    def test_nan_difference_exit_5(self, capsys, monkeypatch, numeric):
        monkeypatch.setattr(cli, "integrate_tracer", lambda p, t, dt: numeric(p, t))
        code = main(["orbit", "--gamma", "1", "1", "--r0", "1"])
        assert code == EXIT_TOLERANCE
        assert "max_difference nan" in capsys.readouterr().out

    def test_collapse_exit_6(self, capsys):
        code = main(["orbit", "--gamma", "0", "-6.283185307179586",
                     "--r0", "1", "--t-final", "1"])
        assert code == EXIT_COLLISION
        capsys.readouterr()


class TestOutOfRangeArguments:
    @pytest.mark.parametrize("args", [
        ["field", "--nx", "1"],
        ["field", "--window", "1", "0", "0", "1"],
        ["field", "--window", "0", "inf", "-1", "1"],
        ["field", "--window", "0", "1", "nan", "1"],
        ["solve", "--tol", "2"],
        ["verify", "--dt", "0"],
        ["orbit", "--gamma", "1", "1", "--r0", "-1"],
        ["verify", "--t-final", "nan"],
        ["verify", "--t-final", "inf"],
        ["verify", "--dt", "nan"],
        ["orbit", "--gamma", "1", "1", "--r0", "1", "--t-final", "nan"],
        ["orbit", "--gamma", "1", "1", "--r0", "1", "--dt", "nan"],
        ["orbit", "--gamma", "nan", "0", "--r0", "1"],
        ["orbit", "--gamma", "1", "0", "--r0", "1", "--theta0", "nan"],
        ["orbit", "--gamma", "1", "1", "--r0", "1", "--tol", "nan"],
        ["verify", "--drift-tol", "nan"],
        ["verify", "--residual-tol", "nan"],
        ["verify", "--drift-tol", "-1"],
        ["orbit", "--gamma", "1", "1", "--r0", "1", "--tol", "-1"],
    ])
    def test_value_error_exits_2(self, tmp_path, capsys, args):
        if args[0] != "orbit":
            args = [args[0], "--in", solved_line(tmp_path)] + args[1:]
        capsys.readouterr()
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["generate", "--line", "--n", "7", "--out"],
        ["solve", "--out"],
        ["solve", "--save-config"],
        ["field", "--nx", "5", "--ny", "5", "--out"],
    ])
    def test_missing_directory_exits_2(self, tmp_path, capsys, command):
        target = tmp_path / "missing" / "x.out"
        args = command + [str(target)]
        if args[0] != "generate":
            args = [args[0], "--in", solved_line(tmp_path)] + args[1:]
        capsys.readouterr()
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_unwritable_save_config_writes_no_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        target = tmp_path / "missing" / "x.json"
        args = ["solve", "--in", solved_line(tmp_path), "--out", str(report),
                "--save-config", str(target)]
        assert main(args) == EXIT_USAGE
        assert not report.exists()


def svd_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)


class TestExitCodeTable:
    """Every failure main maps to an exit code, with its exact stderr line."""

    NO_EQUILIBRIUM = ("error: no equilibrium: configuration of 2 points has a trivial kernel"
                      " (smallest singular value 1.000e+00 above threshold 2.000e-10)\n")
    NUMERICAL = "error: numerical failure: SVD did not converge (n=7): SVD did not converge\n"

    @pytest.mark.parametrize("argv, setup, code, err", ids=[
        "missing-file", "no-strengths", "solve-4", "field-4", "verify-6", "orbit-6",
        "solve-7", "spectrum-7",
    ], argvalues=[
        (["solve", "--in", "{dir}/absent.json"], None, EXIT_USAGE,
         "error: [Errno 2] No such file or directory: '{dir}/absent.json'\n"),
        (["verify", "--in", "{circle}"], None, EXIT_USAGE,
         "error: {circle}: verify needs a file with strengths\n"),
        (["solve", "--in", "{pair}"], None, EXIT_NO_EQUILIBRIUM, NO_EQUILIBRIUM),
        (["field", "--in", "{pair}"], None, EXIT_NO_EQUILIBRIUM, NO_EQUILIBRIUM),
        (["verify", "--in", "{sinks}"], None, EXIT_COLLISION,
         "error: collision at t = 0.249, pair (0, 1), distance 6.324e-02\n"),
        (["orbit", "--gamma", "0", "-6.283185307179586", "--r0", "1"], None, EXIT_COLLISION,
         "error: tracer reaches the sink at t = 0.5, requested t = 1\n"),
        (["solve", "--in", "{circle}"], svd_fails, EXIT_NUMERICAL, NUMERICAL),
        (["spectrum", "--in", "{circle}"], svd_fails, EXIT_NUMERICAL, NUMERICAL),
    ])
    def test_exit_code_and_stderr(self, tmp_path, capsys, monkeypatch, argv, setup, code, err):
        names = {
            "dir": str(tmp_path),
            "circle": str(tmp_path / "circle.json"),
            "pair": write_config(tmp_path / "pair.json", [0j, 1 + 0j]),
            "sinks": write_config(tmp_path / "sinks.json", [0j, 1 + 0j],
                                  strengths=[-2j * np.pi, -2j * np.pi]),
        }
        main(["generate", "--circle", "--n", "7", "--out", names["circle"]])
        if setup is not None:
            setup(monkeypatch)
        capsys.readouterr()
        assert main([a.format(**names) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.err == err.format(**names)
        assert captured.out == ""


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    def test_svd_failure_exits_7(self, tmp_path, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        cfg = tmp_path / "c.json"
        main(["generate", "--circle", "--n", "7", "--out", str(cfg)])
        monkeypatch.setattr(np.linalg, "svd", fail)
        capsys.readouterr()
        assert main([command, "--in", str(cfg)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("error: numerical failure: ")


class TestOneFactorization:
    @pytest.mark.parametrize("mode", ["power", "linear"])
    def test_solve_builds_and_factors_once(self, tmp_path, capsys, monkeypatch, mode):
        cfg = tmp_path / "c.json"
        main(["generate", "--circle", "--n", "7", "--out", str(cfg)])
        calls = {"svd": 0, "build_matrix": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        original = core.build_matrix
        for name, module in list(sys.modules.items()):
            if name.startswith("stillflow") and getattr(module, "build_matrix", None) is original:
                monkeypatch.setattr(module, "build_matrix", counted("build_matrix", original))
        capsys.readouterr()
        assert main(["solve", "--in", str(cfg), "--mode", mode,
                     "--save-config", str(tmp_path / "s.json")]) == EXIT_OK
        assert calls == {"svd": 1, "build_matrix": 1}
        report = json.loads(capsys.readouterr().out)
        assert report["spectrum"]["mode"] == mode
        assert report["spectrum"]["rank"] == 6


class TestModuleEntryPoint:
    def test_python_dash_m_writes_output(self, tmp_path):
        out = tmp_path / "m.json"
        code, _, err = run_module(["generate", "--circle", "--n", "7", "--out", str(out)])
        assert code == EXIT_OK, err
        assert len(json.loads(out.read_text())["points"]) == 7


class TestOneParserPerProcess:
    def test_main_builds_no_parser_after_the_first_call(self, capsys, monkeypatch):
        main(["generate", "--line", "--n", "3"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (["generate", "--circle", "--n", "5"],
                     ["orbit", "--gamma", "1", "0", "--r0", "1"],
                     ["generate", "--line", "--n", "3"]):
            assert main(argv) == EXIT_OK
        assert built == []
        build_parser()  # the counter does see a parser being built
        assert built

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_calls_give_the_bytes_of_a_fresh_process(self, capsys, monkeypatch):
        # The usage message wraps at the terminal width, so fix it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["generate", "--circle", "--n", "5", "--phase", "0.5"],
            ["generate", "--line", "--n", "5"],
            ["generate", "--line"],  # usage error: --n is missing
            ["generate", "--curve", "flower", "--n", "5"],
        ]
        in_process = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert in_process[2][0] == EXIT_USAGE
        assert in_process == [run_module(argv) for argv in sequence]


class TestRoundTrip:
    def test_generate_solve_verify_many_seeds(self, tmp_path, capsys):
        # the full pipeline must exit 0 for every seed; short horizon keeps it fast
        for seed in range(100):
            n = (3, 5, 7, 9)[seed % 4]
            cfg = tmp_path / f"c{seed}.json"
            solved = tmp_path / f"s{seed}.json"
            assert main(["generate", "--plane", "--n", str(n),
                         "--seed", str(seed), "--out", str(cfg)]) == EXIT_OK
            assert main(["solve", "--in", str(cfg),
                         "--out", str(tmp_path / "r.json"),
                         "--save-config", str(solved)]) == EXIT_OK
            assert main(["verify", "--in", str(solved),
                         "--t-final", "0.05"]) == EXIT_OK
            capsys.readouterr()
