"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q

They run each workload end to end, check that the result line names every
metric BENCHMARK.json lists, and show that each correctness check rejects a
corrupted output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks as ck  # noqa: E402
import stillflow as sf  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny_and_names_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["blas_threads"] in (1, None)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_clock_sees_a_slowdown_in_the_callers_process():
    """A profile hook slows the program's calls and not the kernel, which
    runs in its own process; leaving the clock stops that process."""
    import refspeed

    def work():
        def square(i):
            return i * i

        return sum(square(i) for i in range(3000))

    with refspeed.ReferenceClock() as clock:
        plain = min(clock.time(work, refspeed.INTERP)[2] for _ in range(5))
        sys.setprofile(lambda *args: None)
        try:
            hooked = min(clock.time(work, refspeed.INTERP)[2] for _ in range(5))
        finally:
            sys.setprofile(None)
        server = clock._proc
    assert hooked > 1.5 * plain
    assert server.returncode is not None


def test_same_seed_same_inputs():
    acc = ck.Accuracy()
    a = workloads.Sweep(sf, 5, acc, tiny=True)
    b = workloads.Sweep(sf, 5, acc, tiny=True)
    c = workloads.Sweep(sf, 6, acc, tiny=True)
    za = [x[1].positions for x in a.configs]
    assert all(np.array_equal(p, q) for p, q in zip(za, [x[1].positions for x in b.configs]))
    assert not all(np.array_equal(p, q) for p, q in zip(za, [x[1].positions for x in c.configs]))


# -- each check rejects a corrupted result -------------------------------------


def rejects(fn, *args):
    with pytest.raises(ck.CheckFailure):
        fn(*args)


@pytest.fixture
def odd_config():
    pts = sf.generate_circle(7, "random", seed=4)
    sol = sf.solve_strengths(pts)
    rep = sf.spectral_report(sf.build_matrix(pts))
    return np.array(pts.positions), sol, rep


def test_kernel_check_rejects_perturbed_strengths(odd_config):
    z, sol, _ = odd_config
    gamma = np.array(sol.strengths.values)
    ck.check_kernel(z, gamma, sol.nullity, ck.Accuracy())
    bad = gamma.copy()
    bad[2] *= 1.0 + 1e-6
    rejects(ck.check_kernel, z, bad, sol.nullity, ck.Accuracy())
    rejects(ck.check_kernel, z, gamma, 0, ck.Accuracy())


def test_spectrum_check_rejects_permuted_sigma_and_wrong_entropy(odd_config):
    z, _, rep = odd_config
    ck.check_spectral_report(z, rep.sigma_raw, rep.rank, rep.entropy, ck.Accuracy())
    permuted = np.array(rep.sigma_raw)[[1, 2, 0, 3, 4, 5, 6]]
    rejects(ck.check_spectral_report, z, permuted, rep.rank, rep.entropy, ck.Accuracy())
    rejects(ck.check_spectral_report, z, rep.sigma_raw, rep.rank, rep.entropy + 1e-6, ck.Accuracy())
    rejects(ck.check_pairs, rep.sigma_raw, rep.rank - 1)


def test_even_checks_reject_wrong_outcome_and_pfaffian():
    pts = sf.generate_random_plane(6, sf.RegionSpec(-1, 1, -1, 1, seed=2))
    z = np.array(pts.positions)
    assert ck.expects_no_equilibrium(z)
    ck.check_even_outcome(z, True)
    rejects(ck.check_even_outcome, z, False)
    pf = sf.pfaffian_determinant_check(sf.build_matrix(pts)).pfaffian
    ck.check_pfaffian(z, pf, ck.Accuracy())
    rejects(ck.check_pfaffian, z, pf * (1.0 + 1e-6), ck.Accuracy())


def test_polygon_and_triangle_checks():
    rep = sf.spectral_report(sf.build_matrix(sf.generate_circle(9, phase=0.4)))
    ck.check_polygon_sigma(rep.sigma_raw)
    rejects(ck.check_polygon_sigma, np.array(rep.sigma_raw) * (1.0 + 1e-8))
    apex = 0.3 + 0.8j
    gamma = sf.solve_strengths(sf.PointSet([0.0, 1.0, apex])).strengths.values
    ck.check_triangle_kernel(apex, gamma)
    rejects(ck.check_triangle_kernel, apex, np.array(gamma)[[1, 0, 2]])


def test_flow_checks_reject_corrupted_outputs():
    pts = sf.generate_collinear(7)
    z = np.array(pts.positions)
    gamma = np.array(sf.solve_strengths(pts).strengths.values)
    window = sf.Window(-0.5, 1.5, -1.0, 1.0)
    grid = sf.velocity_grid(pts, gamma, window, 30, 20)
    twin = sf.velocity_grid(pts, 1j * gamma, window, 30, 20)
    nodes = grid.xs[[3, 17]] + 1j * grid.ys[[5, 11]]
    values = grid.velocity[[5, 11], [3, 17]]
    ck.check_grid_samples(z, gamma, nodes, values, ck.Accuracy())
    rejects(ck.check_grid_samples, z, gamma, nodes, values * (1.0 + 1e-6), ck.Accuracy())
    ck.check_twin(grid.velocity, twin.velocity)
    rejects(ck.check_twin, grid.velocity, -twin.velocity)
    ck.check_drift(1e-12, ck.Accuracy())
    rejects(ck.check_drift, 2e-6, ck.Accuracy())
    line = sf.trace_streamline(pts, gamma, 0.25 + 0.3j, step=0.01, max_steps=50, window=window)
    ck.check_streamline(line.vertices, line.terminated_by, 0.01)
    rejects(ck.check_streamline, line.vertices, "wandered_off", 0.01)
    rejects(ck.check_streamline, line.vertices, line.terminated_by, 0.005)
    r = 8.0
    near, far = (sf.far_field_deviation(pts, gamma, x) for x in (r, 2 * r))
    ck.check_far_field(z, gamma, r, near, far, ck.Accuracy())
    rejects(ck.check_far_field, z, gamma, r, near, near / 2.0, ck.Accuracy())
    rejects(ck.check_far_field, z, gamma, r, near * 1.01, far * 1.01, ck.Accuracy())


def test_orbit_check_uses_the_closed_form():
    gamma, r0, t = complex(1.0, 0.7), 1.2, 0.5
    r, theta = ck.orbit_closed_form(gamma, r0, t)
    assert r == pytest.approx(math.sqrt(r0 * r0 + 0.7 * t / math.pi), rel=1e-15)
    exact = sf.single_orbit(sf.OrbitParams(gamma, r0), t)
    ck.check_orbit(gamma, r0, t, exact, exact, ck.Accuracy())
    rejects(ck.check_orbit, gamma, r0, t, exact, (exact[0] + 1e-5, exact[1]), ck.Accuracy())


@pytest.fixture
def chain(tmp_path):
    c = workloads.CliChain(sf, 7, ck.Accuracy(), tmp_path, tiny=True)
    yield c
    c.close()


def test_cli_checks_reject_wrong_csv_value_and_exit_code(chain):
    results = []
    for op in chain.ops():
        res = op.call()
        op.check(res)
        results.append((op, res))
    by_class = {op.cls: (op, res) for op, res in results}
    op, res = by_class["field"]
    csv = chain.work / "grid0.csv"
    lines = csv.read_text().splitlines()
    j, i = chain.chains[0]["samples"][0]
    row = lines[1 + j * workloads.CLI_FIELD_SIDE + i].split(",")
    row[2] = repr(float(row[2]) * (1.0 + 1e-6) + 1e-12)
    lines[1 + j * workloads.CLI_FIELD_SIDE + i] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    rejects(op.check, res)
    op, res = by_class["verify N=7"]
    rejects(op.check, (6, res[1]))
    op, res = by_class["solve N=8 (even)"]
    assert res[0] == ck.EXIT_NO_EQUILIBRIUM
    rejects(op.check, (0, res[1]))
    rejects(ck.check_exit, 1, ck.EXIT_OK, "any command")
