"""The three workloads: inputs, one round of operations, and their checks.

A workload is built once per process (the set-up), then runs whole rounds:
every round attempts the same operations on the same inputs, so the share
of failed operations is the same in every run. Inputs come from the seed
alone. The program is reached only through its user surface: the functions
``README.md`` documents, looked up on the ``stillflow`` package at call
time, and ``stillflow.cli.main`` called in-process.

Each operation carries a class label (the kind of call and its N); the
benchmark README says which class the median and the 90th percentile fall
in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as ck
from refspeed import INTERP, STREAM


@dataclass
class Op:
    """One timed call, the check of its output, and the part of the
    reference kernel its work resembles."""

    cls: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    kind: str = INTERP


def _sub_seeds(seed: int, stream: int):
    """Independent integer seeds for the generators, derived from the run seed."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(0, 2**31 - 1))


# -- sweep -------------------------------------------------------------------

#: Random configurations per (N, family) in one round. Operation times
#: rise with N, so the counts set where the percentiles fall: N = 3..6 make
#: 42.5% of a round, N = 7 the next 14.5% (the median lands in its middle),
#: N = 8..10 up to 79.5% and N = 11 the rest (the 90th percentile lands in
#: its middle). See README.md.
SWEEP_COUNTS = {3: 5, 4: 5, 5: 5, 6: 5, 7: 7, 8: 4, 9: 4, 10: 3, 11: 10}
SWEEP_FAMILIES = ("plane", "circle", "flower", "figure_eight")
SWEEP_POLYGONS = (3, 5, 7, 9, 11)
SWEEP_TRIANGLES = 3
TINY_SWEEP_COUNTS = {3: 1, 4: 1, 5: 1}


class Sweep:
    """Many small configurations through solve, spectrum and Pfaffian checks."""

    name = "sweep"

    def __init__(self, sf, seed: int, acc: ck.Accuracy, tiny: bool = False):
        self.sf = sf
        self.acc = acc
        seeds = _sub_seeds(seed, 1)
        rng = np.random.default_rng([seed, 2])
        counts = TINY_SWEEP_COUNTS if tiny else SWEEP_COUNTS
        self.configs = []  # (class, PointSet, kind, extra)
        for n, count in counts.items():
            for family in SWEEP_FAMILIES:
                for _ in range(count):
                    self.configs.append((f"N={n}", self._random(family, n, next(seeds)), "random", None))
        for n in SWEEP_POLYGONS[: 1 if tiny else None]:
            pts = sf.generate_circle(n, "even", phase=float(rng.uniform(0.0, 2.0 * math.pi)))
            self.configs.append((f"N={n}", pts, "polygon", None))
        for _ in range(1 if tiny else SWEEP_TRIANGLES):
            while True:
                apex = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.5, 1.5))
                if abs(apex) > 0.2 and abs(apex - 1.0) > 0.2:
                    break
            self.configs.append(("N=3", sf.PointSet([0.0, 1.0, apex]), "triangle", apex))

    def _random(self, family: str, n: int, seed: int):
        sf = self.sf
        if family == "plane":
            return sf.generate_random_plane(n, sf.RegionSpec(-1.0, 1.0, -1.0, 1.0, seed=seed))
        if family == "circle":
            return sf.generate_circle(n, "random", seed=seed)
        return sf.generate_polar_curve(sf.CurveSpec(family, "random_parameter"), n, seed=seed)

    def _analyse(self, pts):
        sf = self.sf
        try:
            solution = sf.solve_strengths(pts)
        except sf.NoEquilibrium:
            solution = None
        a = sf.build_matrix(pts)
        report = sf.spectral_report(a)
        pf = sf.pfaffian_determinant_check(a) if pts.n % 2 == 0 else None
        return solution, report, pf

    def _check(self, z, kind, extra, out):
        solution, report, pf = out
        acc = self.acc
        ck.check_spectral_report(z, report.sigma_raw, report.rank, report.entropy, acc)
        if z.size % 2:
            ck.require(solution is not None, f"NoEquilibrium for odd N = {z.size}")
            ck.check_kernel(z, solution.strengths.values, solution.nullity, acc)
        else:
            ck.check_even_outcome(z, solution is None)
            ck.check_pfaffian(z, pf.pfaffian, acc)
            ck.require(pf.consistent, "pfaffian_determinant_check reports inconsistent")
        if kind == "polygon":
            ck.check_polygon_sigma(report.sigma_raw)
        elif kind == "triangle":
            ck.check_triangle_kernel(extra, solution.strengths.values)

    def ops(self) -> list[Op]:
        out = []
        for cls, pts, kind, extra in self.configs:
            z = np.array(pts.positions)
            out.append(Op(
                cls,
                lambda pts=pts: self._analyse(pts),
                lambda res, z=z, kind=kind, extra=extra: self._check(z, kind, extra, res),
            ))
        return out

    def warm_ops(self) -> list[Op]:
        """The first configuration of each family, polygon and triangle."""
        seen, out = set(), []
        for op, (_, pts, kind, _) in zip(self.ops(), self.configs):
            key = (kind, pts.n % 2)
            if key not in seen:
                seen.add(key)
                out.append(op)
        return out

    def close(self):
        pass


# -- flow --------------------------------------------------------------------

#: Equilibria the flow workload integrates and samples. Each passes the
#: fixedness check at any rotation, and its far-field deviation falls by
#: 3-5x from R to 2R (README.md lists the measured figures). The seed sets
#: the rotation and the streamline starts.
FLOW_EQUILIBRIA = (("line", 7), ("figure_eight", 13), ("flower", 15), ("flower", 21))
FLOW_T_FINAL = 0.25
FLOW_DT = 1e-3
#: Lattice nodes times (N + 5) per grid. A node costs a fixed part plus a
#: part per point, about 5 : 1 here, so every grid costs about the same and
#: the grids form one block of similar times.
FLOW_GRID_WORK = 3_000_000
FLOW_STREAMLINES = 1
FLOW_STEP = 1e-2
FLOW_MAX_STEPS = 300
FLOW_GRID_SAMPLES = 24
#: R = FLOW_RADIUS * diameter, well inside the asymptotic regime.
FLOW_RADIUS = 8.0


class Flow:
    """Fixedness by integration, field lattices, streamlines, far field."""

    name = "flow"

    def __init__(self, sf, seed: int, acc: ck.Accuracy, tiny: bool = False):
        self.sf = sf
        self.acc = acc
        rng = np.random.default_rng([seed, 3])
        grid_work = 30_000 if tiny else FLOW_GRID_WORK
        self.eqs = []
        for family, n in FLOW_EQUILIBRIA[: 1 if tiny else None]:
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            if family == "line":
                pts = sf.generate_collinear(n)
            elif family == "figure_eight":
                pts = sf.generate_polar_curve(sf.CurveSpec(family, "even_arclength", phase=phase), n)
            else:
                pts = sf.generate_polar_curve(sf.CurveSpec(family, "even_parameter", phase=phase), n)
            gamma = np.array(sf.solve_strengths(pts).strengths.values)
            z = np.array(pts.positions)
            x0, x1, y0, y1 = z.real.min(), z.real.max(), z.imag.min(), z.imag.max()
            span = max(x1 - x0, y1 - y0, 1.0)
            window = sf.Window(x0 - 0.5 * span, x1 + 0.5 * span, y0 - 0.5 * span, y1 + 0.5 * span)
            side = max(2, int(round(math.sqrt(grid_work / (n + 5)))))
            starts = []
            while len(starts) < FLOW_STREAMLINES:
                p = complex(rng.uniform(window.x_min, window.x_max), rng.uniform(window.y_min, window.y_max))
                if np.abs(p - z).min() > 0.05 * span:
                    starts.append(p)
            samples = rng.integers(0, side, size=(FLOW_GRID_SAMPLES, 2))
            diameter = float(np.abs(z[:, None] - z[None, :]).max())
            self.eqs.append(dict(
                label=f"{family} N={n}", pts=pts, z=z, gamma=gamma, window=window, side=side,
                starts=starts, samples=samples, radius=FLOW_RADIUS * diameter, grid=None,
            ))

    def _check_grid(self, eq, grid, twin: bool):
        if twin:
            ck.check_twin(eq["grid"], grid.velocity)
            eq["grid"] = None
            return
        w, side = eq["window"], eq["side"]
        xs = np.linspace(w.x_min, w.x_max, side)
        ys = np.linspace(w.y_min, w.y_max, side)
        ck.require(grid.velocity.shape == (side, side), f"grid shape {grid.velocity.shape}")
        ck.require(np.array_equal(grid.xs, xs) and np.array_equal(grid.ys, ys), "lattice coordinates")
        j, i = eq["samples"][:, 0], eq["samples"][:, 1]
        ck.require(not bool(np.asarray(grid.singular)[j, i].any()), "sampled node flagged singular")
        nodes = xs[i] + 1j * ys[j]
        ck.check_grid_samples(eq["z"], eq["gamma"], nodes, grid.velocity[j, i], self.acc)
        eq["grid"] = np.array(grid.velocity)

    def _eq_ops(self, eq) -> list[Op]:
        sf = self.sf
        pts, gamma, window, side = eq["pts"], eq["gamma"], eq["window"], eq["side"]
        ops = [
            Op("far_field",
               lambda: (sf.far_field_deviation(pts, gamma, eq["radius"]),
                        sf.far_field_deviation(pts, gamma, 2.0 * eq["radius"])),
               lambda r: ck.check_far_field(eq["z"], eq["gamma"], eq["radius"], r[0], r[1], self.acc)),
        ]
        for start in eq["starts"]:
            ops.append(Op(
                "streamline",
                lambda start=start: sf.trace_streamline(
                    pts, gamma, start, step=FLOW_STEP, max_steps=FLOW_MAX_STEPS, window=window),
                lambda s: ck.check_streamline(s.vertices, s.terminated_by, FLOW_STEP),
            ))
        ops += [
            Op("fixedness",
               lambda: sf.fixedness_check(pts, gamma, t_final=FLOW_T_FINAL, dt=FLOW_DT),
               lambda d: ck.check_drift(d, self.acc)),
            Op("grid",
               lambda: sf.velocity_grid(pts, gamma, window, side, side),
               lambda g: self._check_grid(eq, g, twin=False), STREAM),
            Op("grid",
               lambda: sf.velocity_grid(pts, 1j * gamma, window, side, side),
               lambda g: self._check_grid(eq, g, twin=True), STREAM),
        ]
        return ops

    def ops(self) -> list[Op]:
        return [op for eq in self.eqs for op in self._eq_ops(eq)]

    def warm_ops(self) -> list[Op]:
        return self._eq_ops(self.eqs[0])

    def close(self):
        pass


# -- cli-chain ---------------------------------------------------------------

#: (generator, N) for each configuration run through the whole chain. Only
#: configurations that pass `verify` at CLI_VERIFY_T at any rotation appear;
#: README.md lists the ones left out and why.
CLI_CONFIGS = (
    ("line", 7), ("flower", 7),
    ("circle", 21), ("flower", 21),
    ("circle", 51), ("circle", 51), ("circle", 51),
)
#: Even N configurations (uniform in the plane), written during set-up;
#: their `solve` is expected to exit 4.
CLI_EVEN = (8, 20)
CLI_ORBITS = 2
CLI_ORBIT_T = 0.25
#: verify's integration length. At 0.75 the N = 51 verify sits well apart in
#: time from the N = 51 spectrum, so the 90th percentile stays in one class.
CLI_VERIFY_T = 0.75
CLI_FIELD_SIDE = 101
CLI_FIELD_SAMPLES = 24
TINY_CLI_CONFIGS = (("circle", 7),)


class CliChain:
    """generate -> solve -> verify -> field -> spectrum through cli.main."""

    name = "cli-chain"

    def __init__(self, sf, seed: int, acc: ck.Accuracy, work_root: Path, tiny: bool = False):
        from stillflow import cli  # the command-line layer is a module of its own

        self.cli = cli
        self.acc = acc
        work_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=work_root))
        self.bytes_written = 0
        rng = np.random.default_rng([seed, 4])
        seeds = _sub_seeds(seed, 5)
        self.chains = []
        for k, (family, n) in enumerate(TINY_CLI_CONFIGS if tiny else CLI_CONFIGS):
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            self.chains.append(dict(
                k=k, family=family, n=n, phase=phase,
                samples=rng.integers(0, CLI_FIELD_SIDE, size=(CLI_FIELD_SAMPLES, 2)),
            ))
        self.evens = []
        for n in CLI_EVEN[:1] if tiny else CLI_EVEN:
            path = self._path(f"even{n}.json")
            code, _ = self.run(["generate", "--plane", "--n", n, "--seed", next(seeds), "--out", path])
            ck.check_exit(code, ck.EXIT_OK, "generate of an even N configuration")
            self.evens.append((n, path))
        self.orbits = []
        for _ in range(1 if tiny else CLI_ORBITS):
            self.orbits.append((
                complex(rng.uniform(-7.0, 7.0), rng.uniform(-0.5, 2.0)),
                float(rng.uniform(0.8, 1.5)),
            ))

    def run(self, argv):
        """cli.main in-process; returns (exit code, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv])
        return code, out.getvalue()

    def _path(self, name: str) -> Path:
        return self.work / name

    def _written(self, *paths: Path, stdout: str = "") -> None:
        self.bytes_written += len(stdout) + sum(p.stat().st_size for p in paths if p.exists())

    # checks, each against the benchmark's own computation

    def _points(self, path: Path) -> np.ndarray:
        pts = np.asarray(json.loads(path.read_text())["points"], dtype=np.float64)
        return pts[:, 0] + 1j * pts[:, 1]

    def _check_generate(self, c, res):
        code, stdout = res
        cfg = self._path(f"cfg{c['k']}.json")
        self._written(cfg, stdout=stdout)
        ck.check_exit(code, ck.EXIT_OK, "generate")
        z = self._points(cfg)
        n = c["n"]
        if c["family"] == "line":
            expected = np.linspace(0.0, 1.0, n) + 0j
        elif c["family"] == "circle":
            expected = np.exp(1j * (2.0 * math.pi * np.arange(n) / n + c["phase"]))
        else:  # flower: every point on r = cos 2 theta (signed radius)
            ck.require(z.size == n, f"flower has {z.size} points, expected {n}")
            off = np.abs(np.abs(z) - np.abs(np.cos(2.0 * (np.angle(z) - c["phase"]))))
            ck.require(float(off.max()) <= 1e-12, f"flower point off the curve by {off.max():.3e}")
            return
        ck.require(z.size == n and float(np.abs(z - expected).max()) <= 1e-15,
                   f"{c['family']} points differ from the closed form")

    def _check_solve(self, c, res):
        code, stdout = res
        cfg, sol, rep = (self._path(f"{p}{c['k']}.json") for p in ("cfg", "sol", "rep"))
        self._written(sol, rep, stdout=stdout)
        ck.check_exit(code, ck.EXIT_OK, "solve")
        z = self._points(cfg)
        report = json.loads(rep.read_text())
        gamma = np.asarray(report["solution"]["strengths"], dtype=np.float64)
        gamma = gamma[:, 0] + 1j * gamma[:, 1]
        spec = report["spectrum"]
        ck.check_spectral_report(z, spec["sigma_raw"], spec["rank"], spec["entropy"], self.acc)
        ck.check_kernel(z, gamma, report["solution"]["nullity"], self.acc)
        saved = json.loads(sol.read_text())
        sv = np.asarray(saved["strengths"], dtype=np.float64)
        ck.require(np.array_equal(self._points(sol), z), "saved configuration moved the points")
        ck.require(np.array_equal(sv[:, 0] + 1j * sv[:, 1], gamma), "saved strengths differ from the report")

    def _check_verify(self, c, res):
        code, stdout = res
        self._written(stdout=stdout)
        ck.check_exit(code, ck.EXIT_OK, "verify")
        values = dict(line.split() for line in stdout.splitlines())
        residual, drift = float(values["residual"]), float(values["max_drift"])
        self.acc.note("verify_residual", residual)
        ck.require(residual <= ck.VERIFY_RESIDUAL_TOL, f"verify residual {residual!r}")
        ck.check_drift(drift, self.acc)

    def _check_field(self, c, res):
        code, stdout = res
        path = self._path(f"grid{c['k']}.csv")
        self._written(path, stdout=stdout)
        ck.check_exit(code, ck.EXIT_OK, "field")
        lines = path.read_text().splitlines()
        side = CLI_FIELD_SIDE
        ck.require(lines[0] == "x,y,u,v,singular" and len(lines) == side * side + 1,
                   f"CSV has {len(lines)} lines")
        saved = json.loads(self._path(f"sol{c['k']}.json").read_text())
        z = self._points(self._path(f"sol{c['k']}.json"))
        sv = np.asarray(saved["strengths"], dtype=np.float64)
        gamma = sv[:, 0] + 1j * sv[:, 1]
        x0, x1, y0, y1 = z.real.min(), z.real.max(), z.imag.min(), z.imag.max()
        span = max(x1 - x0, y1 - y0, 1.0)
        xs = np.linspace(x0 - 0.5 * span, x1 + 0.5 * span, side)
        ys = np.linspace(y0 - 0.5 * span, y1 + 0.5 * span, side)
        rows = [lines[1 + j * side + i].split(",") for j, i in c["samples"]]
        got = np.array([[float(v) for v in r[:4]] for r in rows])
        nodes = xs[c["samples"][:, 1]] + 1j * ys[c["samples"][:, 0]]
        ck.require(np.array_equal(got[:, 0] + 1j * got[:, 1], nodes), "CSV node coordinates")
        ck.require(all(r[4] == "0" for r in rows), "sampled CSV node flagged singular")
        ck.check_grid_samples(z, gamma, nodes, got[:, 2] + 1j * got[:, 3], self.acc)

    def _check_spectrum(self, c, res):
        code, stdout = res
        self._written(stdout=stdout)
        ck.check_exit(code, ck.EXIT_OK, "spectrum")
        table = {line.split()[0]: line.split()[1:] for line in stdout.splitlines()}
        z = self._points(self._path(f"cfg{c['k']}.json"))
        sigma = ck.lapack_sigma(ck.interaction_matrix(z))
        printed = np.array([float(s) for s in table["sigma_raw"]])
        ck.require(printed.size == sigma.size and float(np.abs(printed - sigma).max()) <= 5.1e-5,
                   "printed sigma_raw differs from LAPACK")
        rank = len(table["sigma_normalized"])
        ck.require(abs(float(table["entropy"][0]) - ck.entropy(sigma[:rank])) <= 5.1e-5,
                   "printed entropy differs from -sum p ln p")

    def _chain_ops(self, c) -> list[Op]:
        k, n, fam = c["k"], c["n"], c["family"]
        cfg, sol, rep, grid = (str(self._path(p)) for p in
                               (f"cfg{k}.json", f"sol{k}.json", f"rep{k}.json", f"grid{k}.csv"))
        gen = ["generate", "--n", n, "--out", cfg]
        if fam == "line":
            gen += ["--line"]
        elif fam == "circle":
            gen += ["--circle", "--phase", repr(c["phase"])]
        else:
            gen += ["--curve", fam, "--phase", repr(c["phase"])]
        stages = (
            ("generate", gen, self._check_generate),
            ("solve", ["solve", "--in", cfg, "--save-config", sol, "--out", rep], self._check_solve),
            ("verify", ["verify", "--in", sol, "--t-final", CLI_VERIFY_T], self._check_verify),
            ("field", ["field", "--in", sol, "--nx", CLI_FIELD_SIDE, "--ny", CLI_FIELD_SIDE,
                       "--out", grid], self._check_field),
            ("spectrum", ["spectrum", "--in", cfg], self._check_spectrum),
        )
        # field's cost is mostly CSV formatting of the fixed lattice and
        # barely depends on N, so its operations form one class
        return [Op(name if name == "field" else f"{name} N={n}", lambda argv=argv: self.run(argv),
                   lambda res, check=check: check(c, res)) for name, argv, check in stages]

    def _even_op(self, n: int, path: Path) -> Op:
        def check(res):
            self._written(stdout=res[1])
            expected = ck.EXIT_NO_EQUILIBRIUM if ck.expects_no_equilibrium(self._points(path)) else ck.EXIT_OK
            ck.check_exit(res[0], expected, f"solve of an even N = {n} configuration")

        return Op(f"solve N={n} (even)", lambda: self.run(["solve", "--in", path]), check)

    def _orbit_op(self, gamma: complex, r0: float) -> Op:
        argv = ["orbit", "--gamma", repr(gamma.real), repr(gamma.imag), "--r0", repr(r0),
                "--t-final", repr(CLI_ORBIT_T)]

        def check(res):
            code, stdout = res
            self._written(stdout=stdout)
            ck.check_exit(code, ck.EXIT_OK, "orbit")
            rows = {line.split()[0]: line.split() for line in stdout.splitlines()}
            analytic = (float(rows["analytic"][2]), float(rows["analytic"][4]))
            numeric = (float(rows["numeric"][2]), float(rows["numeric"][4]))
            ck.check_orbit(gamma, r0, CLI_ORBIT_T, analytic, numeric, self.acc)

        return Op("orbit", lambda: self.run(argv), check)

    def ops(self) -> list[Op]:
        out = [op for c in self.chains for op in self._chain_ops(c)]
        out += [self._even_op(n, path) for n, path in self.evens]
        out += [self._orbit_op(g, r0) for g, r0 in self.orbits]
        return out

    def warm_ops(self) -> list[Op]:
        return (self._chain_ops(self.chains[0]) + [self._even_op(*self.evens[0])]
                + [self._orbit_op(*self.orbits[0])])

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"sweep": Sweep, "flow": Flow, "cli-chain": CliChain}
