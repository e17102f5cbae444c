"""Command-line toolkit: generate, solve, verify, field, spectrum, orbit.

File formats are deterministic: configuration and report files are JSON
with sorted keys and shortest round-trip float encoding, field grids are
CSV with 17-significant-digit decimals, and stdout tables round to 4
decimal places. Identical inputs and seeds always produce identical bytes.

Exit codes: 0 success, 2 invalid flags or unreadable input, 3 generation
failure, 4 no equilibrium exists, 5 verification tolerance exceeded,
6 collision or collapse during integration, 7 numerical failure (the
LAPACK SVD did not converge).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .core import PointSet, StrengthVector, build_matrix
from .dynamics import OrbitParams, fixedness_check, integrate_tracer, single_orbit
from .equilibrium import (
    center_of_vorticity,
    classify_far_field,
    classify_singularity,
    residual,
    solve_strengths,
)
from .errors import (
    CollapseReached,
    CollisionAbort,
    ConvergenceFailure,
    DegenerateConfiguration,
    NoEquilibrium,
    StillflowError,
)
from .field import Window, default_window, velocity_grid
from .generators import (
    CurveSpec,
    RegionSpec,
    generate_circle,
    generate_collinear,
    generate_polar_curve,
    generate_random_plane,
)
from .spectrum import spectral_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_NO_EQUILIBRIUM = 4
EXIT_TOLERANCE = 5
EXIT_COLLISION = 6
EXIT_NUMERICAL = 7


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _pairs(values) -> list[list[float]]:
    arr = np.asarray(values)
    return [[float(v.real), float(v.imag)] for v in arr]


def _dump_json(tree) -> str:
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def load_configuration(path: str):
    """Read a configuration file: points, optional strengths, metadata."""
    tree = json.loads(Path(path).read_text())
    if not isinstance(tree, dict) or "points" not in tree:
        raise ValueError(f"{path}: expected an object with a 'points' list")
    pts = np.asarray(tree["points"], dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"{path}: points must be a list of [x, y] pairs")
    positions = pts[:, 0] + 1j * pts[:, 1]
    strengths = None
    if tree.get("strengths") is not None:
        sv = np.asarray(tree["strengths"], dtype=np.float64)
        if sv.ndim != 2 or sv.shape[1] != 2 or sv.shape[0] != positions.size:
            raise ValueError(f"{path}: strengths must be [re, im] pairs matching points")
        strengths = sv[:, 0] + 1j * sv[:, 1]
    return positions, strengths, tree.get("metadata", {})


def configuration_tree(points, strengths=None, metadata=None) -> dict:
    tree = {"points": _pairs(points.positions if isinstance(points, PointSet) else points)}
    if strengths is not None:
        values = strengths.values if isinstance(strengths, StrengthVector) else strengths
        tree["strengths"] = _pairs(values)
    if metadata:
        tree["metadata"] = metadata
    return tree


def _build_report(points: PointSet, solution, spec_report) -> dict:
    gamma = solution.strengths.values
    cov = center_of_vorticity(points, gamma)
    far = classify_far_field(gamma)
    return {
        "solution": {
            "strengths": _pairs(gamma),
            "residual": float(solution.residual),
            "nullity": int(solution.nullity),
            "zero_eigenvalue_multiplicity": int(solution.zero_eigenvalue_multiplicity),
        },
        "spectrum": {
            "sigma_raw": [float(s) for s in spec_report.sigma_raw],
            "sigma_normalized": [float(s) for s in spec_report.sigma_normalized],
            "entropy": float(spec_report.entropy),
            "spectral_gap_raw": float(spec_report.spectral_gap_raw),
            "spectral_gap_normalized": float(spec_report.spectral_gap_normalized),
            "rank": int(spec_report.rank),
            "mode": spec_report.mode,
        },
        "classification": {
            "per_point": [classify_singularity(g) for g in gamma],
            "far_field": far.kind,
            "total_strength": [far.total_strength.real, far.total_strength.imag],
            "center_of_vorticity": (
                None if not cov.defined else [cov.value.real, cov.value.imag]
            ),
            "center_defined": bool(cov.defined),
            "moment": [cov.moment.real, cov.moment.imag],
        },
    }


def _cmd_generate(args) -> int:
    n = args.n
    distribution = "random" if args.random else "even"
    meta = {"n": n, "seed": args.seed, "distribution": distribution}
    try:
        if args.line:
            points = generate_collinear(n, distribution, seed=args.seed)
            meta["generator"] = "line"
        elif args.circle:
            points = generate_circle(
                n, distribution, radius=args.radius, phase=args.phase, seed=args.seed
            )
            meta["generator"] = "circle"
            meta["radius"] = args.radius
            meta["phase"] = args.phase
        elif args.curve is not None:
            curve_dist = (
                "random_parameter" if args.random else f"even_{args.spacing}"
            )
            spec = CurveSpec(args.curve, curve_dist, phase=args.phase)
            points = generate_polar_curve(spec, n, seed=args.seed)
            meta["generator"] = args.curve
            meta["distribution"] = curve_dist
            meta["phase"] = args.phase
        else:
            region = RegionSpec(*args.bounds, seed=args.seed)
            points = generate_random_plane(n, region)
            meta["generator"] = "plane"
            meta["bounds"] = list(args.bounds)
    except (DegenerateConfiguration, ValueError) as exc:
        return _fail(EXIT_GENERATION, f"generation failed: {exc}")
    _emit(_dump_json(configuration_tree(points, metadata=meta)), args.out)
    return EXIT_OK


def _load_for_command(path: str):
    positions, strengths, metadata = load_configuration(path)
    return PointSet(positions), strengths, metadata


def _cmd_solve(args) -> int:
    try:
        points, _, metadata = _load_for_command(args.in_path)
    except (OSError, ValueError, DegenerateConfiguration) as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        solution = solve_strengths(points, rel_tol=args.tol)
    except NoEquilibrium as exc:
        return _fail(EXIT_NO_EQUILIBRIUM, f"no equilibrium: {exc}")
    report = _build_report(
        points, solution, spectral_report(build_matrix(points), mode=args.mode, rel_tol=args.tol)
    )
    _emit(_dump_json(report), args.out)
    if args.save_config is not None:
        meta = dict(metadata)
        meta["solver"] = {"tol": args.tol, "residual": float(solution.residual)}
        tree = configuration_tree(points, solution.strengths, meta)
        Path(args.save_config).write_text(_dump_json(tree))
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        points, strengths, _ = _load_for_command(args.in_path)
    except (OSError, ValueError, DegenerateConfiguration) as exc:
        return _fail(EXIT_USAGE, str(exc))
    if strengths is None:
        return _fail(EXIT_USAGE, f"{args.in_path}: verify needs a file with strengths")
    res = residual(build_matrix(points), strengths)
    try:
        drift = fixedness_check(points, strengths, t_final=args.t_final, dt=args.dt)
    except CollisionAbort as exc:
        return _fail(
            EXIT_COLLISION,
            f"collision at t = {exc.time:.6g}, pair {exc.pair}, distance {exc.distance:.3e}",
        )
    print(f"residual {res:.17g}")
    print(f"max_drift {drift:.17g}")
    ok = res <= args.residual_tol and drift <= args.drift_tol
    if not ok:
        return _fail(
            EXIT_TOLERANCE,
            f"verification failed (residual tol {args.residual_tol:g},"
            f" drift tol {args.drift_tol:g})",
        )
    return EXIT_OK


def _grid_csv(grid) -> str:
    # one lattice row at a time, so that only a row's worth of Python
    # floats is alive at once
    xs = grid.xs.tolist()
    lines = ["x,y,u,v,singular\n"]
    for y, v, flags in zip(grid.ys.tolist(), grid.velocity, grid.singular):
        lines.extend("%.17g,%.17g,%.17g,%.17g,%d\n" % row
                     for row in zip(xs, repeat(y), v.real.tolist(), v.imag.tolist(), flags.tolist()))
    return "".join(lines)


def _cmd_field(args) -> int:
    try:
        points, strengths, _ = _load_for_command(args.in_path)
    except (OSError, ValueError, DegenerateConfiguration) as exc:
        return _fail(EXIT_USAGE, str(exc))
    if strengths is None:
        try:
            strengths = solve_strengths(points).strengths.values
        except NoEquilibrium as exc:
            return _fail(EXIT_NO_EQUILIBRIUM, f"no equilibrium: {exc}")
    if args.ortho:
        strengths = 1j * strengths
    window = Window(*args.window) if args.window else default_window(points)
    grid = velocity_grid(points, strengths, window, args.nx, args.ny)
    _emit(_grid_csv(grid), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    try:
        points, _, _ = _load_for_command(args.in_path)
    except (OSError, ValueError, DegenerateConfiguration) as exc:
        return _fail(EXIT_USAGE, str(exc))
    report = spectral_report(build_matrix(points), mode=args.mode, rel_tol=args.tol)
    raw = " ".join(f"{s:.4f}" for s in report.sigma_raw)
    normalized = " ".join(f"{s:.4f}" for s in report.sigma_normalized)
    print(f"sigma_raw        {raw}")
    print(f"sigma_normalized {normalized}")
    print(f"entropy          {report.entropy:.4f}")
    print(f"spectral_gap     {report.spectral_gap_raw:.4f} raw"
          f" {report.spectral_gap_normalized:.4f} normalized")
    return EXIT_OK


def _cmd_orbit(args) -> int:
    params = OrbitParams(complex(args.gamma[0], args.gamma[1]), args.r0, args.theta0)
    try:
        r_exact, th_exact = single_orbit(params, args.t_final)
        r_num, th_num = integrate_tracer(params, args.t_final, dt=args.dt)
    except CollapseReached as exc:
        return _fail(EXIT_COLLISION, str(exc))
    err = max(abs(r_exact - r_num), abs(th_exact - th_num))
    print(f"analytic r {r_exact:.17g} theta {th_exact:.17g}")
    print(f"numeric  r {r_num:.17g} theta {th_num:.17g}")
    print(f"max_difference {err:.17g}")
    if err > args.tol:
        return _fail(EXIT_TOLERANCE, f"orbit mismatch {err:.3e} exceeds tol {args.tol:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stillflow",
        description="Find, verify, and classify stationary configurations of"
        " logarithmic point singularities in the plane.",
    )
    parser.add_argument("--version", action="version", version=f"stillflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a configuration file")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--line", action="store_true", help="points on [0, 1]")
    source.add_argument("--circle", action="store_true", help="points on a circle")
    source.add_argument("--curve", choices=("flower", "figure_eight"), help="polar curve")
    source.add_argument("--plane", action="store_true", help="uniform draws in a rectangle")
    gen.add_argument("--n", type=int, required=True, help="number of points")
    placement = gen.add_mutually_exclusive_group()
    placement.add_argument("--even", action="store_true", help="even placement (default)")
    placement.add_argument("--random", action="store_true", help="random placement")
    gen.add_argument(
        "--spacing",
        choices=("arclength", "parameter"),
        default="arclength",
        help="what 'even' means on a curve (default arclength)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--radius", type=float, default=1.0)
    gen.add_argument("--phase", type=float, default=0.0)
    gen.add_argument(
        "--bounds",
        type=float,
        nargs=4,
        default=(-1.0, 1.0, -1.0, 1.0),
        metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
    )
    gen.add_argument("--out", default=None, help="output path (stdout if omitted)")
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve for equilibrium strengths and report")
    solve.add_argument("--in", dest="in_path", required=True)
    solve.add_argument("--tol", type=float, default=1e-10, help="rank tolerance")
    solve.add_argument("--mode", choices=("power", "linear"), default="power")
    solve.add_argument("--out", default=None, help="report path (stdout if omitted)")
    solve.add_argument(
        "--save-config", default=None, help="also write the configuration with solved strengths"
    )
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="integrate and check fixedness")
    verify.add_argument("--in", dest="in_path", required=True)
    verify.add_argument("--t-final", type=float, default=1.0)
    verify.add_argument("--dt", type=float, default=1e-3)
    verify.add_argument("--drift-tol", type=float, default=1e-6)
    verify.add_argument("--residual-tol", type=float, default=1e-8)
    verify.set_defaults(func=_cmd_verify)

    fld = sub.add_parser("field", help="sample the velocity field on a grid (CSV)")
    fld.add_argument("--in", dest="in_path", required=True)
    fld.add_argument("--nx", type=int, default=101)
    fld.add_argument("--ny", type=int, default=101)
    fld.add_argument(
        "--window", type=float, nargs=4, default=None, metavar=("XMIN", "XMAX", "YMIN", "YMAX")
    )
    fld.add_argument("--ortho", action="store_true", help="rotate strengths by i")
    fld.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    fld.set_defaults(func=_cmd_field)

    spec = sub.add_parser("spectrum", help="print the singular spectrum table")
    spec.add_argument("--in", dest="in_path", required=True)
    spec.add_argument("--mode", choices=("power", "linear"), default="power")
    spec.add_argument("--tol", type=float, default=1e-10)
    spec.set_defaults(func=_cmd_spectrum)

    orbit = sub.add_parser("orbit", help="analytic vs numeric single-singularity tracer orbit")
    orbit.add_argument("--gamma", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    orbit.add_argument("--r0", type=float, required=True)
    orbit.add_argument("--theta0", type=float, default=0.0)
    orbit.add_argument("--t-final", type=float, default=1.0)
    orbit.add_argument("--dt", type=float, default=1e-4)
    orbit.add_argument("--tol", type=float, default=1e-6)
    orbit.set_defaults(func=_cmd_orbit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceFailure as exc:
        return _fail(EXIT_NUMERICAL, f"numerical failure: {exc}")
    except (StillflowError, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
