"""Command-line toolkit: generate, solve, verify, field, spectrum, orbit.

File formats are deterministic: configuration and report files are JSON
with sorted keys and shortest round-trip float encoding, field grids are
CSV with 17-significant-digit decimals, and stdout tables round to 4
decimal places. Identical inputs and seeds always produce identical bytes.

Exit codes: 0 success, 2 invalid flags, an unreadable or unwritable file
or a malformed configuration, 3 generation failure, 4 no equilibrium
exists, 5 verification tolerance exceeded, 6 collision or collapse during
integration, 7 numerical failure (the LAPACK SVD did not converge). The
commands raise, and main alone maps each exception to its exit code.

main builds its argument parser once per process and parses every call
with it, so a caller that runs many commands in one process pays for the
parser once; build_parser returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .core import PointSet, as_positions, as_strength_values, build_matrix
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


def _json_numbers(pairs) -> bool:
    """Whether every entry of a list of pairs is a JSON number (not a bool)."""
    return all(type(x) in (int, float) for pair in pairs for x in pair)


def load_configuration(path: str):
    """Read a configuration file: points, optional strengths, metadata.

    A malformed file raises ValueError naming it.
    """
    tree = json.loads(Path(path).read_text())
    if not isinstance(tree, dict) or "points" not in tree:
        raise ValueError(f"{path}: expected an object with a 'points' list")
    numbers_only = f"{path}: points and strengths must hold numbers only"
    try:
        pts = np.asarray(tree["points"], dtype=np.float64)
        sv = tree.get("strengths")
        sv = None if sv is None else np.asarray(sv, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(numbers_only) from None
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"{path}: points must be a list of [x, y] pairs")
    # np.asarray also reads the JSON strings "0.5", true and null as numbers
    if not _json_numbers(tree["points"]):
        raise ValueError(numbers_only)
    positions = pts[:, 0] + 1j * pts[:, 1]
    strengths = None
    if sv is not None:
        if sv.ndim != 2 or sv.shape[1] != 2 or sv.shape[0] != positions.size:
            raise ValueError(f"{path}: strengths must be [re, im] pairs matching points")
        if not _json_numbers(tree["strengths"]):
            raise ValueError(numbers_only)
        strengths = sv[:, 0] + 1j * sv[:, 1]
    metadata = tree.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}: metadata must be an object")
    return positions, strengths, metadata


def configuration_tree(points, strengths=None, metadata=None) -> dict:
    tree = {"points": _pairs(as_positions(points))}
    if strengths is not None:
        tree["strengths"] = _pairs(as_strength_values(strengths))
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
            "center_of_vorticity": [cov.value.real, cov.value.imag] if cov.defined else None,
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
            meta.update(generator="circle", radius=args.radius, phase=args.phase)
        elif args.curve is not None:
            curve_dist = "random_parameter" if args.random else f"even_{args.spacing}"
            spec = CurveSpec(args.curve, curve_dist, phase=args.phase)
            points = generate_polar_curve(spec, n, seed=args.seed)
            meta.update(generator=args.curve, distribution=curve_dist, phase=args.phase)
        else:
            points = generate_random_plane(n, RegionSpec(*args.bounds, seed=args.seed))
            meta.update(generator="plane", bounds=list(args.bounds))
    except ValueError as exc:
        return _fail(EXIT_GENERATION, f"generation failed: {exc}")
    _emit(_dump_json(configuration_tree(points, metadata=meta)), args.out)
    return EXIT_OK


def _load_for_command(path: str):
    positions, strengths, metadata = load_configuration(path)
    return PointSet(positions), strengths, metadata


def _check_tolerance(value: float, flag: str) -> None:
    if not value >= 0.0:  # fails closed: NaN is not a tolerance
        raise ValueError(f"{flag} must be a non-negative number, got {value}")


def _cmd_solve(args) -> int:
    points, _, metadata = _load_for_command(args.in_path)
    solution = solve_strengths(points, rel_tol=args.tol)
    report = _build_report(points, solution, spectral_report(solution.kernel, mode=args.mode))
    text = _dump_json(report)
    # The configuration is written first, so that a --save-config that
    # cannot be written leaves no report behind.
    if args.save_config is not None:
        meta = {**metadata, "solver": {"tol": args.tol, "residual": float(solution.residual)}}
        tree = configuration_tree(points, solution.strengths, meta)
        Path(args.save_config).write_text(_dump_json(tree))
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_tolerance(args.residual_tol, "--residual-tol")
    _check_tolerance(args.drift_tol, "--drift-tol")
    points, strengths, _ = _load_for_command(args.in_path)
    if strengths is None:
        raise ValueError(f"{args.in_path}: verify needs a file with strengths")
    res = residual(build_matrix(points), strengths)
    drift = fixedness_check(points, strengths, t_final=args.t_final, dt=args.dt)
    print(f"residual {res:.17g}")
    print(f"max_drift {drift:.17g}")
    if not (res <= args.residual_tol and drift <= args.drift_tol):
        tols = f"residual tol {args.residual_tol:g}, drift tol {args.drift_tol:g}"
        return _fail(EXIT_TOLERANCE, f"verification failed ({tols})")
    return EXIT_OK


def _grid_csv(grid) -> str:
    # One lattice row at a time, so that only a row's worth of Python
    # floats is alive at once. Float formatting is most of the cost, and
    # the coordinates repeat along columns and rows, so each x is formatted
    # once per column and each y once per row; only u, v and the flag are
    # formatted per node.
    xs = ["%.17g," % x for x in grid.xs.tolist()]
    lines = ["x,y,u,v,singular\n"]
    for y, v, flags in zip(grid.ys.tolist(), grid.velocity, grid.singular):
        rows = zip(xs, repeat("%.17g," % y), v.real.tolist(), v.imag.tolist(), flags.tolist())
        lines.extend(map("%s%s%.17g,%.17g,%d\n".__mod__, rows))
    return "".join(lines)


def _cmd_field(args) -> int:
    points, strengths, _ = _load_for_command(args.in_path)
    if strengths is None:
        strengths = solve_strengths(points).strengths.values
    if args.ortho:
        strengths = 1j * strengths
    window = Window(*args.window) if args.window else default_window(points)
    grid = velocity_grid(points, strengths, window, args.nx, args.ny)
    _emit(_grid_csv(grid), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    points, _, _ = _load_for_command(args.in_path)
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
    _check_tolerance(args.tol, "--tol")
    params = OrbitParams(complex(args.gamma[0], args.gamma[1]), args.r0, args.theta0)
    r_exact, th_exact = single_orbit(params, args.t_final)
    r_num, th_num = integrate_tracer(params, args.t_final, dt=args.dt)
    # np.max, unlike max(), keeps a NaN in either difference
    err = float(np.max([abs(r_exact - r_num), abs(th_exact - th_num)]))
    print(f"analytic r {r_exact:.17g} theta {th_exact:.17g}")
    print(f"numeric  r {r_num:.17g} theta {th_num:.17g}")
    print(f"max_difference {err:.17g}")
    # fails closed: a NaN difference is not within tolerance
    if not err <= args.tol:
        return _fail(EXIT_TOLERANCE, f"orbit mismatch {err:.3e} exceeds tol {args.tol:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the six subcommands on every call."""
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a small command's own work.
    # parse_args keeps no state between calls: each returns a new namespace.
    return build_parser()


def main(argv=None) -> int:
    # The one map from exception to exit code, most specific first
    # (CollapseReached is also a ValueError).
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NoEquilibrium as exc:
        return _fail(EXIT_NO_EQUILIBRIUM, f"no equilibrium: {exc}")
    except CollisionAbort as exc:
        at = f"t = {exc.time:.6g}, pair {exc.pair}, distance {exc.distance:.3e}"
        return _fail(EXIT_COLLISION, f"collision at {at}")
    except CollapseReached as exc:
        return _fail(EXIT_COLLISION, str(exc))
    except ConvergenceFailure as exc:
        return _fail(EXIT_NUMERICAL, f"numerical failure: {exc}")
    except (StillflowError, ValueError, OSError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
