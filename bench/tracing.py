"""Per-layer spans, installed from outside the program.

The layers are stillflow's modules. A wrapper around each target function
records a span (name, start, end, parent span) in memory; the wrapper is
installed on every stillflow module attribute bound to the target, which
covers the names ``stillflow.cli`` and the package itself imported. A
target that no longer exists is skipped and reported as absent, so the
traced run keeps working when a later change deletes a function.

Self time is a span's duration minus the time its child spans cover.
tracemalloc runs only inside the velocity_grid spans, whose peak it
measures; tracing every allocation would slow the whole run several-fold
and distort every other layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name). "PointSet.__post_init__" counts PointSet
#: constructions.
TARGETS = (
    ("stillflow.core", "PointSet.__post_init__", "core.pointset"),
    ("stillflow.core", "build_matrix", "core.build_matrix"),
    ("stillflow.linalg", "svd", "linalg.svd"),
    ("stillflow.linalg", "nullspace", "linalg.nullspace"),
    ("stillflow.linalg", "eigenvalues", "linalg.eigenvalues"),
    ("stillflow.linalg", "zero_eigenvalue_multiplicity", "linalg.zero_eigenvalue_multiplicity"),
    ("stillflow.linalg", "determinant", "linalg.determinant"),
    ("stillflow.linalg", "pfaffian", "linalg.pfaffian"),
    ("stillflow.linalg", "pfaffian_determinant_check", "linalg.pfaffian_determinant_check"),
    ("stillflow.spectrum", "normalize_spectrum", "spectrum.normalize_spectrum"),
    ("stillflow.spectrum", "shannon_entropy", "spectrum.shannon_entropy"),
    ("stillflow.spectrum", "spectral_report", "spectrum.spectral_report"),
    ("stillflow.equilibrium", "solve_strengths", "equilibrium.solve_strengths"),
    ("stillflow.equilibrium", "residual", "equilibrium.residual"),
    ("stillflow.equilibrium", "normalize_leading", "equilibrium.normalize_leading"),
    ("stillflow.equilibrium", "center_of_vorticity", "equilibrium.center_of_vorticity"),
    ("stillflow.equilibrium", "classify_far_field", "equilibrium.classify_far_field"),
    ("stillflow.equilibrium", "classify_singularity", "equilibrium.classify_singularity"),
    ("stillflow.dynamics", "point_velocities", "dynamics.point_velocities"),
    ("stillflow.dynamics", "integrate", "dynamics.integrate"),
    ("stillflow.dynamics", "fixedness_check", "dynamics.fixedness_check"),
    ("stillflow.dynamics", "integrate_tracer", "dynamics.integrate_tracer"),
    ("stillflow.dynamics", "single_orbit", "dynamics.single_orbit"),
    ("stillflow.field", "velocity_grid", "field.velocity_grid"),
    ("stillflow.field", "trace_streamline", "field.trace_streamline"),
    ("stillflow.field", "far_field_deviation", "field.far_field_deviation"),
    ("stillflow.field", "default_window", "field.default_window"),
    ("stillflow.generators", "generate_collinear", "generators.generate_collinear"),
    ("stillflow.generators", "generate_circle", "generators.generate_circle"),
    ("stillflow.generators", "generate_polar_curve", "generators.generate_polar_curve"),
    ("stillflow.generators", "generate_random_plane", "generators.generate_random_plane"),
    ("stillflow.cli", "main", "cli.main"),
)

CLI_COMMANDS = ("generate", "solve", "verify", "field", "spectrum", "orbit")

#: Per-layer metric names and units, in the order they are reported.
METRICS = (
    ("linalg.svd.calls", "count"), ("linalg.svd.self_ms", "ms"),
    ("linalg.svd_per_config", "count"), ("linalg.eigenvalues.self_ms", "ms"),
    ("linalg.pfaffian.self_ms", "ms"), ("linalg.self_ms", "ms"),
    ("core.pointset.calls", "count"), ("core.pointset_per_op", "count"),
    ("core.build_matrix.calls", "count"), ("core.build_matrix.self_ms", "ms"),
    ("spectrum.spectral_report.self_ms", "ms"),
    ("equilibrium.solve_strengths.calls", "count"), ("equilibrium.solve_strengths.self_ms", "ms"),
    ("dynamics.rk4_steps", "count"), ("dynamics.point_velocities.calls", "count"),
    ("dynamics.point_velocities.self_ms", "ms"), ("dynamics.integrate.self_ms", "ms"),
    ("dynamics.step_us", "us"), ("dynamics.trajectory_mb", "MB"),
    ("field.grid_nodes", "count"), ("field.velocity_grid.self_ms", "ms"),
    ("field.ns_per_node_point", "ns"), ("field.velocity_grid.peak_mb", "MB"),
    ("field.streamline_vertices", "count"), ("field.trace_streamline.self_ms", "ms"),
    ("field.far_field_deviation.self_ms", "ms"),
    ("generators.calls", "count"), ("generators.self_ms", "ms"),
    *((f"cli.{c}.ms", "ms") for c in CLI_COMMANDS),
    ("cli.self_ms", "ms"), ("cli.bytes_written", "bytes"),
    ("trace.overhead_pct", "%"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _grid_info(args, kwargs, result):
    nx, ny = _arg(args, kwargs, 3, "nx"), _arg(args, kwargs, 4, "ny")
    return {"nodes": nx * ny, "points": len(_arg(args, kwargs, 1, "strengths"))}


def _integrate_info(args, kwargs, result):
    times = getattr(result, "times", None)
    positions = getattr(result, "positions", None)
    if times is None or positions is None:
        return None
    return {"steps": times.size - 1, "bytes": times.nbytes + positions.nbytes}


#: Extra figures a span keeps, taken from its arguments and result.
INFO = {
    "field.velocity_grid": _grid_info,
    "dynamics.integrate": _integrate_info,
    "field.trace_streamline": lambda a, k, r: {"vertices": len(r.vertices)},
    "cli.main": lambda a, k, r: {"command": str((a[0] if a else k.get("argv") or ["?"])[0]), "exit": r},
}


class Tracer:
    """Wrappers and the spans they record."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, info, round]
        self._stack = []
        self._installed = []  # (owner, attribute, original)
        self.absent = []
        self.round = -1
        #: Wrappers record only while installed: a name bound to a wrapper
        #: by an import made during tracing must not record afterwards.
        self.active = False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info_fn = INFO.get(name)
        peak = name == "field.velocity_grid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, self.round]
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            info = info_fn(args, kwargs, result) if info_fn else None
            if peak:
                info["peak_bytes"] = peak_bytes
            span[4] = info
            return result

        return wrapper

    def install(self):
        self.active = True
        modules = [m for n, m in list(sys.modules.items()) if n == "stillflow" or n.startswith("stillflow.")]
        self.absent = []
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # a layer the workload never imports
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner:
                self._installed.append((holder, leaf, original))
                setattr(holder, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._installed.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        self.active = False
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, info, rnd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": rnd, "info": info}) + "\n")


def layer_metrics(tracer: Tracer, rounds: list[int], ops_per_round: int,
                  bytes_per_round: float, overhead_pct: float) -> dict:
    """Per-round figures averaged over the traced rounds. Set-up spans
    (round -1) count toward the generators figures only, which report the
    set-up plus one round."""
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, start, end, parent, info, rnd in spans:
        if parent >= 0:
            child_time[parent] += end - start
    count, self_s = defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    steps = traj = nodes = node_points = grid_s = vertices = 0.0
    grid_peak = 0.0
    integrate_s = 0.0
    svd_in_solve = solves = 0
    cli_ms = defaultdict(list)
    traced = set(rounds)
    gen_calls = defaultdict(float)
    gen_self = defaultdict(float)

    def ancestor(idx, name):
        while idx >= 0:
            if spans[idx][0] == name:
                return idx
            idx = spans[idx][3]
        return -1

    for idx, (name, start, end, parent, info, rnd) in enumerate(spans):
        own = end - start - child_time[idx]
        if name.startswith("generators."):
            key = "setup" if rnd == -1 else "rounds"
            gen_calls[key] += 1
            gen_self[key] += own
        if rnd not in traced:
            continue
        count[name] += 1
        self_s[name] += own
        layer_self[name.split(".")[0]] += own
        if name == "dynamics.integrate" and info:
            steps += info["steps"]
            traj += info["bytes"]
            integrate_s += end - start
        elif name == "field.velocity_grid" and info:
            nodes += info["nodes"]
            node_points += info["nodes"] * info["points"]
            grid_s += end - start
            grid_peak = max(grid_peak, info.get("peak_bytes", 0))
        elif name == "field.trace_streamline" and info:
            vertices += info["vertices"]
        elif name == "cli.main" and info:
            cli_ms[info["command"]].append((end - start) * 1e3)
            if info["command"] == "solve" and info["exit"] == 0:
                solves += 1
        elif name == "linalg.svd":
            top = ancestor(parent, "cli.main")
            if top >= 0 and spans[top][4] and spans[top][4]["command"] == "solve" and spans[top][4]["exit"] == 0:
                svd_in_solve += 1

    r = max(len(traced), 1)
    per = lambda v: v / r  # noqa: E731
    ms = lambda v: v * 1e3 / r  # noqa: E731
    svd_calls = per(count["linalg.svd"])
    if cli_ms:
        svd_per_config = svd_in_solve / solves if solves else 0.0
    else:
        configs = per(count["equilibrium.solve_strengths"])
        svd_per_config = svd_calls / configs if configs else 0.0
    values = {
        "linalg.svd.calls": svd_calls,
        "linalg.svd.self_ms": ms(self_s["linalg.svd"]),
        "linalg.svd_per_config": svd_per_config,
        "linalg.eigenvalues.self_ms": ms(self_s["linalg.eigenvalues"]),
        "linalg.pfaffian.self_ms": ms(self_s["linalg.pfaffian"]),
        "linalg.self_ms": ms(layer_self["linalg"]),
        "core.pointset.calls": per(count["core.pointset"]),
        "core.pointset_per_op": per(count["core.pointset"]) / max(ops_per_round, 1),
        "core.build_matrix.calls": per(count["core.build_matrix"]),
        "core.build_matrix.self_ms": ms(self_s["core.build_matrix"]),
        "spectrum.spectral_report.self_ms": ms(self_s["spectrum.spectral_report"]),
        "equilibrium.solve_strengths.calls": per(count["equilibrium.solve_strengths"]),
        "equilibrium.solve_strengths.self_ms": ms(self_s["equilibrium.solve_strengths"]),
        "dynamics.rk4_steps": per(steps),
        "dynamics.point_velocities.calls": per(count["dynamics.point_velocities"]),
        "dynamics.point_velocities.self_ms": ms(self_s["dynamics.point_velocities"]),
        "dynamics.integrate.self_ms": ms(self_s["dynamics.integrate"]),
        "dynamics.step_us": integrate_s / steps * 1e6 if steps else 0.0,
        "dynamics.trajectory_mb": per(traj) / 1e6,
        "field.grid_nodes": per(nodes),
        "field.velocity_grid.self_ms": ms(self_s["field.velocity_grid"]),
        "field.ns_per_node_point": grid_s / node_points * 1e9 if node_points else 0.0,
        "field.velocity_grid.peak_mb": grid_peak / 1e6,
        "field.streamline_vertices": per(vertices),
        "field.trace_streamline.self_ms": ms(self_s["field.trace_streamline"]),
        "field.far_field_deviation.self_ms": ms(self_s["field.far_field_deviation"]),
        "generators.calls": gen_calls["setup"] + gen_calls["rounds"] / r,
        "generators.self_ms": (gen_self["setup"] + gen_self["rounds"] / r) * 1e3,
        "cli.self_ms": ms(self_s["cli.main"]),
        "cli.bytes_written": bytes_per_round,
        "trace.overhead_pct": overhead_pct,
    }
    for c in CLI_COMMANDS:
        calls = cli_ms.get(c, [])
        values[f"cli.{c}.ms"] = sum(calls) / len(calls) if calls else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
