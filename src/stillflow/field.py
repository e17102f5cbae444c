"""Superposed velocity field evaluation, streamlines, and far-field checks.

The flow induced at a probe z by the whole configuration is
v(z) = conj((1/2 pi i) sum_b Gamma_b / (z - z_b)). Multiplying every
strength by i rotates this field pointwise by -90 degrees, so vortex
patterns and source/sink patterns of the same equilibrium are orthogonal
families. Far from a configuration with nonzero total strength, the field
approaches that of one singularity at the center of vorticity.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (
    ComplexArray,
    DELTA_MIN_DEFAULT,
    FloatArray,
    PointSet,
    _inputs,
    as_positions,
)
from .equilibrium import center_of_vorticity
from .errors import SingularPoint, UndefinedFarField

#: Node-point terms per block of the lattice in velocity_grid: 2**16
#: complex elements, 1 MB per temporary. With W shares, each share's
#: tiles hold at most 2**16 // W terms.
_BLOCK_ELEMENTS = 1 << 16

#: Most nodes velocity_grid samples: 68 MB of returned arrays.
MAX_GRID_NODES = 4_000_000


def _cpu_count() -> int:
    """CPUs this process may run on: the most shares a lattice is split into."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle, with finite bounds and finite widths."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max
                and math.isfinite(self.x_max - self.x_min)
                and math.isfinite(self.y_max - self.y_min)):
            raise ValueError(f"rectangle is empty, or its bounds or widths are not"
                             f" finite: {self}")

    def contains(self, z: complex) -> bool:
        return self.x_min <= z.real <= self.x_max and self.y_min <= z.imag <= self.y_max


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Velocities sampled on a lattice; singular nodes flagged, not NaN.

    velocity[j, i] corresponds to (xs[i], ys[j]); singular marks nodes
    within the separation floor of a singularity, where the velocity is
    reported as zero rather than an overflow.
    """

    window: Window
    xs: FloatArray
    ys: FloatArray
    velocity: ComplexArray
    singular: np.ndarray


@dataclass(frozen=True, eq=False)
class Streamline:
    vertices: ComplexArray
    terminated_by: str


def default_window(points) -> Window:
    """Configuration bounding box padded by half its extent per side."""
    z = as_positions(points)
    x_min, x_max = float(z.real.min()), float(z.real.max())
    y_min, y_max = float(z.imag.min()), float(z.imag.max())
    pad = 0.5 * max(x_max - x_min, y_max - y_min, 1.0)
    return Window(x_min - pad, x_max + pad, y_min - pad, y_max + pad)


def _field_sum(diff: ComplexArray, gamma: ComplexArray, out=None):
    """conj(sum_b Gamma_b / diff[..., b] / (2 pi i)) over the last axis of diff.

    diff holds the differences z - z_b from each probe z to every point, and
    is overwritten with the terms. An infinite difference adds nothing, which
    is how a point's own term drops out of its velocity. One probe (1-D
    diff, no out) gives a numpy scalar.
    """
    np.divide(gamma, diff, out=diff)
    total = np.add.reduce(diff, axis=-1, out=out)
    return np.conjugate(total / (2.0j * math.pi), out=out)


def _outside_floor(z: complex, positions: ComplexArray) -> ComplexArray:
    """The differences z - z_b, unless z is not finite or is within the floor
    of a point."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"probe must be finite, got {z}")
    diff = z - positions
    dist = np.abs(diff)
    nearest = int(np.argmin(dist))
    if dist[nearest] < DELTA_MIN_DEFAULT:
        raise SingularPoint(f"probe at {z} is within {dist[nearest]:.3e}"
                            f" of singularity {nearest}")
    return diff


def velocity_at(points, strengths, z: complex) -> complex:
    """Velocity of the superposed field at one probe.

    Raises
    ------
    ValueError
        If the probe is not finite.
    SingularPoint
        If the probe is within the separation floor of a singularity
        (the field blows up as 1/distance there).
    """
    positions, gamma = _inputs(points, strengths)
    return complex(_field_sum(_outside_floor(complex(z), positions), gamma))


def velocity_grid(points, strengths, window: Window, nx: int, ny: int) -> FieldGrid:
    """Sample the field on an nx-by-ny lattice over the window.

    Nodes that fall within the separation floor of a singularity are
    flagged and given velocity zero so downstream consumers never see
    non-finite values.

    The lattice is cut into tiles: runs of whole rows, or segments of one
    row where a row has more node-point terms than a tile holds. A tile's
    differences z - z_b are written from two small tables, its columns' x
    minus every Re z_b and its rows' y minus every Im z_b, each formed
    exactly as that part of xs[i] + 1j * ys[j] - z_b is. |z - z_b| is at
    least the larger of the two parts, so a node can be within the floor
    of a point only in a tile where both tables come within the floor for
    that point, and only such a tile has its moduli taken.

    A lattice of two or more blocks of 2**16 node-point terms is split into
    W shares of interleaved tiles, W being the number of CPUs the process
    may run on, but at most the number of blocks. The calling thread runs
    one share and starts a thread for each of the others, and joins them
    all before it returns; numpy releases the interpreter lock inside each
    tile's sums. If shares fail, the failure of the first one in share
    order is raised once every share has finished. A share's tiles hold at
    most 2**16 // W node-point terms (or one node, if a node has more), so
    no temporary exceeds 1 MB, and the working memory beyond the returned
    arrays stays under 3 MB (about 2 MB from five points up) whatever nx,
    ny and W, while a node has at most 2**16 // W terms. Each node's sum
    runs over the points in order, so the values depend neither on the
    tiles nor on W: every grid is bit-identical to a one-thread sum.

    Raises
    ------
    ValueError
        If nx or ny is below 2, the lattice has more than MAX_GRID_NODES
        nodes or there are no points; nothing is allocated first.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx, ny >= 2, got {nx}, {ny}")
    if nx * ny > MAX_GRID_NODES:
        raise ValueError(f"need nx * ny <= {MAX_GRID_NODES}, got {nx} * {ny}")
    positions, gamma = _inputs(points, strengths)
    n = positions.size
    xs = np.linspace(window.x_min, window.x_max, nx)
    ys = np.linspace(window.y_min, window.y_max, ny)
    vel = np.empty((ny, nx), dtype=np.complex128)
    singular = np.zeros((ny, nx), dtype=bool)
    flat_vel, flat_singular = vel.reshape(-1), singular.reshape(-1)
    full_blocks = -(-nx * ny // max(1, _BLOCK_ELEMENTS // n))
    workers = min(_cpu_count(), full_blocks)
    block = max(1, _BLOCK_ELEMENTS // workers // n)
    # Node (i, j) is xs[i] + 1j * ys[j]: its real part is xs[i] plus a zero
    # signed like ys[j], which changes only a -0.0 (at most xs[-1]), and its
    # imaginary part is 0.0 + ys[j], which turns -0.0 into 0.0.
    iy = 1j * ys
    x_shift, y_parts = iy.real.tolist(), (0.0 + iy).imag
    runs = [0, ny]
    if ((xs == 0.0) & np.signbit(xs)).any():
        # a tile's rows share one x table, so runs of rows end where the zero's sign changes
        runs[1:1] = (np.flatnonzero(np.diff(np.signbit(iy.real))) + 1).tolist()

    # a tile is step whole rows, or a segment of one row width nodes long
    step, width = max(1, block // nx), min(nx, block)

    def tiles():
        """(r0, r1, c0, c1) of each tile in turn: rows r0:r1, columns c0:c1."""
        for start, end in zip(runs, runs[1:]):
            for r0 in range(start, end, step):
                for c0 in range(0, nx, width):
                    yield r0, min(r0 + step, end), c0, min(c0 + width, nx)

    # every point's imaginary part once per column of the widest tile
    z_imag = np.tile(positions.imag, width)

    def share(k):
        buf = np.empty(block * n, dtype=np.complex128)
        near_x_at = None
        for r0, r1, c0, c1 in islice(tiles(), k, None, workers):
            rows, cols = r1 - r0, c1 - c0
            lo, m = r0 * nx + c0, rows * cols
            diff = buf[: m * n]
            dx, dy = diff.real.reshape(rows, cols * n), diff.imag.reshape(rows, cols * n)
            # the first row's real parts are the x table, and the other rows copy it
            np.subtract((xs[c0:c1] + x_shift[r0])[:, None], positions.real,
                        out=dx[0].reshape(cols, n))
            dx[1:] = dx[0]
            if c0 != near_x_at:
                # the points some column comes within the floor of; the moduli
                # go to the first row's imaginary parts, written below
                near_x_at = c0
                near = np.flatnonzero(
                    np.abs(dx[0], out=dy[0]).reshape(cols, n).min(axis=0) < DELTA_MIN_DEFAULT)
            np.subtract(y_parts[r0:r1, None], z_imag[: cols * n], out=dy)
            diff = diff.reshape(m, n)
            if near.size and (np.abs(dy[:, near]) < DELTA_MIN_DEFAULT).any():
                hit = (np.abs(diff) < DELTA_MIN_DEFAULT).any(axis=1)
                flat_singular[lo : lo + m] = hit
                # a unit difference keeps the discarded terms of flagged nodes finite
                diff[hit] = 1.0
            _field_sum(diff, gamma, out=flat_vel[lo : lo + m])

    failures = [None] * workers

    def run(k):
        try:
            share(k)
        except BaseException as exc:  # raised in the caller, after the join
            failures[k] = exc

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        share(0)
    finally:
        for thread in started:
            thread.join()
    for exc in failures:
        if exc is not None:
            raise exc
    vel[singular] = 0.0
    for arr in (xs, ys, vel, singular):
        arr.setflags(write=False)
    return FieldGrid(window, xs, ys, vel, singular)


def trace_streamline(points, strengths, start: complex, step: float = 1e-2,
                     max_steps: int = 10_000, window: Window | None = None) -> Streamline:
    """March a streamline through the frozen field with arclength RK4 steps.

    The advected direction is v/|v|, so vertices are spaced by |step|
    regardless of speed; a negative step runs against the flow.
    Termination: leaving the window, exhausting max_steps, approaching a
    singularity closer than the larger of |step| and ten separation floors
    (the path cannot be resolved past that), or a stagnation point, where
    the speed is at most 1e-12 of the largest strength (or of 1) and the
    direction is undefined.

    Raises
    ------
    ValueError
        If the step is zero or not finite, max_steps is negative, or the
        start is not finite.
    SingularPoint
        If the start itself is inside the singular zone.
    """
    if step == 0.0 or not math.isfinite(step):
        raise ValueError(f"step must be finite and nonzero, got {step}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    positions, gamma = _inputs(points, strengths)
    if window is None:
        window = default_window(points)
    approach = max(10.0 * DELTA_MIN_DEFAULT, abs(step))
    stagnant = 1e-12 * max(float(np.abs(gamma).max()), 1.0)

    def direction(diff):
        v = complex(_field_sum(diff, gamma))
        speed = abs(v)
        return None if speed <= stagnant else v / speed

    z = complex(start)
    diff = _outside_floor(z, positions)
    vertices = [z]
    terminated = "step_limit"
    for _ in range(max_steps):
        if float(np.abs(diff).min()) < approach:
            terminated = "singularity_approach"
            break
        if not window.contains(z):
            terminated = "window_exit"
            break
        d1 = direction(diff)
        if d1 is None:
            terminated = "stagnation"
            break
        d2 = direction(z + 0.5 * step * d1 - positions)
        d3 = direction(z + 0.5 * step * d2 - positions) if d2 is not None else None
        d4 = direction(z + step * d3 - positions) if d3 is not None else None
        if d2 is None or d3 is None or d4 is None:
            terminated = "stagnation"
            break
        z = z + (step / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        vertices.append(z)
        diff = z - positions
    out = np.asarray(vertices, dtype=np.complex128)
    out.setflags(write=False)
    return Streamline(out, terminated)


def far_field_deviation(points, strengths, radius: float) -> float:
    """Worst relative mismatch against the equivalent single singularity.

    64 probes on the circle of the given radius about the center of vorticity
    compare the configuration's field with that of one singularity of the
    total strength at the center; the returned value is
    max |v_config - v_single| / |v_single|. The residual multipole falls
    one power of radius faster than the field itself, so doubling the
    radius divides this measure by about four.

    Raises
    ------
    UndefinedFarField
        When the total strength cancels below CENTER_TOL (no single far field).
    ValueError
        If the radius is not finite or is inside three configuration
        diameters.
    """
    positions, gamma = _inputs(points, strengths)
    points = points if isinstance(points, PointSet) else PointSet(positions)
    cov = center_of_vorticity(points, gamma)
    if not cov.defined:
        raise UndefinedFarField("total strength cancels; far field decays faster than 1/r")
    diameter = points.diameter()
    if not 3.0 * diameter <= radius < math.inf:
        raise ValueError(f"radius must be finite and at least 3x the configuration"
                         f" diameter {diameter:.3g}, got {radius}")
    angles = 2.0 * math.pi * np.arange(64) / 64
    probes = (cov.value + radius * np.exp(1j * angles))[:, None]
    v_conf = _field_sum(probes - positions, gamma)
    v_single = _field_sum(probes - cov.value, gamma.sum(keepdims=True))
    return float((np.abs(v_conf - v_single) / np.abs(v_single)).max())
