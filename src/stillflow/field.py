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
from functools import partial

import numpy as np

from .core import (
    ComplexArray,
    DELTA_MIN_DEFAULT,
    FloatArray,
    PointSet,
    as_positions,
    as_strength_values,
)
from .equilibrium import center_of_vorticity
from .errors import SingularPoint, UndefinedFarField

#: Node-point terms per block of the lattice in velocity_grid: 2**16
#: complex elements, 1 MB per temporary. With W shares, each share's
#: block holds 2**16 // W terms.
_BLOCK_ELEMENTS = 1 << 16

#: Most nodes velocity_grid samples: 68 MB of returned arrays.
MAX_GRID_NODES = 4_000_000


def _cpu_count() -> int:
    """CPUs this process may run on: the most shares a lattice is split into."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(inbox) -> None:
    """A worker thread's loop: run each share it is sent, report how it ended."""
    while True:
        share, k, done = inbox.get()
        failure = None
        try:
            share()
        except BaseException as exc:  # re-raised by the caller, in _Pool.run
            failure = exc
        # Hold nothing of a finished lattice while waiting for the next one;
        # the share goes first, since the caller may return once it hears.
        del share
        done.put((k, failure))
        del done, failure


class _Pool:
    """Daemon worker threads, started as lattices first need them and kept
    for the life of the process."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        # A forked child has none of its parent's threads, and this lock may
        # have been held by one of them when the fork happened.
        self._lock = threading.Lock()
        self._inboxes = []

    def run(self, shares) -> None:
        """Run shares[0] on the calling thread and each other share on a
        worker. Once every share has finished, raise the failure of the
        first share that failed."""
        # queue is imported with the first pool that starts, not with the module
        from queue import SimpleQueue

        with self._lock:
            while len(self._inboxes) < len(shares) - 1:
                inbox = SimpleQueue()
                threading.Thread(target=_serve, args=(inbox,), daemon=True).start()
                self._inboxes.append(inbox)
            inboxes = self._inboxes[: len(shares) - 1]
        # each call has its own done queue, so callers running at once can
        # share the workers
        done = SimpleQueue()
        for k, (inbox, share) in enumerate(zip(inboxes, shares[1:]), 1):
            inbox.put((share, k, done))
        failures = [None] * len(shares)
        try:
            shares[0]()
        except Exception as exc:
            failures[0] = exc
        for _ in shares[1:]:
            k, failures[k] = done.get()
        for failure in failures:
            if failure is not None:
                raise failure


_POOL = _Pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.reset)


@dataclass(frozen=True)
class Window:
    """Axis-aligned view rectangle."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            raise ValueError(f"window rectangle is empty or not finite: {self}")

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


def _inputs(points, strengths) -> tuple[ComplexArray, ComplexArray, float]:
    """Positions, strengths of the same size, and the separation floor."""
    positions = as_positions(points)
    gamma = as_strength_values(strengths)
    if positions.size != gamma.size:
        raise ValueError(f"{positions.size} points but {gamma.size} strengths")
    floor = points.delta_min if isinstance(points, PointSet) else DELTA_MIN_DEFAULT
    return positions, gamma, floor


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


def _outside_floor(z: complex, positions: ComplexArray, floor: float) -> ComplexArray:
    """The differences z - z_b, unless z is within the floor of a point."""
    diff = z - positions
    dist = np.abs(diff)
    nearest = int(np.argmin(dist))
    if dist[nearest] < floor:
        raise SingularPoint(f"probe at {z} is within {dist[nearest]:.3e}"
                            f" of singularity {nearest}")
    return diff


def velocity_at(points, strengths, z: complex) -> complex:
    """Velocity of the superposed field at one probe.

    Raises
    ------
    SingularPoint
        If the probe is within the separation floor of a singularity
        (the field blows up as 1/distance there).
    """
    positions, gamma, floor = _inputs(points, strengths)
    return complex(_field_sum(_outside_floor(complex(z), positions, floor), gamma))


def velocity_grid(points, strengths, window: Window, nx: int, ny: int) -> FieldGrid:
    """Sample the field on an nx-by-ny lattice over the window.

    Nodes that fall within the separation floor of a singularity are
    flagged and given velocity zero so downstream consumers never see
    non-finite values.

    The lattice is evaluated in blocks of whole nodes. A lattice of two or
    more blocks is split into W shares, W being the number of CPUs the
    process may run on, but at most the number of blocks. The calling
    thread runs one share and worker threads, started by the first such
    lattice and kept for the process, run the others; numpy releases the
    interpreter lock inside each block's sums. A share's blocks hold at
    most 2**16 // W node-point terms (or one node, if a node has more), so
    no temporary exceeds 1 MB, and the working memory beyond the returned
    arrays stays under 6 MB (about 2 MB from seven points up) whatever nx,
    ny and W, while a node has at most 2**16 // W terms. Each node's sum
    runs over the points in order, so the values depend neither on the
    block size nor on W: every grid is bit-identical to a one-thread sum.

    Raises
    ------
    ValueError
        If nx or ny is below 2, or the lattice has more than
        MAX_GRID_NODES nodes; nothing is allocated first.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx, ny >= 2, got {nx}, {ny}")
    if nx * ny > MAX_GRID_NODES:
        raise ValueError(f"need nx * ny <= {MAX_GRID_NODES}, got {nx} * {ny}")
    positions, gamma, floor = _inputs(points, strengths)
    xs = np.linspace(window.x_min, window.x_max, nx)
    ys = np.linspace(window.y_min, window.y_max, ny)
    vel = np.empty((ny, nx), dtype=np.complex128)
    singular = np.zeros((ny, nx), dtype=bool)
    flat_vel, flat_singular = vel.reshape(-1), singular.reshape(-1)
    full_blocks = -(-nx * ny // max(1, _BLOCK_ELEMENTS // positions.size))
    workers = min(_cpu_count(), full_blocks)
    block = max(1, _BLOCK_ELEMENTS // workers // positions.size)
    starts = range(0, nx * ny, block)

    def share(starts, diff_buf, dist_buf):
        for lo in starts:
            hi = min(lo + block, nx * ny)
            row, col = np.divmod(np.arange(lo, hi), nx)
            nodes = xs[col] + 1j * ys[row]
            diff = np.subtract(nodes[:, None], positions, out=diff_buf[: hi - lo])
            dist = np.abs(diff, out=dist_buf[: hi - lo])
            if dist.min() < floor:
                hit = (dist < floor).any(axis=1)
                flat_singular[lo:hi] = hit
                # a unit difference keeps the discarded terms of flagged nodes finite
                diff[hit] = 1.0
            _field_sum(diff, gamma, out=flat_vel[lo:hi])

    # every share's buffers are allocated here, before any share starts
    shares = [partial(share, starts[k::workers],
                      np.empty((block, positions.size), dtype=np.complex128),
                      np.empty((block, positions.size)))
              for k in range(workers)]
    if workers == 1:
        shares[0]()
    else:
        _POOL.run(shares)
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
        If the step is zero or not finite.
    SingularPoint
        If the start itself is inside the singular zone.
    """
    if step == 0.0 or not math.isfinite(step):
        raise ValueError(f"step must be finite and nonzero, got {step}")
    positions, gamma, floor = _inputs(points, strengths)
    if window is None:
        window = default_window(points)
    approach = max(10.0 * floor, abs(step))
    stagnant = 1e-12 * max(float(np.abs(gamma).max()), 1.0)

    def direction(diff):
        v = complex(_field_sum(diff, gamma))
        speed = abs(v)
        return None if speed <= stagnant else v / speed

    z = complex(start)
    diff = _outside_floor(z, positions, floor)
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
        When the total strength cancels (no single-singularity far field).
    ValueError
        If the radius is not finite or is inside three configuration
        diameters.
    """
    positions, gamma, _ = _inputs(points, strengths)
    total = complex(gamma.sum())
    if abs(total) <= 1e-9 * float(np.abs(gamma).sum()):
        raise UndefinedFarField("total strength cancels; far field decays faster than 1/r")
    points = points if isinstance(points, PointSet) else PointSet(positions)
    center = center_of_vorticity(points, gamma).value
    diameter = points.diameter()
    if not 3.0 * diameter <= radius < math.inf:
        raise ValueError(f"radius must be finite and at least 3x the configuration"
                         f" diameter {diameter:.3g}, got {radius}")
    angles = 2.0 * math.pi * np.arange(64) / 64
    probes = (center + radius * np.exp(1j * angles))[:, None]
    v_conf = _field_sum(probes - positions, gamma)
    v_single = _field_sum(probes - center, np.array([total]))
    return float((np.abs(v_conf - v_single) / np.abs(v_single)).max())
