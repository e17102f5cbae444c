"""Time integration of interacting singularities and the analytic tracer orbit.

The N-body system moves each singularity with the field of all the others:
dz_a/dt = conj((1/2 pi i) sum_{b != a} Gamma_b / (z_a - z_b)), which is the
complex conjugate of row a of A Gamma / (2 pi i). Solved equilibria
therefore sit still, and integrating them is the physical check on the
algebra. A passive tracer in the field of one singularity has a closed-form
orbit in polar coordinates, used as the oracle for the integrator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (DELTA_MIN_DEFAULT, ComplexArray, FloatArray, PointSet, _check_separation,
                   _closest_pair, _differences, _inputs, _pair_buffer)
from .errors import CollapseReached, CollisionAbort
from .field import _field_sum

#: Most step positions, (steps + 1) x N, a run may take (a tracer is N = 1).
#: The default verify (1000 steps) fits up to MAX_POINTS points.
MAX_TRAJECTORY_POSITIONS = 2**24


@dataclass(frozen=True)
class OrbitParams:
    """Tracer initial condition (r0, theta0) in the field of one
    singularity of strength gamma at the origin."""

    gamma: complex
    r0: float
    theta0: float = 0.0

    def __post_init__(self):
        if not (self.r0 > 0.0 and math.isfinite(self.r0)):
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if not (cmath.isfinite(self.gamma) and math.isfinite(self.theta0)):
            raise ValueError(f"gamma and theta0 must be finite, got {self.gamma}, {self.theta0}")


@dataclass(frozen=True)
class CollisionEvent:
    time: float
    pair: tuple[int, int]
    distance: float


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Sampled trajectories: positions[k, a] is point a at times[k]."""

    times: FloatArray
    positions: ComplexArray
    events: tuple


def collapse_time(p: OrbitParams) -> float:
    """Time at which a tracer spirals into a sink; inf for non-sinks."""
    if p.gamma.imag >= 0.0:
        return math.inf
    return math.pi * p.r0 * p.r0 / (-p.gamma.imag)


def single_orbit(p: OrbitParams, t: float) -> tuple[float, float]:
    """Analytic tracer orbit (r(t), theta(t)).

    Integrating dr/dt = Gamma_i / (2 pi r) and dtheta/dt = Gamma_r / (2 pi r^2)
    gives r^2 = r0^2 + Gamma_i t / pi, with theta advancing by
    (Gamma_r / 2 Gamma_i) ln(1 + Gamma_i t / (pi r0^2)) when Gamma_i != 0
    and by Gamma_r t / (2 pi r0^2) on the circular branch. theta is
    continuous (not wrapped), so full turns accumulate.

    Raises
    ------
    CollapseReached
        For a sink at or past its collapse time pi r0^2 / (-Gamma_i).
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    gr, gi = p.gamma.real, p.gamma.imag
    if gi < 0.0 and t >= collapse_time(p):
        raise CollapseReached(
            f"tracer reaches the sink at t = {collapse_time(p):.6g}, requested t = {t:.6g}"
        )
    r_sq = p.r0 * p.r0 + gi * t / math.pi
    r = math.sqrt(r_sq)
    if gi == 0.0:
        theta = p.theta0 + gr * t / (2.0 * math.pi * p.r0 * p.r0)
    else:
        theta = p.theta0 + (gr / (2.0 * gi)) * math.log1p(gi * t / (math.pi * p.r0 * p.r0))
    return r, theta


def integrate_tracer(p: OrbitParams, t_final: float, dt: float = 1e-4) -> tuple[float, float]:
    """RK4 on the polar tracer ODEs; the numerical side of the orbit oracle.

    dr/dt = Gamma_i / (2 pi r) and dtheta/dt = Gamma_r / (2 pi r^2) depend
    on r alone, so only r is carried through the stages. The state is two
    Python floats: each step makes the same IEEE operations, in the same
    order, as RK4 on a 2-vector, without an array per stage.

    Raises
    ------
    ValueError
        Unless t_final >= 0 and dt > 0 are finite and the run fits MAX_TRAJECTORY_POSITIONS.
    CollapseReached
        When a stage reaches r <= 0, as a sink does at its collapse time.
    """
    if not (0.0 <= t_final < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"need finite t_final >= 0 and dt > 0, got t_final={t_final}, dt={dt}")
    _step_bound(t_final, dt, 1)
    gr, gi = p.gamma.real, p.gamma.imag
    two_pi = 2.0 * math.pi

    def rates(r):
        if r <= 0.0:
            raise CollapseReached("tracer radius reached zero during integration")
        s = two_pi * r
        d = s * r
        # r * r underflows to 0 below r ~ 1e-162, where IEEE gives gr / +0 = gr * inf
        return gi / s, (gr / d if d else gr * math.inf)

    r, theta = float(p.r0), float(p.theta0)
    t = 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        h = min(dt, t_final - t)
        dr1, dth1 = rates(r)
        dr2, dth2 = rates(r + 0.5 * h * dr1)
        dr3, dth3 = rates(r + 0.5 * h * dr2)
        dr4, dth4 = rates(r + h * dr3)
        r = r + (h / 6.0) * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
        theta = theta + (h / 6.0) * (dth1 + 2.0 * dth2 + 2.0 * dth3 + dth4)
        t += h
    return r, theta


def point_velocities(points, strengths) -> ComplexArray:
    """Velocity of every singularity under all the others (self excluded).

    Componentwise this is conj((A Gamma)_a / (2 pi i)), so it vanishes
    exactly on equilibria. A point's own term is Gamma_a / inf = 0, so a
    lone point gets a zero velocity from the same sum. Plain positions
    closer than the separation floor raise DegenerateConfiguration.
    """
    z, gamma = _inputs(points, strengths)
    diff = _differences(z, *_pair_buffer(z.size))
    if not isinstance(points, PointSet):
        _check_separation(np.abs(diff))
    return _field_sum(diff, gamma)


def _step_bound(t_final: float, dt: float, n: int) -> float:
    """ceil(t_final / dt), unless (steps + 1) x n exceeds MAX_TRAJECTORY_POSITIONS."""
    steps = -(-t_final // dt)  # a float ceil, so an infinite quotient is refused too
    if (needed := (steps + 1.0) * n) > MAX_TRAJECTORY_POSITIONS:
        raise ValueError(f"{steps:.6g} steps of {n} point{'s' * (n != 1)} need {needed:.6g}"
                         f" step positions, more than the bound of {MAX_TRAJECTORY_POSITIONS}")
    return steps


def _rk4_run(points, strengths, t_final: float, dt: float):
    """integrate's and fixedness_check's RK4 run. next() first checks, allocates
    and yields (z0, ceil(t_final / dt), events), then (t, z) after each step.

    A stage whose pairwise differences repeat, to the bit, those last summed
    copies the row written last (hit or miss: the combination overwrites
    k3), and a step's check keeps the separation of differences it passed."""
    if not (0.0 < t_final < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"need finite t_final > 0 and dt > 0, got t_final={t_final}, dt={dt}")
    z, gamma = _inputs(points, strengths)
    n = z.size
    steps = _step_bound(t_final, dt, n)

    diff, diag = _pair_buffer(n)
    gap = np.empty((n, n))
    stages = np.empty((4, n), dtype=np.complex128)
    k1, k2, k3, k4 = stages
    speed = np.empty((4, n))
    work = np.empty(n, dtype=np.complex128)
    events: list[CollisionEvent] = []
    warned: set[tuple[int, int]] = set()
    # bytes of the differences last summed, whether a step's check passed them, the row written last
    key, checked, last = b"", False, k4
    sep, pair = math.inf, (0, 1)  # set by the first step's check

    def evaluate(x, row, t=None):
        """x's field into row, copied from last if the bytes of x's differences are
        key. A step's first stage (t given) checks the separation first, unless
        the differences are key and passed that check."""
        nonlocal key, checked, last, sep, pair
        same = (d := _differences(x, diff, diag).tobytes()) == key
        if t is not None and not (same and checked):
            np.abs(diff, out=gap)
            pair = _closest_pair(gap)
            sep = float(gap[pair])
            if sep < DELTA_MIN_DEFAULT:
                raise CollisionAbort(f"points {pair[0]} and {pair[1]} collided at t = {t:.6g}"
                                     f" (distance {sep:.3e})", time=t, pair=pair, distance=sep)
            if sep < 10.0 * DELTA_MIN_DEFAULT and pair not in warned:
                warned.add(pair)
                events.append(CollisionEvent(t, pair, sep))
        if same:
            row[:] = last
        else:
            _field_sum(diff, gamma, row)
            key, checked = d, False
        checked = checked or t is not None
        last = row

    yield z, steps, events
    t = 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        h = min(dt, t_final - t)
        evaluate(z, k1, t)
        np.add(z, np.multiply(0.5 * h, k1, out=work), out=work)
        evaluate(work, k2)
        np.add(z, np.multiply(0.5 * h, k2, out=work), out=work)
        evaluate(work, k3)
        np.add(z, np.multiply(h, k3, out=work), out=work)
        evaluate(work, k4)
        # A non-finite stage makes reach NaN, which aborts like a blow-up.
        reach = h * float(np.abs(stages, out=speed).max())
        if not reach <= 0.25 * sep:
            raise CollisionAbort(
                f"step displacement {reach:.3e} exceeds a quarter of the closest"
                f" separation {sep:.3e} at t = {t:.6g}; collision unresolvable at dt = {dt}",
                time=t, pair=pair, distance=sep,
            )
        # z + (h / 6) (k1 + 2 k2 + 2 k3 + k4), left to right; k3 is spent
        np.add(k1, np.multiply(2.0, k2, out=work), out=work)
        np.add(work, np.multiply(2.0, k3, out=k3), out=work)
        np.add(work, k4, out=work)
        z = z + np.multiply(h / 6.0, work, out=work)
        t += h
        yield t, z


def integrate(points, strengths, t_final: float, dt: float = 1e-3) -> TrajectorySet:
    """Classical fixed-step RK4 on the N-singularity system, every step kept.

    Near-collision events (pair distance under 10x the separation floor)
    are recorded once per pair. Contact below the floor aborts, and so does
    a step whose RK4 stages would move a point by more than a quarter of the
    closest separation: past that, as near a collapsing pair, the distance
    can change faster than the collision check samples it. A stage whose
    pairwise differences repeat those last summed to the bit reuses their
    field, which depends on the differences alone.

    Raises
    ------
    ValueError
        Unless t_final and dt are finite and positive, the configuration
        has 1 to MAX_POINTS points and the trajectory at most
        MAX_TRAJECTORY_POSITIONS positions; nothing is allocated first.
    CollisionAbort
        Carrying (time, pair, distance) of the offending pair.
    """
    run = _rk4_run(points, strengths, t_final, dt)
    z, steps, events = next(run)
    # rounding in t can take one step more than ceil(t_final / dt)
    times = np.zeros(int(steps) + 2)
    positions = np.empty((times.size, z.size), dtype=np.complex128)
    positions[0] = z
    k = 0
    for k, (t, z) in enumerate(run, 1):
        times[k], positions[k] = t, z
    times, positions = times[: k + 1], positions[: k + 1]
    times.setflags(write=False)
    positions.setflags(write=False)
    return TrajectorySet(times, positions, tuple(events))


def fixedness_check(points, strengths, t_final: float = 1.0, dt: float = 1e-3) -> float:
    """Max displacement of any point from its start over the run integrate
    takes, with the same checks and aborts but no trajectory kept. Solved
    equilibria stay below integrator accuracy (around 1e-8 over unit time);
    anything materially above that is not an equilibrium. A drift of zero
    bounds the speeds only below about ulp(|z|) / (2 dt), where each
    increment rounds away against its position; the kernel residual is
    the finer check. Where every increment rounds away against the
    differences, each stage repeats those last summed to the bit, and the
    run takes one field sum (integrate's reuse rule)."""
    run = _rk4_run(points, strengths, t_final, dt)
    z0 = next(run)[0]
    far = np.zeros(z0.size)
    for _, z in run:
        np.maximum(far, np.abs(z - z0), out=far)
    return float(far.max())
