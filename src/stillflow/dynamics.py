"""Time integration of interacting singularities and the analytic tracer orbit.

The N-body system moves each singularity with the field of all the others:
dz_a/dt = conj((1/2 pi i) sum_{b != a} Gamma_b / (z_a - z_b)), which is the
complex conjugate of row a of A Gamma / (2 pi i). Solved equilibria
therefore sit still, and integrating them is the physical check on the
algebra. A passive tracer in the field of one singularity has a closed-form
orbit in polar coordinates, used as the oracle for the integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexArray, FloatArray
from .errors import CollapseReached, CollisionAbort
from .field import _inputs


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
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
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
    """RK4 on the polar tracer ODEs; the numerical side of the orbit oracle."""
    if t_final < 0.0 or dt <= 0.0:
        raise ValueError("need t_final >= 0 and dt > 0")

    def rhs(state):
        r, _ = state
        if r <= 0.0:
            raise CollapseReached("tracer radius reached zero during integration")
        return np.array(
            [p.gamma.imag / (2.0 * math.pi * r), p.gamma.real / (2.0 * math.pi * r * r)]
        )

    state = np.array([p.r0, p.theta0])
    t = 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        h = min(dt, t_final - t)
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return float(state[0]), float(state[1])


def point_velocities(points, strengths) -> ComplexArray:
    """Velocity of every singularity under all the others (self excluded).

    Componentwise this is conj((A Gamma)_a / (2 pi i)), so it vanishes
    exactly on equilibria. A single point never moves itself.
    """
    z, gamma, _ = _inputs(points, strengths)
    if z.size == 1:
        return np.zeros(1, dtype=np.complex128)
    return _velocities(_differences(z), gamma)


def _differences(z: ComplexArray) -> ComplexArray:
    """z_a - z_b with a unit diagonal, so that dividing by it stays finite."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff


def _velocities(diff: ComplexArray, gamma: ComplexArray) -> ComplexArray:
    """point_velocities on validated input, given _differences of the points."""
    terms = gamma / diff
    np.fill_diagonal(terms, 0.0)
    return np.conj(terms.sum(axis=1) / (2.0j * math.pi))


def _closest_pair(diff: ComplexArray) -> tuple[float, tuple[int, int]]:
    gap = np.abs(diff)
    np.fill_diagonal(gap, np.inf)
    a, b = divmod(int(np.argmin(gap)), gap.shape[0])
    return float(gap[a, b]), (min(a, b), max(a, b))


def integrate(points, strengths, t_final: float, dt: float = 1e-3) -> TrajectorySet:
    """Classical fixed-step RK4 on the N-singularity system.

    Near-collision events (pair distance under 10x the separation floor)
    are recorded once per pair; contact below the floor itself aborts. The
    step is also aborted when any RK4 stage would move a point by more
    than a quarter of the current closest separation: past that the pair
    distance can change faster than the collision check samples it, which
    is exactly the blow-up regime near a collapsing pair.

    Raises
    ------
    CollisionAbort
        Carrying (time, pair, distance) of the offending pair.
    """
    if t_final <= 0.0 or dt <= 0.0:
        raise ValueError("need t_final > 0 and dt > 0")
    z, gamma, delta_min = _inputs(points, strengths)

    times = [0.0]
    history = [z]
    events: list[CollisionEvent] = []
    warned: set[tuple[int, int]] = set()
    lone = z.size == 1
    still = np.zeros(1, dtype=np.complex128)

    t = 0.0
    while t < t_final - 1e-12 * max(t_final, 1.0):
        h = min(dt, t_final - t)
        if lone:
            k1 = k2 = k3 = k4 = still
        else:
            diff = _differences(z)
            sep, pair = _closest_pair(diff)
            if sep < delta_min:
                raise CollisionAbort(
                    f"points {pair[0]} and {pair[1]} collided at t = {t:.6g}"
                    f" (distance {sep:.3e})",
                    time=t, pair=pair, distance=sep,
                )
            if sep < 10.0 * delta_min and pair not in warned:
                warned.add(pair)
                events.append(CollisionEvent(t, pair, sep))
            k1 = _velocities(diff, gamma)
            k2 = _velocities(_differences(z + 0.5 * h * k1), gamma)
            k3 = _velocities(_differences(z + 0.5 * h * k2), gamma)
            k4 = _velocities(_differences(z + h * k3), gamma)
            # A non-finite stage makes reach NaN, which aborts like a blow-up.
            reach = h * float(np.abs((k1, k2, k3, k4)).max())
            if not reach <= 0.25 * sep:
                raise CollisionAbort(
                    f"step displacement {reach:.3e} exceeds a quarter of the closest"
                    f" separation {sep:.3e} at t = {t:.6g}; collision unresolvable at dt = {dt}",
                    time=t, pair=pair, distance=sep,
                )
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        history.append(z)

    times_arr = np.asarray(times)
    pos = np.asarray(history)
    times_arr.setflags(write=False)
    pos.setflags(write=False)
    return TrajectorySet(times_arr, pos, tuple(events))


def fixedness_check(points, strengths, t_final: float = 1.0, dt: float = 1e-3) -> float:
    """Max displacement of any point from its start over the whole run.

    Solved equilibria stay below integrator accuracy (around 1e-8 over
    unit time); anything materially above that is not an equilibrium.
    """
    traj = integrate(points, strengths, t_final, dt)
    return float(np.abs(traj.positions - traj.positions[0]).max())
