"""Deterministic, seedable generation of point configurations.

Lines, circles, polar curves (four-petal flower r = cos 2theta and figure
eight r = cos^2 theta), and uniform rectangles. All randomness goes through
numpy's default PCG64 generator so a (generator, n, seed) triple always
reproduces the identical PointSet, bit for bit; n runs from 2 to MAX_POINTS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_POINTS, PointSet
from .errors import DegenerateConfiguration
from .field import Window

#: Dense table resolution for arclength inversion.
ARCLENGTH_SAMPLES = 100_000

#: Redraw attempts for random placements before giving up.
RETRY_CAP = 50

CURVES = ("flower", "figure_eight")
CURVE_DISTRIBUTIONS = ("even_arclength", "even_parameter", "random_parameter")


@dataclass(frozen=True)
class CurveSpec:
    """A polar curve z = r(theta) e^{i(theta + phase)} plus placement rule.

    Negative radius reflects through the origin (signed-radius convention),
    which is what draws all four petals of the flower.
    """

    curve: str
    distribution: str = "even_arclength"
    phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        if self.curve not in CURVES:
            raise ValueError(f"curve must be one of {CURVES}, got {self.curve!r}")
        if self.distribution not in CURVE_DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {CURVE_DISTRIBUTIONS}, got {self.distribution!r}"
            )

    def radius_at(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if self.curve == "flower":
            return np.cos(2.0 * theta)
        return np.cos(theta) ** 2


@dataclass(frozen=True)
class RegionSpec(Window):
    """A Window and the seed for uniform draws inside it."""

    seed: int = 0


def _check_count(n: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"need n <= {MAX_POINTS}, got {n}")


def _retry(seed, draw, what: str) -> PointSet:
    """PointSet(draw(rng)) of the first of RETRY_CAP draws that is admissible,
    every draw taken from one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(RETRY_CAP):
        try:
            return PointSet(draw(rng))
        except DegenerateConfiguration as exc:
            last = exc
    raise DegenerateConfiguration(f"{what}: no admissible draw in {RETRY_CAP} attempts ({last})")


def generate_collinear(n: int, distribution: str = "even", seed: int | None = None) -> PointSet:
    """Points on the real segment [0, 1].

    even: the uniform grid k/(n-1). random: endpoints pinned at 0 and 1
    with n-2 sorted uniform interior draws.
    """
    _check_count(n)
    if distribution == "even":
        return PointSet(np.linspace(0.0, 1.0, n).astype(np.complex128))
    if distribution != "random":
        raise ValueError(f"distribution must be 'even' or 'random', got {distribution!r}")

    def draw(rng):
        inner = np.sort(rng.uniform(0.0, 1.0, n - 2))
        return np.concatenate([[0.0], inner, [1.0]]).astype(np.complex128)

    return _retry(seed, draw, f"collinear n={n}")


def generate_circle(
    n: int,
    distribution: str = "even",
    radius: float = 1.0,
    phase: float = 0.0,
    seed: int | None = None,
) -> PointSet:
    """Points on a circle, either the n-th roots of unity pattern
    z_k = radius e^{i(2 pi k / n + phase)} or sorted uniform random angles."""
    _check_count(n)
    if not (0.0 < radius < math.inf and math.isfinite(phase)):
        raise ValueError(f"need a positive finite radius and a finite phase, got {radius}, {phase}")
    if distribution == "even":
        k = np.arange(n)
        return PointSet(radius * np.exp(1j * (2.0 * np.pi * k / n + phase)))
    if distribution != "random":
        raise ValueError(f"distribution must be 'even' or 'random', got {distribution!r}")

    def draw(rng):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        return radius * np.exp(1j * (angles + phase))

    return _retry(seed, draw, f"circle n={n}")


@functools.cache
def _arclength_table(curve: str):
    """Cumulative arclength s(theta) on a dense uniform grid, by the
    trapezoid rule on the polar speed sqrt(r'^2 + r^2).

    The table depends on the curve alone (not the phase, n or seed), so it
    is computed once per process, and its arrays are read-only.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, ARCLENGTH_SAMPLES + 1)
    r = CurveSpec(curve).radius_at(theta)
    dr = np.gradient(r, theta)
    speed = np.hypot(dr, r)
    ds = 0.5 * (speed[1:] + speed[:-1]) * np.diff(theta)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    theta.flags.writeable = False
    s.flags.writeable = False
    return theta, s


def generate_polar_curve(spec: CurveSpec, n: int, seed: int | None = None) -> PointSet:
    """Points on a polar curve, placed according to spec.distribution.

    even_arclength inverts the curve's cumulative arclength table at equal
    increments; even_parameter takes theta_k = 2 pi k / n; random_parameter
    draws sorted uniform thetas. Placements whose points collide (curves
    pass through the origin) raise DegenerateConfiguration; random draws
    are retried first.
    """
    _check_count(n)

    def place(theta):
        return spec.radius_at(theta) * np.exp(1j * (theta + spec.phase))

    if spec.distribution == "even_parameter":
        theta = 2.0 * np.pi * np.arange(n) / n
        return PointSet(place(theta))
    if spec.distribution == "even_arclength":
        grid, s = _arclength_table(spec.curve)
        targets = s[-1] * np.arange(n) / n
        theta = np.interp(targets, s, grid)
        return PointSet(place(theta))

    def draw(rng):
        return place(np.sort(rng.uniform(0.0, 2.0 * np.pi, n)))

    return _retry(seed, draw, f"{spec.curve} n={n}")


def generate_random_plane(n: int, region: RegionSpec) -> PointSet:
    """Independent uniform draws over the region's rectangle."""
    _check_count(n)

    def draw(rng):
        x = rng.uniform(region.x_min, region.x_max, n)
        y = rng.uniform(region.y_min, region.y_max, n)
        return x + 1j * y

    return _retry(region.seed, draw, f"random plane n={n}")
