"""Configurations of point singularities and their interaction matrix.

A configuration is an ordered set of N distinct positions in the complex
plane. Its interaction matrix A holds 1/(z_a - z_b) off the diagonal and is
skew-symmetric by construction; a strength vector in the kernel of A makes
every singularity stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateConfiguration

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

#: Separation floor of every layer: a closer pair of points is degenerate,
#: and a probe this close to a point is singular. Entries grow as
#: 1/distance, so accuracy is lost well before exact coincidence.
DELTA_MIN_DEFAULT = 1e-9

#: Most points a configuration may hold, checked before an N x N work
#: matrix is allocated: the separation check holds about 24 N^2 bytes.
MAX_POINTS = 10_000

#: Largest coordinate a PointSet may hold: up to it no difference of two
#: positions overflows, nor the complex division that inverts one, so every
#: entry of the interaction matrix is finite.
MAX_COORDINATE = float(np.finfo(np.float64).max) / 4


def _as_complex_vector(values, name: str) -> ComplexArray:
    """Validate and copy a 1-D complex array; the result is read-only."""
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr.view(np.float64)).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def as_positions(points) -> ComplexArray:
    """Coerce a PointSet or plain complex sequence to a position array."""
    if isinstance(points, PointSet):
        return points.positions
    return _as_complex_vector(points, "points")


def as_strength_values(strengths) -> ComplexArray:
    """Coerce a StrengthVector or plain complex sequence to an array."""
    if isinstance(strengths, StrengthVector):
        return strengths.values
    return _as_complex_vector(strengths, "strengths")


def _adopt(cls, **field):
    """An instance of the frozen dataclass cls holding the given arrays, which
    nothing else holds, without its constructor's checks or copies; the
    arrays are made read-only."""
    obj = object.__new__(cls)
    for name, arr in field.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return obj


def _unit_scaled(parts: FloatArray, peak: float) -> FloatArray:
    """parts * 2^-e, e the exponent of peak > 0, so that peak * 2^-e is in
    [0.5, 1): exact wherever the parts stay normal doubles."""
    return np.ldexp(parts, -math.frexp(peak)[1])


def _inputs(points, strengths) -> tuple[ComplexArray, ComplexArray]:
    """Positions, at least one, and strengths of the same size."""
    positions, gamma = as_positions(points), as_strength_values(strengths)
    if positions.size == 0:
        raise ValueError("need at least 1 point, got 0")
    if positions.size != gamma.size:
        raise ValueError(f"{positions.size} points but {gamma.size} strengths")
    return positions, gamma


def _closest_pair(gap: FloatArray) -> tuple[int, int]:
    """(a, b), a < b, of the first least entry of a symmetric gap with an inf diagonal."""
    return divmod(int(gap.argmin()), gap.shape[0])


def _check_separation(gap: FloatArray) -> None:
    """Refuse separations gap that hold a pair closer than the floor."""
    a, b = _closest_pair(gap)
    if gap[a, b] < DELTA_MIN_DEFAULT:
        raise DegenerateConfiguration(f"points {a} and {b} are separated by {gap[a, b]:.3e}"
                                      f" (< delta_min {DELTA_MIN_DEFAULT:.3e})")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered, pairwise-distinct singularity positions.

    Parameters
    ----------
    positions:
        Complex plane coordinates z_1..z_N, 2 <= N <= MAX_POINTS, each real
        and imaginary part at most MAX_COORDINATE in magnitude. Any pair
        closer than DELTA_MIN_DEFAULT raises DegenerateConfiguration.
    """

    positions: ComplexArray

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_complex_vector(self.positions, "positions"))
        if self.positions.size < 2:
            raise ValueError(f"need at least 2 points, got {self.positions.size}")
        if np.abs(self.positions.view(np.float64)).max() > MAX_COORDINATE:
            raise ValueError(f"positions have a coordinate beyond {MAX_COORDINATE:.3e}")
        _check_separation(pairwise_distances(self.positions))

    @property
    def n(self) -> int:
        return self.positions.size

    def __len__(self) -> int:
        return self.positions.size

    def diameter(self) -> float:
        """Largest pairwise distance."""
        gap = pairwise_distances(self.positions)
        np.fill_diagonal(gap, 0.0)
        return float(gap.max())


def _pair_buffer(n: int) -> tuple[ComplexArray, ComplexArray]:
    """An n x n work matrix and a view of its diagonal, for n <= MAX_POINTS."""
    if n > MAX_POINTS:
        raise ValueError(f"need at most {MAX_POINTS} points, got {n}")
    diff = np.empty((n, n), dtype=np.complex128)
    return diff, diff.reshape(-1)[:: n + 1]


def _differences(z: ComplexArray, diff: ComplexArray, diag: ComplexArray) -> ComplexArray:
    """z_a - z_b into diff, with an infinite diagonal: the separation of a
    point from itself is never the smallest, and its own term, 1/inf in A
    or Gamma_a / inf in its velocity, is zero."""
    np.subtract(z[:, None], z[None, :], out=diff)
    diag.fill(np.inf)
    return diff


def pairwise_distances(z: ComplexArray) -> FloatArray:
    """All |z_a - z_b|, with the diagonal +inf so that a minimum is a pair's."""
    return np.abs(_differences(z, *_pair_buffer(z.size)))


@dataclass(frozen=True, eq=False)
class StrengthVector:
    """Complex strengths, one per configuration point.

    The real part of an entry is circulation, the imaginary part source
    strength. Solver output is normalized so the first entry whose magnitude
    exceeds the leading tolerance is exactly 1+0i.
    """

    values: ComplexArray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_vector(self.values, "strengths"))
        if self.values.size == 0:
            raise ValueError("strength vector is empty")

    @property
    def n(self) -> int:
        return self.values.size

    def total(self) -> complex:
        """Sum of all strengths (the far-field strength)."""
        return complex(self.values.sum())

    def rotated(self) -> "StrengthVector":
        """The same configuration's strengths multiplied by i.

        Turns vortices into sources/sinks and vice versa while preserving
        equilibrium (the kernel is a complex subspace).
        """
        return StrengthVector(1j * self.values)


def _check_square(m: ComplexArray, name: str) -> ComplexArray:
    """m, refused unless it is a square matrix of finite entries."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m.view(np.float64)).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_skew(m: ComplexArray) -> None:
    """Refuse a square m with max |m + m^T| above 1e-12 max |m|."""
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return
    worst = float(np.abs(m + m.T).max())
    if worst > 1e-12 * scale:
        raise ValueError(f"matrix is not skew-symmetric (max |A + A^T| = {worst:.3e})")


@dataclass(frozen=True, eq=False)
class ConfigurationMatrix:
    """Skew-symmetric interaction matrix with entries 1/(z_a - z_b).

    The constructor refuses entries that are not square, not finite or not
    skew-symmetric to 1e-12 relative; build_matrix's entries are all three
    by construction. The linalg functions trust a ConfigurationMatrix and
    check only plain arrays.
    """

    entries: ComplexArray

    def __post_init__(self):
        arr = _check_square(np.array(self.entries, dtype=np.complex128, copy=True), "entries")
        _check_skew(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_matrix(points: PointSet) -> ConfigurationMatrix:
    """Build the interaction matrix of a configuration.

    Off-diagonal entries are 1/(z_a - z_b), and the diagonal is 1/inf, which
    is +0 + 0j. entries[b, a] == -entries[a, b] holds bit for bit, signed
    zeros included: z_b - z_a is -(z_a - z_b) but for the sign of a zero
    part, and numpy's complex division (Smith's method) is odd in its
    divisor and blind to the sign of the divisor's zero parts.

    Parameters
    ----------
    points:
        A PointSet, or a plain complex sequence, which is made one.

    Returns
    -------
    ConfigurationMatrix

    Raises
    ------
    DegenerateConfiguration
        If any pair sits closer than the separation floor; the message names
        the offending indices.
    ValueError
        If there are more than MAX_POINTS points; nothing is allocated first.
    """
    if not isinstance(points, PointSet):
        points = PointSet(points)
    diff = _differences(points.positions, *_pair_buffer(points.n))
    return _adopt(ConfigurationMatrix, entries=np.divide(1.0, diff, out=diff))
