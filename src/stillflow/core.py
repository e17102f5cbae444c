"""Configurations of point singularities and their interaction matrix.

A configuration is an ordered set of N distinct positions in the complex
plane. Its interaction matrix A holds 1/(z_a - z_b) off the diagonal and is
skew-symmetric by construction; a strength vector in the kernel of A makes
every singularity stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateConfiguration

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

#: Minimum allowed pairwise separation. Entries grow as 1/distance, so
#: accuracy is lost well before exact coincidence.
DELTA_MIN_DEFAULT = 1e-9


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


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered, pairwise-distinct singularity positions.

    Parameters
    ----------
    positions:
        Complex plane coordinates z_1..z_N, N >= 2.
    delta_min:
        Separation floor; any closer pair raises DegenerateConfiguration.
    """

    positions: ComplexArray
    delta_min: float = DELTA_MIN_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_complex_vector(self.positions, "positions"))
        if self.positions.size < 2:
            raise ValueError(f"need at least 2 points, got {self.positions.size}")
        if not (np.isfinite(self.delta_min) and self.delta_min > 0):
            raise ValueError(f"delta_min must be positive and finite, got {self.delta_min}")
        gap = pairwise_distances(self.positions)
        a, b = divmod(int(np.argmin(gap)), gap.shape[0])
        if gap[a, b] < self.delta_min:
            raise DegenerateConfiguration(
                f"points {a} and {b} are separated by {gap[a, b]:.3e}"
                f" (< delta_min {self.delta_min:.3e})"
            )

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


def pairwise_distances(z: ComplexArray) -> FloatArray:
    """All |z_a - z_b| with the diagonal set to +inf."""
    gap = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gap, np.inf)
    return gap


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


@dataclass(frozen=True, eq=False)
class ConfigurationMatrix:
    """Skew-symmetric interaction matrix with entries 1/(z_a - z_b)."""

    entries: ComplexArray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def build_matrix(points: PointSet) -> ConfigurationMatrix:
    """Build the interaction matrix of a configuration.

    Off-diagonal entries are 1/(z_a - z_b); the diagonal is exactly zero.
    Each value is computed once for the upper triangle and negated into the
    lower triangle, so entries[b, a] == -entries[a, b] holds bit for bit.

    Parameters
    ----------
    points:
        A PointSet (or plain complex sequence, in which case the default
        separation floor applies).

    Returns
    -------
    ConfigurationMatrix

    Raises
    ------
    DegenerateConfiguration
        If any pair sits closer than the separation floor; the message names
        the offending indices.
    """
    if not isinstance(points, PointSet):
        points = PointSet(points)
    z = points.positions
    n = z.size
    a = np.zeros((n, n), dtype=np.complex128)
    iu, ju = np.triu_indices(n, k=1)
    vals = 1.0 / (z[iu] - z[ju])
    a[iu, ju] = vals
    a[ju, iu] = -vals
    return ConfigurationMatrix(a)
