"""Strength vectors that hold a configuration stationary.

A configuration is a fixed equilibrium for exactly the strength vectors in
the kernel of its interaction matrix. This module solves for those vectors,
verifies them via the residual, provides closed forms for two and three
points, and classifies individual singularities and the far field by the
signs of the strength components.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .core import (
    ComplexArray,
    ConfigurationMatrix,
    PointSet,
    StrengthVector,
    _adopt,
    _check_separation,
    _inputs,
    _unit_scaled,
    as_strength_values,
    build_matrix,
    pairwise_distances,
)
from .errors import NoEquilibrium, ZeroStrengths

LEAD_TOL = 1e-8
CLASS_TOL = 1e-6
CENTER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """One equilibrium strength vector plus the kernel it came from.

    strengths is the first kernel basis vector, rescaled so its leading
    above-tolerance entry is exactly 1+0i. kernel is the RankReport the
    rank decision came from (sigma, threshold, rank and the orthonormal
    kernel basis as columns); nullity and basis read it, and
    spectral_report(kernel) reuses its SVD.
    """

    strengths: StrengthVector
    residual: float
    zero_eigenvalue_multiplicity: int
    kernel: linalg.RankReport

    @property
    def nullity(self) -> int:
        return self.kernel.nullity

    @property
    def basis(self) -> ComplexArray:
        return self.kernel.basis


@dataclass(frozen=True)
class FarFieldClass:
    total_strength: complex
    kind: str


@dataclass(frozen=True)
class CenterOfVorticity:
    """Strength-weighted centroid; undefined when the strengths cancel.

    moment is the raw weighted sum of positions, kept even when the
    normalizing total vanishes.
    """

    value: complex | None
    defined: bool
    moment: complex


def _leading(arr: ComplexArray) -> ComplexArray:
    """arr divided by its first entry with |value| > LEAD_TOL * max|value|."""
    peak = float(np.abs(arr).max())
    if peak == 0.0:
        raise ZeroStrengths("cannot normalize an all-zero strength vector")
    lead = int(np.argmax(np.abs(arr) > LEAD_TOL * peak))
    return arr / arr[lead]


def normalize_leading(values) -> StrengthVector:
    """Rescale so the first entry with |value| > LEAD_TOL * max|value| is 1+0i."""
    return StrengthVector(_leading(as_strength_values(values)))


def _norm(x: ComplexArray) -> float:
    """The 2-norm of a complex vector, summed as np.linalg.norm sums it."""
    re, im = x.real, x.imag
    return math.sqrt(float(re.dot(re) + im.dot(im)))


def _residual(m: ComplexArray, gamma: ComplexArray) -> float:
    """|m gamma| / |gamma|, with gamma first scaled by 2^-e, e the exponent of
    its largest part: no squared norm overflows or underflows, and where the
    unscaled ones are normal doubles the exact scaling keeps every bit."""
    parts = gamma.view(np.float64)
    peak = float(np.abs(parts).max())
    if peak == 0.0:
        raise ZeroStrengths("residual of an all-zero strength vector is undefined")
    scaled = _unit_scaled(parts, peak).view(np.complex128)
    return _norm(m @ scaled) / _norm(scaled)


def residual(a: ConfigurationMatrix, strengths) -> float:
    """Equilibrium defect |A Gamma| / |Gamma| in the 2-norm, for Gamma of any
    finite scale; A must be square and finite."""
    gamma = as_strength_values(strengths)
    m = linalg._as_square(a)
    if m.shape[1] != gamma.size:
        raise ValueError(f"matrix is {m.shape}, strengths have length {gamma.size}")
    return _residual(m, gamma)


def solve_strengths(points, rel_tol: float = 1e-10) -> EquilibriumSolution:
    """Find strengths that make every point of the configuration stationary.

    The kernel of the interaction matrix is computed via the LAPACK SVD
    rank decision; the first basis vector, normalized to leading entry
    1+0i, is returned as the representative solution. Both the geometric
    kernel dimension and the algebraic count of near-zero eigenvalues are
    reported, since they differ on degenerate configurations. At nullity 1
    the count is read from that SVD when its certificate holds (random,
    graded and collinear inputs of up to a few tens of points); the
    regular odd polygons, larger nullities and inputs with eigenvalues
    near the count's cutoff take a dense eigenvalue solve instead. Both
    routes give the same count, and both undercount a defective A: the
    regular odd polygons of N >= 5 points report 0, though A is nilpotent
    and the true count is N (see zero_eigenvalue_multiplicity).

    Raises
    ------
    NoEquilibrium
        If the kernel is trivial (possible only for even point counts).
    """
    a = build_matrix(points)
    report = linalg.nullspace(a, rel_tol=rel_tol)
    if report.nullity == 0:
        raise NoEquilibrium(
            f"configuration of {a.n} points has a trivial kernel"
            f" (smallest singular value {report.sigma[-1]:.3e}"
            f" above threshold {report.threshold:.3e})"
        )
    # the basis is LAPACK's output for a matrix built from checked points:
    # finite, of unit norm and of the matrix's size, so nothing is re-checked
    strengths = _leading(report.basis[:, 0])
    count = linalg._certified_zero_count(report)
    if count is None:
        count = linalg.zero_eigenvalue_multiplicity(a)
    return EquilibriumSolution(
        strengths=_adopt(StrengthVector, values=strengths),
        residual=_residual(a.entries, strengths),
        zero_eigenvalue_multiplicity=count,
        kernel=report,
    )


def _check_apart(z) -> None:
    """Refuse points z with a pair closer than the separation floor, without
    numpy's warning where a difference overflows or is inf - inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        _check_separation(pairwise_distances(np.array(z, dtype=np.complex128)))


def collinear_three_closed_form(x1: float, x2: float, x3: float) -> StrengthVector:
    """Equilibrium strengths for three points on the real axis.

    Returns (1, -(x3-x2)/(x3-x1), (x3-x2)/(x2-x1)) for x1 < x2 < x3. The
    middle strength opposes its neighbours; the symmetric case (0, 0.5, 1)
    gives (1, -0.5, 1).
    """
    xs = (float(x1), float(x2), float(x3))
    _check_apart(xs)
    if not (xs[0] < xs[1] < xs[2]):
        raise ValueError(f"abscissae must be strictly increasing, got {xs}")
    # the differences of the abscissae scaled by a power of two do not overflow
    u1, u2, u3 = _unit_scaled(np.array(xs), max(map(abs, xs))).tolist()
    g2 = -(u3 - u2) / (u3 - u1)
    g3 = (u3 - u2) / (u2 - u1)
    return StrengthVector(np.array([1.0, g2, g3], dtype=np.complex128))


def _triangle_apex(z) -> complex:
    """z as a complex apex of the triangle (0, 1, z), refused within the
    separation floor of either base point."""
    z = complex(z)
    _check_apart((0.0, 1.0, z))
    return z


def triangle_closed_form(z: complex) -> StrengthVector:
    """Equilibrium strengths for the triangle configuration (0, 1, z).

    The kernel of the 3x3 interaction matrix is spanned by
    (1/(z-1), -1/z, 1); the result is normalized to leading entry 1+0i.
    Every z off the real segment endpoints works, including collinear
    placements, where the result matches the three-point real formula.
    """
    z = _triangle_apex(z)
    raw = np.array([1.0 / (z - 1.0), -1.0 / z, 1.0], dtype=np.complex128)
    return normalize_leading(raw)


def triangle_eigenvalues(z: complex) -> linalg.EigenResult:
    """Eigenvalues of the triangle configuration (0, 1, z) in factored form.

    The characteristic polynomial gives lambda = 0 and
    lambda = +/- i (1 - z + z^2) / (z (1 - z)). The factored numerator has
    a double root at the two equilateral apexes, so evaluating it directly
    avoids the cancellation that limits matrix-side eigensolvers to about
    1e-8 there, and lands at rounding level instead.
    """
    z = _triangle_apex(z)
    root = 1j * (1.0 - z + z * z) / (z * (1.0 - z))
    if not cmath.isfinite(root):
        # z * z overflowed: the same quotient in w = 1/z, which tends to -i
        w = 1.0 / z
        root = 1j * (w * w - w + 1.0) / (w - 1.0)
    return linalg._by_modulus(np.array([0.0 + 0.0j, root, -root]))


def _classify(s: complex, scale: float) -> str:
    cut = CLASS_TOL * scale
    re, im = s.real, s.imag
    if abs(s) <= cut:
        return "null"
    if abs(im) <= cut:
        return "vortex_ccw" if re > 0.0 else "vortex_cw"
    if abs(re) <= cut:
        return "source" if im > 0.0 else "sink"
    radial = "source" if im > 0.0 else "sink"
    turn = "ccw" if re > 0.0 else "cw"
    return f"spiral_{radial}_{turn}"


def classify_singularity(gamma: complex) -> str:
    """Flow kind at a single singularity from the sign pattern of its
    strength; a component at most CLASS_TOL * |gamma| counts as zero."""
    gamma = complex(gamma)
    return _classify(gamma, abs(gamma))


def classify_far_field(strengths) -> FarFieldClass:
    """Classify the aggregate far field of a strength vector.

    Far from the configuration the flow looks like one singularity of
    strength s = sum(Gamma); the decision table is the same as for a
    single point, with the tolerance CLASS_TOL scaled by the largest |Gamma|
    so the classification is scale-free. s below it reports kind "null"
    (the far field decays faster than a single singularity's).
    """
    arr = as_strength_values(strengths)
    s = complex(arr.sum())
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    return FarFieldClass(s, _classify(s, scale))


def center_of_vorticity(points, strengths) -> CenterOfVorticity:
    """Strength-weighted centroid sum(Gamma z) / sum(Gamma).

    When the total strength cancels below CENTER_TOL * sum|Gamma| the
    center is undefined (defined=False, value=None); the raw moment
    sum(Gamma z) is reported either way.
    """
    z, gamma = _inputs(points if isinstance(points, PointSet) else PointSet(points), strengths)
    moment = complex((gamma * z).sum())
    total = complex(gamma.sum())
    if abs(total) <= CENTER_TOL * float(np.abs(gamma).sum()):
        return CenterOfVorticity(None, False, moment)
    return CenterOfVorticity(moment / total, True, moment)
