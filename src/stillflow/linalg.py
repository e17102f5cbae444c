"""Dense linear algebra for complex skew-symmetric matrices.

The singular value decomposition is LAPACK's (bidiagonalization plus
divide and conquer, via numpy); the rank decision that identifies
equilibria reads its singular values against a threshold far above their
rounding error. Eigenvalues go through closed forms for exactly skew 2x2
and 3x3 input and through the standard dense solver (Hessenberg reduction
plus QR iteration, via numpy) otherwise, so the two spectral routes stay
independent of each other; at nullity 1 a certificate on the SVD alone can
stand in for the eigenvalue solve's zero count. The Pfaffian has one route at every size,
the Parlett-Reid skew LTL^T elimination with pivoting, whose factors also
give its phase and log-modulus; Pf(A)^2 = det(A) is checked against LU in
log space, so the check holds where either side overflows a double.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexArray, ConfigurationMatrix, FloatArray, _check_skew, _check_square, _unit_scaled,
)
from .errors import ConvergenceFailure, OddDimension

ZERO_EIG_TOL = 1e-8
PF_DET_TOL = 1e-8


def _as_square(a) -> ComplexArray:
    """A ConfigurationMatrix's entries, which its construction checked, or
    a plain array checked square and finite."""
    if isinstance(a, ConfigurationMatrix):
        return a.entries
    return _check_square(np.asarray(a, dtype=np.complex128), "matrix")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Factorization A = U diag(sigma) V' with sigma descending.

    Columns u[:, i] and v[:, i] are the left and right singular vectors;
    A v[:, i] = sigma[i] u[:, i].
    """

    u: ComplexArray
    sigma: FloatArray
    v: ComplexArray


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Eigenvalues sorted by magnitude descending, then by argument."""

    lambdas: ComplexArray


@dataclass(frozen=True, eq=False)
class RankReport:
    """Numerical rank, nullity, and an orthonormal kernel basis.

    basis has shape (n, nullity); its columns are the right singular
    vectors whose singular values fell at or below the threshold.
    """

    rank: int
    nullity: int
    threshold: float
    basis: ComplexArray
    sigma: FloatArray


def _lapack_svd(a) -> tuple[ComplexArray, FloatArray, ComplexArray]:
    """numpy's (u, sigma, vh) of a checked square matrix; ConvergenceFailure
    if LAPACK does not converge."""
    m = _as_square(a)
    try:
        return np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge (n={m.shape[0]}): {exc}") from exc


def svd(a) -> SvdResult:
    """Singular value decomposition of a square matrix by LAPACK, via numpy.

    sigma comes out descending. Its absolute error is about eps * sigma_max,
    five orders of magnitude below the rank threshold of nullspace
    (1e-10 * sigma_max * n), so the rank decision needs no Jacobi method's
    relative accuracy. Raises ConvergenceFailure if LAPACK does not converge.
    """
    u, sigma, vh = _lapack_svd(a)
    return SvdResult(_readonly(u), _readonly(sigma), _readonly(vh.conj().T))


def nullspace(a, rel_tol: float = 1e-10) -> RankReport:
    """Numerical rank and kernel basis from the SVD.

    The threshold is rel_tol * sigma_max * n, so a zero matrix has rank 0.
    Skew-symmetric matrices have even rank; when the threshold lands inside
    a near-equal singular value pair and leaves an odd count, the straggler
    is demoted to the kernel side.

    Parameters
    ----------
    a:
        ConfigurationMatrix or square complex array.
    rel_tol:
        Relative rank tolerance in (0, 1).

    Returns
    -------
    RankReport
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    _, sigma, vh = _lapack_svd(a)
    n = sigma.size
    smax = float(sigma[0]) if n else 0.0
    threshold = rel_tol * smax * n
    rank = int(np.count_nonzero(sigma > threshold))
    if rank % 2:
        rank -= 1
    # only the kernel rows of V' are conjugated and copied, not all of V
    basis = vh[rank:].conj().T
    return RankReport(rank, n - rank, threshold, _readonly(basis), _readonly(sigma))


def _is_exactly_skew(m: ComplexArray) -> bool:
    return bool(np.all(m == -m.T))


def eigenvalues(a) -> EigenResult:
    """Eigenvalues, sorted by magnitude descending then argument ascending.

    Exactly skew-symmetric 2x2 and 3x3 input goes through closed forms
    (the characteristic polynomial collapses to lambda^2 = -a01^2 and
    lambda^3 = -lambda (a01^2 + a02^2 + a12^2)); everything else uses the
    dense Hessenberg + QR solver. Either way eigenvalues of skew input
    come in +/- pairs.
    """
    return _by_modulus(_unsorted_eigenvalues(_as_square(a)))


def _by_modulus(lam: ComplexArray) -> EigenResult:
    """lam sorted by magnitude descending then argument ascending, read-only."""
    return EigenResult(_readonly(lam[np.lexsort((np.angle(lam), -np.abs(lam)))]))


def _ldexp(x: complex, e: int) -> complex:
    """x * 2^e, part by part: exact where the parts stay normal doubles."""
    return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))


def _unsorted_eigenvalues(m: ComplexArray) -> ComplexArray:
    """eigenvalues' values of a checked square matrix, in no set order."""
    n = m.shape[0]
    if n == 2 and _is_exactly_skew(m):
        root = 1j * m[0, 1]
        return np.array([root, -root])
    if n == 3 and _is_exactly_skew(m):
        # the entries are squared scaled by 2^-e, e the exponent of their
        # largest part, and the root scaled back: nothing over- or underflows,
        # and where the unscaled squares are normal every bit stays
        a, b, c = m[0, 1].item(), m[0, 2].item(), m[1, 2].item()
        e = math.frexp(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag),
                           abs(c.real), abs(c.imag)))[1]
        a, b, c = _ldexp(a, -e), _ldexp(b, -e), _ldexp(c, -e)
        root = _ldexp(1j * np.sqrt(np.complex128(a * a + b * b + c * c)), e)
        return np.array([0.0 + 0.0j, root, -root])
    return np.linalg.eigvals(m)


def zero_eigenvalue_multiplicity(a) -> int:
    """Count eigenvalues of magnitude at most ZERO_EIG_TOL * ||A||_F * n.

    The cutoff is relative to the matrix scale rather than to max |lambda|:
    a defective matrix can have every eigenvalue collapsed near zero, and a
    cutoff proportional to max |lambda| would then count almost nothing.
    The count takes a dense eigenvalue solve (closed forms at n = 2 and 3);
    solve_strengths calls it only where _certified_zero_count declines.
    It undercounts defective matrices: the regular odd N-gon's A is
    nilpotent, so its true count is N, yet at N >= 5 the rounded
    eigenvalues of that Jordan block sit above the cutoff and it returns 0
    (ROADMAP.md, open item "The zero count from a Jordan chain").
    """
    # on m scaled by 2^-e, e the exponent of its largest part, whose norm and
    # closed-form squares neither over- nor underflow
    parts = np.ascontiguousarray(_as_square(a)).view(np.float64)
    m = _unit_scaled(parts, float(np.abs(parts).max(initial=0.0))).view(np.complex128)
    lam = _unsorted_eigenvalues(m)
    scale = float(np.linalg.norm(m, "fro"))
    return int(np.count_nonzero(np.abs(lam) <= ZERO_EIG_TOL * scale * m.shape[0]))


#: How far, as a factor, _certified_zero_count needs the kernel side below
#: the zero count's cutoff and every nonzero eigenvalue above it.
_CERTIFICATE_MARGIN = 1e3


def _certified_zero_count(report: RankReport) -> int | None:
    """zero_eigenvalue_multiplicity of a skew matrix, read from its rank
    report alone, or None where the report cannot vouch for it.

    At nullity 1 with V = [V1 v0] and U = [U1 u0], the nonzero eigenvalues
    of A = U1 S1 V1' are those of S1 V1' U1, so each has modulus at least
    sigma[rank - 1] * sigma_min(V1' U1). Skew symmetry makes conj(v0) the
    left null vector, and by the CS decomposition sigma_min(V1' U1) is then
    |v0^T v0|. The count is the nullity when the kernel side lies far below
    the cutoff ZERO_EIG_TOL * ||A||_F * n and that bound far above it, each
    by _CERTIFICATE_MARGIN. The regular odd polygons, where v0^T v0 = 0,
    and every nullity but 1 decline.
    """
    if report.nullity != 1:
        return None
    sigma, rank = report.sigma, report.rank
    cut = ZERO_EIG_TOL * math.hypot(*sigma.tolist()) * sigma.size
    v0 = report.basis[:, 0]
    if (sigma[rank] * _CERTIFICATE_MARGIN <= cut
            and sigma[rank - 1] * abs(v0 @ v0) >= _CERTIFICATE_MARGIN * cut):
        return report.nullity
    return None


#: Largest x whose exponential is a finite double.
_LOG_MAX = math.log(np.finfo(np.float64).max)


def _from_polar(phase, log_abs) -> complex:
    """phase * e^log_abs; past the float range, an infinity along phase."""
    if log_abs < _LOG_MAX:
        return complex(phase) * math.exp(log_abs)
    return cmath.rect(math.inf, cmath.phase(phase))


def determinant(a) -> complex:
    """LU-based determinant, formed from numpy's slogdet so that it never
    overflows: past the float range it is an infinity along its phase.
    Exactly zero is not representable; odd skew-symmetric input comes out
    at rounding level instead."""
    return _from_polar(*np.linalg.slogdet(_as_square(a)))


def _as_even_skew(a) -> ComplexArray:
    """_as_square's matrix, refused at odd dimension and, unless it is a
    ConfigurationMatrix, when it is not skew-symmetric."""
    m = _as_square(a)
    if m.shape[0] % 2:
        raise OddDimension(f"Pfaffian requires even dimension, got {m.shape[0]}")
    if not isinstance(a, ConfigurationMatrix):
        _check_skew(m)
    return m


def _pfaffian_factors(m: ComplexArray) -> tuple[float, ComplexArray]:
    """Skew LTL^T elimination with pivoting (Parlett and Reid, BIT 10,
    1970) of an even skew m: P A P^T = L T L^T with L unit lower triangular
    and T tridiagonal. Returns det(P) and T's entries t[k, k+1] for even k;
    Pf(A) is det(P) times their product. A zero pivot leaves a zero factor
    and ends the elimination."""
    n = m.shape[0]
    t = m.astype(np.complex128, copy=True)
    sign = 1.0
    factors = np.zeros(n // 2, dtype=np.complex128)
    for k in range(0, n, 2):
        # the pivot: the largest entry below the diagonal in column k,
        # brought to row and column k + 1
        p = k + 1 + int(np.abs(t[k + 1:, k]).argmax())
        if p != k + 1:
            row = t[k + 1, k:].copy()
            t[k + 1, k:], t[p, k:] = t[p, k:], row
            col = t[k:, k + 1].copy()
            t[k:, k + 1], t[k:, p] = t[k:, p], col
            sign = -sign
        pivot = t[k, k + 1]
        if pivot == 0.0:
            break
        factors[k // 2] = pivot
        if k + 2 < n:
            # eliminate rows and columns k and k + 1 from the trailing block;
            # the update is skew bit for bit, so an exactly skew block stays so
            update = (t[k, k + 2:] / pivot)[:, None] * t[k + 2:, k + 1]
            t[k + 2:, k + 2:] += update - update.T
    return sign, factors


def _pfaffian_polar(det_q: float, factors: ComplexArray) -> tuple[complex, float]:
    """Pf(A) as its phase and log |Pf(A)|; 0 and -inf when it vanishes."""
    mags = np.abs(factors)
    if not mags.all():
        return 0j, -math.inf
    return complex(det_q * np.multiply.reduce(factors / mags)), float(np.log(mags).sum())


def _pfaffian_value(det_q: float, factors: ComplexArray) -> complex:
    with np.errstate(over="ignore", invalid="ignore"):
        pf = np.multiply.reduce(factors, initial=det_q)
    if np.isfinite(pf):
        return complex(pf)
    # the product overflowed, on the way or at the end: rebuild it from the
    # logarithms, which stay finite
    return _from_polar(*_pfaffian_polar(det_q, factors))


def pfaffian(a) -> complex:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Computed by skew LTL^T elimination with pivoting at every size: n/2
    steps, each of which updates only the trailing block (a 2x2 matrix
    gives a[0, 1]). Past the float range the result is an infinity along
    its phase; pfaffian_determinant_check compares Pf(A)^2 with det(A) in
    log space, where nothing overflows.

    Raises
    ------
    OddDimension
        If the matrix dimension is odd (the Pfaffian is not defined).
    ValueError
        If the matrix is not skew-symmetric.
    """
    return _pfaffian_value(*_pfaffian_factors(_as_even_skew(a)))


@dataclass(frozen=True)
class PfaffianCheck:
    """Pf(A), det(A) and whether Pf(A)^2 = det(A).

    pfaffian and determinant are infinite along their phase when their
    modulus exceeds the float range; log_abs_pfaffian and
    log_abs_determinant (natural logarithms, -inf for zero) always hold.
    """

    pfaffian: complex
    determinant: complex
    consistent: bool
    log_abs_pfaffian: float
    log_abs_determinant: float


def pfaffian_determinant_check(a) -> PfaffianCheck:
    """Verify Pf(A)^2 = det(A) on two independent computational routes.

    The Pfaffian comes from the skew LTL^T elimination, the determinant
    from LU (numpy's slogdet). consistent means |Pf^2 - det| <= PF_DET_TOL *
    max(|Pf|^2, |det|), decided from the phases and the logarithms of the
    moduli, so it holds where Pf^2 or det overflow a double.
    """
    m = _as_even_skew(a)
    det_q, factors = _pfaffian_factors(m)
    pf_phase, pf_log = _pfaffian_polar(det_q, factors)
    det_phase, det_log = np.linalg.slogdet(m)
    if pf_phase == 0 or det_phase == 0:
        consistent = pf_phase == det_phase
    else:
        # the relative gap is |1 - e^-|d| w| with d the log-modulus gap and
        # w = phase(Pf)^2 / phase(det), whichever side is larger
        gap = 2.0 * pf_log - float(det_log)
        w = pf_phase**2 * complex(det_phase).conjugate()
        consistent = abs(1.0 - math.exp(-abs(gap)) * w) <= PF_DET_TOL
    return PfaffianCheck(_pfaffian_value(det_q, factors), _from_polar(det_phase, det_log),
                         bool(consistent), pf_log, float(det_log))
