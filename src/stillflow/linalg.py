"""Dense linear algebra for complex skew-symmetric matrices.

The singular value decomposition is LAPACK's (bidiagonalization plus
divide and conquer, via numpy); the rank decision that identifies
equilibria reads its singular values against a threshold far above their
rounding error. Eigenvalues go through closed forms for exactly skew 2x2
and 3x3 input and through the standard dense solver (Hessenberg reduction
plus QR iteration, via numpy) otherwise, so the two spectral routes stay
independent of each other. The Pfaffian has one route at every size,
the Parlett-Reid skew LTL^T elimination with pivoting, whose factors also
give its phase and log-modulus; Pf(A)^2 = det(A) is checked against LU in
log space, so the check holds where either side overflows a double.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexArray, ConfigurationMatrix, FloatArray
from .errors import ConvergenceFailure, OddDimension

ZERO_EIG_TOL = 1e-8
PF_DET_TOL = 1e-8


def _as_square(a, name: str = "matrix") -> ComplexArray:
    m = a.entries if isinstance(a, ConfigurationMatrix) else np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m.view(np.float64)).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


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


def svd(a) -> SvdResult:
    """Singular value decomposition of a square matrix by LAPACK, via numpy.

    sigma comes out descending. Its absolute error is about eps * sigma_max,
    five orders of magnitude below the rank threshold of nullspace
    (1e-10 * sigma_max * n), so the rank decision needs no Jacobi method's
    relative accuracy. Raises ConvergenceFailure if LAPACK does not converge.
    """
    m = _as_square(a)
    try:
        u, sigma, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge (n={m.shape[0]}): {exc}") from exc
    return SvdResult(_readonly(u), _readonly(sigma), _readonly(vh.conj().T))


def nullspace(a, rel_tol: float = 1e-10) -> RankReport:
    """Numerical rank and kernel basis from the SVD.

    The threshold is rel_tol * sigma_max * n (with an absolute guard when
    the matrix is exactly zero). Skew-symmetric matrices have even rank;
    when the threshold lands inside a near-equal singular value pair and
    leaves an odd count, the straggler is demoted to the kernel side.

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
    res = svd(a)
    n = res.sigma.size
    smax = float(res.sigma[0]) if n else 0.0
    threshold = rel_tol * smax * n if smax > 0.0 else 1e-300
    rank = int(np.count_nonzero(res.sigma > threshold))
    if rank % 2:
        rank -= 1
    basis = res.v[:, rank:]
    return RankReport(rank, n - rank, threshold, _readonly(basis), res.sigma)


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
    lam = _unsorted_eigenvalues(_as_square(a))
    order = np.lexsort((np.angle(lam), -np.abs(lam)))
    return EigenResult(_readonly(lam[order]))


def _unsorted_eigenvalues(m: ComplexArray) -> ComplexArray:
    """eigenvalues' values of a checked square matrix, in no set order."""
    n = m.shape[0]
    if n == 2 and _is_exactly_skew(m):
        root = 1j * m[0, 1]
        return np.array([root, -root])
    if n == 3 and _is_exactly_skew(m):
        s = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
        root = 1j * np.sqrt(np.complex128(s))
        return np.array([0.0 + 0.0j, root, -root])
    return np.linalg.eigvals(m)


def zero_eigenvalue_multiplicity(a) -> int:
    """Count eigenvalues of magnitude at most ZERO_EIG_TOL * ||A||_F * n.

    The cutoff is relative to the matrix scale rather than to max |lambda|:
    a defective matrix can have every eigenvalue collapsed near zero, and a
    cutoff proportional to max |lambda| would then count almost nothing.
    """
    m = _as_square(a)
    lam = _unsorted_eigenvalues(m)
    scale = float(np.linalg.norm(m, "fro"))
    return int(np.count_nonzero(np.abs(lam) <= ZERO_EIG_TOL * scale * m.shape[0]))


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


def _check_skew(m: ComplexArray) -> None:
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return
    worst = float(np.abs(m + m.T).max())
    if worst > 1e-12 * scale:
        raise ValueError(f"matrix is not skew-symmetric (max |A + A^T| = {worst:.3e})")


def _pfaffian_factors(m: ComplexArray) -> tuple[float, ComplexArray]:
    """Skew LTL^T elimination with pivoting (Parlett and Reid, BIT 10,
    1970): P A P^T = L T L^T with L unit lower triangular and T
    tridiagonal. Returns det(P) and T's entries t[k, k+1] for even k;
    Pf(A) is det(P) times their product. A zero pivot leaves a zero factor
    and ends the elimination."""
    n = m.shape[0]
    if n % 2:
        raise OddDimension(f"Pfaffian requires even dimension, got {n}")
    _check_skew(m)
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
    return complex(det_q * np.prod(factors / mags)), float(np.log(mags).sum())


def _pfaffian_value(det_q: float, factors: ComplexArray) -> complex:
    pf = np.complex128(det_q)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in factors:
            pf *= f
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
    return _pfaffian_value(*_pfaffian_factors(_as_square(a)))


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
    m = _as_square(a)
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
