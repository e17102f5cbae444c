"""Dense linear algebra for complex skew-symmetric matrices.

The singular value decomposition is LAPACK's (bidiagonalization plus
divide and conquer, via numpy); the rank decision that identifies
equilibria reads its singular values against a threshold far above their
rounding error. Eigenvalues go through closed forms for exactly skew 2x2
and 3x3 input and through the standard dense solver (Hessenberg reduction
plus QR iteration, via numpy) otherwise, so the two spectral routes stay
independent of each other. The Pfaffian is likewise computed on two
independent paths: combinatorial recursion for small matrices and
Householder congruence tridiagonalization for larger even dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComplexArray, ConfigurationMatrix, FloatArray
from .errors import ConvergenceFailure, OddDimension


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
    m = _as_square(a)
    n = m.shape[0]
    if n == 1:
        lam = np.array([m[0, 0]])
    elif n == 2 and _is_exactly_skew(m):
        root = 1j * m[0, 1]
        lam = np.array([root, -root])
    elif n == 3 and _is_exactly_skew(m):
        s = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
        root = 1j * np.sqrt(np.complex128(s))
        lam = np.array([0.0 + 0.0j, root, -root])
    else:
        lam = np.linalg.eigvals(m)
    order = np.lexsort((np.angle(lam), -np.abs(lam)))
    return EigenResult(_readonly(lam[order]))


def eigen_residuals(a, lambdas) -> FloatArray:
    """Relative residual min_q |Aq - lambda q| / |q| for each lambda.

    The minimizing q is the smallest right singular vector of A - lambda I,
    so the residual is its smallest singular value. Used to validate both
    eigenvalue routes against each other.
    """
    m = _as_square(a)
    lams = np.atleast_1d(np.asarray(lambdas, dtype=np.complex128))
    eye = np.eye(m.shape[0], dtype=np.complex128)
    out = np.array([np.linalg.svd(m - lam * eye, compute_uv=False)[-1] for lam in lams])
    return _readonly(out)


def zero_eigenvalue_multiplicity(a, rel_tol: float = 1e-8) -> int:
    """Count eigenvalues of magnitude at most rel_tol * ||A||_F * n.

    The cutoff is relative to the matrix scale rather than to max |lambda|:
    a defective matrix can have every eigenvalue collapsed near zero, and a
    cutoff proportional to max |lambda| would then count almost nothing.
    """
    m = _as_square(a)
    lam = eigenvalues(m).lambdas
    scale = float(np.linalg.norm(m, "fro"))
    return int(np.count_nonzero(np.abs(lam) <= rel_tol * scale * m.shape[0]))


def determinant(a) -> complex:
    """LU-based determinant (exactly zero is not representable; odd
    skew-symmetric input comes out at rounding level instead)."""
    return complex(np.linalg.det(_as_square(a)))


def _check_skew(m: ComplexArray) -> None:
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return
    worst = float(np.abs(m + m.T).max())
    if worst > 1e-12 * scale:
        raise ValueError(f"matrix is not skew-symmetric (max |A + A^T| = {worst:.3e})")


def _pfaffian_recursive(m: ComplexArray) -> complex:
    """Expansion along the first row; exact combinatorial structure,
    cost doubles per dimension so this is for small matrices only."""
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 2:
        return complex(m[0, 1])
    total = 0.0 + 0.0j
    for j in range(1, n):
        if m[0, j] == 0.0:
            continue
        keep = [k for k in range(1, n) if k != j]
        sign = -1.0 if j % 2 == 0 else 1.0
        total += sign * m[0, j] * _pfaffian_recursive(m[np.ix_(keep, keep)])
    return total


def _pfaffian_householder(m: ComplexArray) -> complex:
    """Congruence tridiagonalization T = Q A Q^T by unitary Householder
    reflectors; Pf(A) = det(Q) * product of T's odd superdiagonal entries."""
    n = m.shape[0]
    t = m.astype(np.complex128, copy=True)
    det_q = 1.0
    for k in range(n - 2):
        x = t[k + 1:, k]
        if np.linalg.norm(x[1:]) == 0.0:
            continue
        nx = np.linalg.norm(x)
        v = x.copy()
        phase = x[0] / abs(x[0]) if x[0] != 0.0 else 1.0
        v[0] += phase * nx
        v /= np.linalg.norm(v)
        # rows: H acting on the left of the trailing block
        sub = t[k + 1:, :]
        sub -= 2.0 * np.outer(v, v.conj() @ sub)
        # columns: H^T (also unitary) acting on the right
        sub = t[:, k + 1:]
        sub -= 2.0 * np.outer(sub @ v.conj(), v)
        det_q = -det_q
    pf = np.complex128(det_q)
    for k in range(0, n - 1, 2):
        pf *= t[k, k + 1]
    return complex(pf)


def pfaffian(a) -> complex:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Satisfies Pf(A)^2 = det(A), which the caller can verify against the
    independent LU determinant via pfaffian_determinant_check.

    Raises
    ------
    OddDimension
        If the matrix dimension is odd (the Pfaffian is not defined).
    ValueError
        If the matrix is not skew-symmetric.
    """
    m = _as_square(a)
    n = m.shape[0]
    if n % 2:
        raise OddDimension(f"Pfaffian requires even dimension, got {n}")
    _check_skew(m)
    if n <= 8:
        return _pfaffian_recursive(m)
    return _pfaffian_householder(m)


@dataclass(frozen=True)
class PfaffianCheck:
    pfaffian: complex
    determinant: complex
    consistent: bool


def pfaffian_determinant_check(a, rel_tol: float = 1e-8) -> PfaffianCheck:
    """Verify Pf(A)^2 = det(A) on two independent computational routes."""
    pf = pfaffian(a)
    det = determinant(a)
    scale = max(abs(det), abs(pf) ** 2, 1e-300)
    return PfaffianCheck(pf, det, abs(pf * pf - det) <= rel_tol * scale)
