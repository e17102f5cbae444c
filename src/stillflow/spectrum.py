"""Normalized singular spectrum, Shannon entropy, and spectral gap.

The spectrum of the interaction matrix is a scale-free fingerprint of an
equilibrium: normalized singular values sum to one, their Shannon entropy
measures how evenly the configuration spreads over the singular directions,
and the smallest nonzero singular value (the spectral gap) measures how
far the matrix sits from losing rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySpectrum, InvalidDistribution
from .core import FloatArray, _unit_scaled
from . import linalg

#: Default normalization: sigma^2 / sum sigma^2. The linear variant
#: sigma / sum sigma is available behind the mode flag.
MODES = ("power", "linear")


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Raw and normalized spectrum of one configuration matrix.

    sigma_raw holds all n singular values descending; sigma_normalized
    covers only the rank-many nonzero ones and sums to 1.
    """

    sigma_raw: FloatArray
    sigma_normalized: FloatArray
    entropy: float
    spectral_gap_raw: float
    spectral_gap_normalized: float
    rank: int
    mode: str


def _as_spectrum(sigma) -> FloatArray:
    arr = np.asarray(sigma, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"spectrum must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("spectrum contains non-finite entries")
    if (arr < 0.0).any():
        raise ValueError("singular values must be non-negative")
    if (arr[1:] > arr[:-1]).any():
        raise ValueError("spectrum must be sorted descending")
    return arr


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _normalized(sigma: FloatArray, mode: str) -> FloatArray:
    """weights / weights.sum() of a positive descending spectrum, read-only,
    with sigma first scaled by 2^-e, e the exponent of sigma[0]: the result is
    the same at any scale, to the bit where the unscaled weights are normal."""
    sigma = _unit_scaled(sigma, float(sigma[0]))
    weights = sigma * sigma if mode == "power" else sigma
    out = weights / weights.sum()
    out.setflags(write=False)
    return out


def _entropy(p: FloatArray) -> float:
    """-sum(p ln p) of a positive distribution."""
    return float(-(p * np.log(p)).sum())


def normalize_spectrum(sigma, mode: str = "power") -> FloatArray:
    """Normalize a descending spectrum so the entries sum to one.

    mode="power" divides sigma^2 by their total, mode="linear" divides
    sigma by their total. Exact zeros are dropped before normalizing;
    near-zero values below the rank threshold are the caller's job to
    exclude (spectral_report does this).

    Raises
    ------
    EmptySpectrum
        If no positive singular value remains.
    """
    _check_mode(mode)
    arr = _as_spectrum(sigma)
    arr = arr[arr > 0.0]
    if arr.size == 0:
        raise EmptySpectrum("all singular values are zero")
    return _normalized(arr, mode)


def shannon_entropy(sigma_normalized) -> float:
    """S = -sum(p ln p) in nats for a normalized spectrum.

    Raises
    ------
    InvalidDistribution
        If entries are not all positive or do not sum to 1 within 1e-9.
    """
    p = np.asarray(sigma_normalized, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistribution("distribution must be a non-empty vector")
    if not np.isfinite(p).all() or (p <= 0.0).any():
        raise InvalidDistribution("distribution entries must be positive")
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvalidDistribution(f"distribution sums to {p.sum()!r}, not 1")
    return _entropy(p)


def spectral_report(a, mode: str = "power", rel_tol: float = 1e-10) -> SpectralReport:
    """Full spectral fingerprint of a configuration matrix.

    Composes the LAPACK SVD, the rank threshold, normalization, entropy,
    and the spectral gap. The same threshold that defines the kernel for
    the solver decides which singular values count as zero here, so both
    views of "rank" agree.

    a is a ConfigurationMatrix, a square complex array, or a RankReport
    already decided from one (an EquilibriumSolution's kernel), whose rank
    decision stands: no second SVD runs and rel_tol is not read.
    """
    report = a if isinstance(a, linalg.RankReport) else linalg.nullspace(a, rel_tol=rel_tol)
    _check_mode(mode)
    if report.rank == 0:
        raise EmptySpectrum("all singular values are zero")
    # LAPACK's sigma is finite and descending, and the rank counts only entries
    # above a threshold >= 0, so of the public helpers' checks only one can
    # fail: in power mode, a kept sigma below about 1e-162 sigma[0] squares
    # to 0 even after the scaling
    sigma = report.sigma
    nonzero = sigma[: report.rank]
    normalized = _normalized(nonzero, mode)
    if not normalized[-1] > 0.0:
        raise InvalidDistribution("distribution entries must be positive")
    return SpectralReport(
        sigma_raw=sigma,
        sigma_normalized=normalized,
        entropy=_entropy(normalized),
        spectral_gap_raw=float(nonzero[-1]),
        spectral_gap_normalized=float(normalized[-1]),
        rank=report.rank,
        mode=mode,
    )
