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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if report.rank == 0:
        raise EmptySpectrum("all singular values are zero")
    # LAPACK's sigma is finite and descending, and the rank counts only entries
    # above a threshold >= 0, so the kept sigma are positive. sigma is scaled
    # by 2^-e, e the exponent of sigma[0], before it is weighed: the result is
    # the same at any scale, to the bit where the unscaled weights are normal.
    # Only one check can still fail: in power mode, a kept sigma below about
    # 1e-162 sigma[0] squares to 0 even after the scaling
    sigma = report.sigma
    nonzero = sigma[: report.rank]
    scaled = _unit_scaled(nonzero, float(nonzero[0]))
    weights = scaled * scaled if mode == "power" else scaled
    normalized = weights / weights.sum()
    normalized.setflags(write=False)
    if not normalized[-1] > 0.0:
        raise InvalidDistribution("distribution entries must be positive")
    return SpectralReport(
        sigma_raw=sigma,
        sigma_normalized=normalized,
        entropy=float(-(normalized * np.log(normalized)).sum()),
        spectral_gap_raw=float(nonzero[-1]),
        spectral_gap_normalized=float(normalized[-1]),
        rank=report.rank,
        mode=mode,
    )
