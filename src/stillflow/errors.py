"""Exception types shared across the library.

Every failure the library can signal deliberately is one of these classes, so
callers (and the command-line layer) can map outcomes to exit codes without
string matching.
"""

from __future__ import annotations


class StillflowError(Exception):
    """Base class for all library-specific failures."""


class DegenerateConfiguration(StillflowError, ValueError):
    """Points coincide (or nearly coincide) within the separation floor."""


class ConvergenceFailure(StillflowError, RuntimeError):
    """LAPACK's singular value decomposition did not converge (the CLI exits 7)."""


class OddDimension(StillflowError, ValueError):
    """Operation requires an even matrix dimension."""


class NoEquilibrium(StillflowError, RuntimeError):
    """The configuration matrix has a trivial kernel; no strengths exist."""


class ZeroStrengths(StillflowError, ValueError):
    """A strength vector is identically zero where a nonzero one is required."""


class EmptySpectrum(StillflowError, ValueError):
    """All singular values fell below the zero threshold."""


class InvalidDistribution(StillflowError, ValueError):
    """A normalized spectrum violates the distribution preconditions."""


class SingularPoint(StillflowError, ValueError):
    """Field evaluation requested too close to a singularity."""


class UndefinedFarField(StillflowError, ValueError):
    """Far-field comparison is undefined because the total strength vanishes."""


class CollapseReached(StillflowError, ValueError):
    """Orbit evaluation requested at or beyond the sink collapse time."""


class CollisionAbort(StillflowError, RuntimeError):
    """Integration halted because two singularities approached collision.

    Carries the offending event as attributes: ``time``, ``pair`` (index
    tuple) and ``distance``.
    """

    def __init__(self, message: str, time: float, pair: tuple[int, int], distance: float):
        super().__init__(message)
        self.time = time
        self.pair = pair
        self.distance = distance
