"""Exception and warning types shared across the package."""

from __future__ import annotations


class DQWalkError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DQWalkError, ValueError):
    """A numeric parameter is outside its admissible range."""


class NonUnitaryCoinError(DQWalkError, ValueError):
    """The supplied 2x2 coin matrix is not unitary."""


class UnnormalizedCoinError(DQWalkError, ValueError):
    """The initial coin state is not a valid (unit-trace, Hermitian) density."""


class InvalidCoinKrausError(DQWalkError, ValueError):
    """A coin-only Kraus set has bad weights or fails the completeness sum."""


class PhaseConstraintError(DQWalkError, ValueError):
    """The broken-line phases violate theta2 - theta3 = pi (mod 2*pi).

    Carries the completeness residual of the channel that would have been
    built, so callers can see how badly trace preservation fails.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CompletenessError(DQWalkError, ValueError):
    """The Kraus completeness sum deviates from the identity.

    Attributes:
        worst_k: momentum at which the deviation is largest.
        residual: max-norm of (sum_n C_n(k)^dag C_n(k)) - I at that momentum.
    """

    def __init__(self, message: str, worst_k: float, residual: float):
        super().__init__(message)
        self.worst_k = worst_k
        self.residual = residual


class NotACoinChannelError(DQWalkError, ValueError):
    """The channel is not of the coin-noise form (shift after a noisy coin)."""


class NotContractingError(DQWalkError, ValueError):
    """A momentum block has spectral radius ~1, so no stationary limit exists."""

    def __init__(self, message: str, k: float, spectral_radius: float):
        super().__init__(message)
        self.k = k
        self.spectral_radius = spectral_radius


class BallisticRegimeError(DQWalkError, ValueError):
    """Ballistic spreading: the diffusion constant diverges (coherent limit
    p -> 0) or the walker drifts at a nonzero stationary velocity."""


class ResourceLimitError(DQWalkError, ValueError):
    """A requested size (horizon, node count, work) exceeds the package's limit.

    Raised before anything of that size is allocated; the message names
    the limit.
    """

    @classmethod
    def check(cls, count: int, limit: int, what: str) -> None:
        """Raise if ``count``, the ``what`` of a call, exceeds ``limit``."""
        if count > limit:
            raise cls(f"{what} {count} exceeds the limit of {limit}")


class BracketingError(DQWalkError, RuntimeError):
    """Root bracketing for the crossover probability failed."""


class NonRealMomentError(DQWalkError, ArithmeticError):
    """A position moment is not a finite real number.

    Raised when the channel's Fourier coefficients lack the real/imaginary
    structure of a trace-preserving channel (or hold a non-finite entry), or
    when a moment computed in complex arithmetic has a non-negligible
    imaginary part.
    """


class QuadratureTooCoarseWarning(UserWarning):
    """The long-time limit's momentum rules still disagree at its node cap.

    ``moments.asymptotic_first_moment`` returns its last value with this
    warning.  A finite-horizon series always runs on its exactness bound and
    never warns.
    """
