"""Closed forms for the broken-line model (Hadamard coin, failing links).

For this channel the long-time variance growth is exactly linear, and the
diffusion constant reduces to a single elementary integral:

    D(p) = (1 - p) / p * K(p),
    K(p) = (1 - (1 - p) * I(1 - p)) / 2,
    I(x) = Int dk/2pi (cos k + x) / (x cos^2 k + x cos k + 2 x^2 - 2 x + 1).

The denominator is a quadratic in cos k with complex roots, so I(x) has an
exact residue form (``diffusion_integral``); no quadrature is involved.

K grows monotonically from about 0.19 at p = 0 to exactly 1/2 at p = 1, so
D crosses the classical value 1/2 at a single link-failure probability
(near p = 0.417): below it the walker out-diffuses the classical random
walk, above it the blocked, reflected walker under-performs it.

Everything here is independent of the generic engine in ``moments`` (this
module imports only ``channels`` and ``errors``); the test suite, and the
``D_slope`` column of ``dqwalk diffusion --with-slope``, play the two
against each other.  Nothing here does I/O: ``cli`` writes the sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channels import BrokenLineParams, build_broken_line
from .errors import BallisticRegimeError, BracketingError, DomainError


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"link-failure probability must be in [0, 1], got {p!r}")
    return p


def default_channel(p: float):
    """The broken-line channel at the default phases of ``BrokenLineParams``."""
    return build_broken_line(BrokenLineParams(p=p))


# --- diffusion constant -----------------------------------------------------

def diffusion_integral(x: float) -> float:
    """I(x) exactly, by residues.

    In c = cos k the denominator is x (c - a)(c - conj(a)) with
    a = -1/2 + i w and w = sqrt((2x^2 - 2x + 1)/x - 1/4) > 0 (positive for
    every x > 0, so a is never on the cut [-1, 1]).  Partial fractions give

        (c + x) / den = Im[(a + x) / (c - a)] / (x w),

    and Int dk/2pi 1 / (cos k - a) = -1/s with s = sqrt(a - 1) sqrt(a + 1)
    (principal roots), so I(x) = -Im[(a + x) / s] / (x w).  Since
    (a - s)(a + s) = 1, (a + x) / s = 1 + (x + 1/(s + a)) / s; dropping the
    real 1 avoids the cancellation in a - s that costs digits at small x.

    Raises:
        DomainError: unless 0 < x <= 1 (the physical range of x = 1 - p).
    """
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise DomainError(f"diffusion integral needs 0 < x <= 1, got {x!r}")
    w = math.sqrt((2.0 * x * x - 2.0 * x + 1.0) / x - 0.25)
    a = complex(-0.5, w)
    s = cmath.sqrt(a - 1.0) * cmath.sqrt(a + 1.0)
    return -((x + 1.0 / (s + a)) / s).imag / (x * w)


@dataclass(frozen=True)
class DiffusionResult:
    """One evaluation of the closed form: D(p) = (1 - p) / p * K(p), K from I(1 - p)."""

    p: float
    prefactor: float
    diffusion: float
    integral: float


def diffusion_closed_form(p: float) -> DiffusionResult:
    """D(p) from the closed form.

    Raises:
        BallisticRegimeError: at p = 0, where variance grows quadratically
            and no diffusion constant exists, and wherever D overflows a float.
        DomainError: outside [0, 1].
    """
    p = _check_p(p)
    if p == 0.0:
        raise BallisticRegimeError(
            "the coherent walk (p = 0) spreads ballistically; "
            "the diffusion constant diverges"
        )
    if p == 1.0:
        # I(x) -> 0 as x -> 0+, so report the limiting values.
        return DiffusionResult(p=1.0, prefactor=0.5, diffusion=0.0, integral=0.0)
    integral = diffusion_integral(1.0 - p)
    prefactor = 0.5 * (1.0 - (1.0 - p) * integral)
    diffusion = (1.0 - p) / p * prefactor
    if diffusion == math.inf:  # (1 - p) / p overflows below about 5.56e-309
        raise BallisticRegimeError(f"the diffusion constant overflows a float at p = {p!r}")
    return DiffusionResult(
        p=p,
        prefactor=prefactor,
        diffusion=diffusion,
        integral=integral,
    )


def critical_p(tol: float = 1e-10) -> float:
    """The link-failure probability where D(p) = 1/2, by bisection.

    D(p) is checked to be strictly decreasing on a coarse bracketing grid
    first, so the bisection target is the unique crossing.

    Raises:
        BracketingError: if the bracketing grid is not strictly decreasing
            or the interval [0.05, 0.95] does not straddle the crossing.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    lo, hi = 0.05, 0.95
    grid = np.linspace(lo, hi, 19)
    values = [diffusion_closed_form(p).diffusion for p in grid]
    if any(b >= a for a, b in zip(values, values[1:])):
        raise BracketingError("D(p) is not strictly decreasing on [0.05, 0.95]")
    if not values[0] > 0.5 > values[-1]:
        raise BracketingError(
            "D(p) - 1/2 does not change sign on [0.05, 0.95]"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diffusion_closed_form(mid).diffusion > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
