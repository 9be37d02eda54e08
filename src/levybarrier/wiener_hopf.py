"""Wiener-Hopf factorisation of sampled spectra.

The multiplicative split Phi = Phi_plus * Phi_minus (factors analytic in
the upper / lower half-planes) is obtained by decomposing log Phi with
the half-line projections and exponentiating.  The z-domain pricer
checks rho |Psi(xi + i alpha)| < 1 on its contour |q| = rho, so
Phi = 1 - q*Psi keeps a positive real part: the principal log branch is
continuous and the winding check below is purely defensive.
"""

from __future__ import annotations

import numpy as np

from .hilbert import HilbertKernel

__all__ = [
    "SingularInputError",
    "BranchFailureError",
    "factorize_values",
]

MIN_MODULUS = 1e-14


class SingularInputError(ValueError):
    """Input spectrum too close to zero for a stable logarithm."""


class BranchFailureError(ArithmeticError):
    """Phase winding detected; a continuous log branch is unavailable."""


def _continuous_log(values: np.ndarray) -> np.ndarray:
    """Principal log of each row of ``values`` (shape (..., M)).  The
    first row, in order, whose modulus or phase check fails raises, with
    that row's own numbers, as if the rows were passed one at a time."""
    mod = np.abs(values)
    phase = np.angle(values)
    # scan outward from xi = 0: any principal-branch jump signals winding
    winding = np.any(np.abs(np.diff(phase, axis=-1)) > np.pi, axis=-1)
    for low, wound in zip(np.ravel(np.min(mod, axis=-1)), np.ravel(winding)):
        if low < MIN_MODULUS:
            raise SingularInputError(
                f"minimum modulus {low:.3e} below {MIN_MODULUS:.0e}; cannot factorise"
            )
        if wound:
            raise BranchFailureError("phase winding detected in factorisation input")
    return np.log(mod) + 1j * phase


def factorize_values(values: np.ndarray, kernel: HilbertKernel) -> tuple[np.ndarray, np.ndarray]:
    """Phi -> (Phi_plus, Phi_minus) with Phi_plus * Phi_minus = Phi, on raw
    sample arrays of shape (..., M): one length-M vector or a stack of
    rows, each factorised bit for bit as if alone."""
    h = _continuous_log(values)
    ih = 1j * kernel.apply(h)
    return np.exp(0.5 * (h + ih)), np.exp(0.5 * (h - ih))
