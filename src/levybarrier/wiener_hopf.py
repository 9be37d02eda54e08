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
    mod = np.abs(values)
    if np.min(mod) < MIN_MODULUS:
        raise SingularInputError(
            f"minimum modulus {np.min(mod):.3e} below {MIN_MODULUS:.0e}; cannot factorise"
        )
    phase = np.angle(values)
    # scan outward from xi = 0: any principal-branch jump signals winding
    if np.any(np.abs(np.diff(phase)) > np.pi):
        raise BranchFailureError("phase winding detected in factorisation input")
    return np.log(mod) + 1j * phase


def factorize_values(values: np.ndarray, kernel: HilbertKernel) -> tuple[np.ndarray, np.ndarray]:
    """Phi -> (Phi_plus, Phi_minus) with Phi_plus * Phi_minus = Phi, on raw
    length-M sample arrays."""
    h = _continuous_log(values)
    ih = 1j * kernel.apply(h)
    return np.exp(0.5 * (h + ih)), np.exp(0.5 * (h - ih))

