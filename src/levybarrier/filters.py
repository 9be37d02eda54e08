"""Spectral tapers sigma, called on the scaled frequency eta = xi/xi_max
in the band |eta| <= 1.  One small type per family: the exponential
filter exp(-EXP_STRENGTH * eta^p) of even order p, whose fixed strength
16 ln 10 puts the band-edge value at 1e-16 (double-precision machine
accuracy) whatever the order, and the Planck taper, exactly 1 on
[eps-1, 1-eps] and rolling off to exactly 0 at |eta| = 1 through a
C-infinity sigmoid.  DEFAULT_TAPER is the taper a filtered method takes
when given none; the method says whether one applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DEFAULT_TAPER", "EXP_STRENGTH", "ExponentialFilter", "PlanckTaper", "Taper",
           "filter_profile"]

EXP_STRENGTH = 16.0 * math.log(10.0)


def _in_band(eta) -> np.ndarray:
    """eta as a float array; raises outside the supported band |eta| <= 1."""
    e = np.asarray(eta, dtype=float)
    if np.any(np.abs(e) > 1.0 + 1e-15):
        raise ValueError("filter argument eta must satisfy |eta| <= 1")
    return e


@dataclass(frozen=True)
class ExponentialFilter:
    """sigma(eta) = exp(-EXP_STRENGTH * eta^p), of even order p >= 2."""

    p: int = 12

    def __post_init__(self) -> None:
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError(f"exponential filter order must be even >= 2, got {self.p}")

    def __call__(self, eta) -> np.ndarray:
        return np.exp(-EXP_STRENGTH * _in_band(eta) ** self.p)

    def label(self) -> str:
        return f"exp(p={self.p})"


@dataclass(frozen=True)
class PlanckTaper:
    """0 at |eta| >= 1, 1 on [eps-1, 1-eps], a sigmoid between; 0 < eps < 0.5."""

    eps: float = 0.25

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 0.5):
            raise ValueError(f"planck taper slope fraction must lie in (0, 0.5), got {self.eps}")

    def __call__(self, eta) -> np.ndarray:
        eta = _in_band(eta)
        eta1, eta2 = -1.0, self.eps - 1.0
        eta3, eta4 = 1.0 - self.eps, 1.0
        out = np.ones_like(eta)
        out[eta <= eta1] = 0.0
        out[eta >= eta4] = 0.0
        lo = (eta > eta1) & (eta < eta2)
        if np.any(lo):
            e = eta[lo]
            z = (eta2 - eta1) / (e - eta1) + (eta2 - eta1) / (e - eta2)
            out[lo] = 1.0 / (np.exp(np.clip(z, -700.0, 700.0)) + 1.0)
        hi = (eta > eta3) & (eta < eta4)
        if np.any(hi):
            e = eta[hi]
            z = (eta3 - eta4) / (e - eta3) + (eta3 - eta4) / (e - eta4)
            out[hi] = 1.0 / (np.exp(np.clip(z, -700.0, 700.0)) + 1.0)
        return out

    def label(self) -> str:
        return f"planck(eps={self.eps:g})"


Taper = ExponentialFilter | PlanckTaper

DEFAULT_TAPER = ExponentialFilter()


def filter_profile(taper: Taper, grid) -> np.ndarray:
    """sigma sampled on the grid's eta lattice."""
    return taper(grid.eta)
