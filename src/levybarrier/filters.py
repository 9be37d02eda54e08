"""Spectral filters applied pointwise on the scaled frequency eta = xi/xi_max.

Two families: the exponential filter sigma(eta) = exp(-theta * eta^p)
with even order p, and the Planck taper, which is exactly 1 on the
central band [eps-1, 1-eps] and rolls off to exactly 0 at |eta| = 1
through a C-infinity sigmoid.

Default exponential parameters p = 12 and theta = 16 ln 10 put the
band-edge value at 1e-16, i.e. at double-precision machine accuracy.
A ``FilterSpec`` names the taper only; the pricing method says whether
one applies, and "no taper" is ``None``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FilterKind", "FilterSpec", "eval_filter", "filter_profile"]

DEFAULT_EXPONENT = 12
DEFAULT_THETA = 16.0 * math.log(10.0)
DEFAULT_EPS = 0.25


class FilterKind(str, enum.Enum):
    EXPONENTIAL = "exponential"
    PLANCK = "planck"


@dataclass(frozen=True)
class FilterSpec:
    kind: FilterKind = FilterKind.EXPONENTIAL
    p: int = DEFAULT_EXPONENT
    theta: float = DEFAULT_THETA
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FilterKind(self.kind))
        if self.kind is FilterKind.EXPONENTIAL:
            if self.p < 2 or self.p % 2 != 0:
                raise ValueError(f"exponential filter order must be even >= 2, got {self.p}")
            if self.theta <= 0:
                raise ValueError(f"exponential filter strength must be positive, got {self.theta}")
        if self.kind is FilterKind.PLANCK and not (0.0 < self.eps < 0.5):
            raise ValueError(f"planck taper slope fraction must lie in (0, 0.5), got {self.eps}")

    @classmethod
    def exponential(cls, p: int = DEFAULT_EXPONENT, theta: float = DEFAULT_THETA) -> "FilterSpec":
        return cls(FilterKind.EXPONENTIAL, p=p, theta=theta)

    @classmethod
    def planck(cls, eps: float = DEFAULT_EPS) -> "FilterSpec":
        return cls(FilterKind.PLANCK, eps=eps)

    def label(self) -> str:
        if self.kind is FilterKind.EXPONENTIAL:
            return f"exp(p={self.p})"
        return f"planck(eps={self.eps:g})"


def _planck(eta: np.ndarray, eps: float) -> np.ndarray:
    """Piecewise taper: 0 at |eta| >= 1, 1 on [eps-1, 1-eps], sigmoid between."""
    eta1, eta2 = -1.0, eps - 1.0
    eta3, eta4 = 1.0 - eps, 1.0
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


def eval_filter(spec: FilterSpec, eta) -> np.ndarray | float:
    """sigma(eta) for |eta| <= 1; raises outside the supported band."""
    scalar = np.isscalar(eta)
    e = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.any(np.abs(e) > 1.0 + 1e-15):
        raise ValueError("filter argument eta must satisfy |eta| <= 1")
    if spec.kind is FilterKind.EXPONENTIAL:
        out = np.exp(-spec.theta * e**spec.p)
    else:
        out = _planck(e, spec.eps)
    return float(out[0]) if scalar else out


def filter_profile(spec: FilterSpec, grid) -> np.ndarray:
    """sigma sampled on the grid's eta lattice."""
    return np.asarray(eval_filter(spec, grid.eta), dtype=float)
