"""Option contracts and the closed-form transform of the damped payoff.

Contracts are expressed in log-moneyness coordinates x = log(S/S0):
k = log(K/S0), l = log(L/S0), u = log(U/S0).  The damped payoff

    phi(x) = exp(alpha x) * S0 * (theta (e^x - e^k))^+ * 1_[b,a](x)

has the analytic transform

    phi_hat(xi) = S0 * [ (e^{(1+i xi+alpha) a} - e^{(1+i xi+alpha) b}) / (1+i xi+alpha)
                       - (e^{k+(i xi+alpha) a} - e^{k+(i xi+alpha) b}) / (i xi+alpha) ],

with a = u, b = max(k, l) for a call and a = l, b = min(k, u) for a put.
An infinite upper barrier is truncated at the grid edge x_max, matching
the finite computational domain.  A grid that misses a barrier (a band
the clipping empties, or a lone barrier at or beyond the edge, which
would price 0) is rejected in one place, ``clipped_barriers``, so every
method refuses it.  The removable singularities at i*xi + alpha = 0 and
1 + i*xi + alpha = 0 are evaluated by their limits.
The transform is returned as a plain length-M array on the xi lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

__all__ = ["OptionContract", "damped_payoff_fourier"]


@dataclass(frozen=True)
class OptionContract:
    """Discretely monitored barrier contract (N equally spaced dates)."""

    S0: float
    K: float
    T: float
    N: int
    r: float = 0.0
    q_div: float = 0.0
    L: float = 0.0  # lower barrier; 0 disables it
    U: float = math.inf  # upper barrier; inf disables it
    kind: str = "call"
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.S0 <= 0 or self.K <= 0:
            raise ValueError("spot and strike must be positive")
        if self.T <= 0:
            raise ValueError(f"maturity must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"monitoring count must be >= 1, got {self.N}")
        if self.L < 0:
            raise ValueError(f"lower barrier must be >= 0, got {self.L}")
        if not self.L < self.U:
            raise ValueError(f"need L < U, got L={self.L}, U={self.U}")
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")

    @property
    def theta(self) -> int:
        return 1 if self.kind == "call" else -1

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def log_strike(self) -> float:
        return math.log(self.K / self.S0)

    @property
    def log_lower(self) -> float:
        return math.log(self.L / self.S0) if self.L > 0 else -math.inf

    @property
    def log_upper(self) -> float:
        return math.log(self.U / self.S0) if math.isfinite(self.U) else math.inf

    @property
    def has_lower(self) -> bool:
        return self.L > 0

    @property
    def has_upper(self) -> bool:
        return math.isfinite(self.U)

    @property
    def log_anchor(self) -> float:
        """Largest of |k|, |l| and |u| over the levels the contract has."""
        anchors = [abs(self.log_strike)]
        if self.has_lower:
            anchors.append(abs(self.log_lower))
        if self.has_upper:
            anchors.append(abs(self.log_upper))
        return max(anchors)

    def clipped_barriers(self, x_max: float) -> tuple[float, float]:
        """Log barriers (l, u) clipped to [-x_max, x_max]; absent ones sit on
        the edge.  A barrier the grid does not reach (l >= x_max or
        u <= -x_max) is rejected with ValueError; so is, by that alone,
        every band the clipping would empty."""
        l, u = max(self.log_lower, -x_max), min(self.log_upper, x_max)
        if l >= x_max or u <= -x_max:
            name, b = ("lower barrier l", l) if l >= x_max else ("upper barrier u", u)
            raise ValueError(f"{name} = {b:.6g} lies outside the grid, x_max = {x_max:.6g}")
        return l, u

    def support(self, x_max: float) -> tuple[float, float]:
        """Transform integration limits (a, b) on a grid of half-width
        x_max: a = u, b = max(k, l) for a call, a = l, b = min(k, u) for
        a put.  The payoff support is empty when theta * (a - b) <= 0."""
        k = self.log_strike
        l_eff, u_eff = self.clipped_barriers(x_max)
        if self.kind == "call":
            return u_eff, max(k, l_eff)
        return l_eff, min(k, u_eff)


def _phase_ratio(s: np.ndarray, a: float, b: float) -> np.ndarray:
    """(e^{s a} - e^{s b}) / s with the s -> 0 limit a - b."""
    out = np.empty_like(s)
    zero = np.abs(s) < 1e-14
    nz = ~zero
    out[nz] = (np.exp(s[nz] * a) - np.exp(s[nz] * b)) / s[nz]
    out[zero] = a - b
    return out


def damped_payoff_fourier(contract: OptionContract, grid: GridSpec) -> np.ndarray:
    """Analytic transform of the damped payoff sampled on the xi lattice,
    with the contract's alpha as the tilt; empty payoff support yields
    the zero spectrum."""
    a, b = contract.support(grid.x_max)
    if contract.theta * (a - b) <= 0:
        return np.zeros(grid.M, dtype=complex)
    ixa = 1j * grid.xi + contract.alpha
    k = contract.log_strike
    return contract.S0 * (
        _phase_ratio(ixa + 1.0, a, b) - math.exp(k) * _phase_ratio(ixa, a, b)
    )
