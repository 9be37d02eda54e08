"""Option contracts and the closed-form transform of the damped payoff.

Contracts are expressed in log-moneyness coordinates x = log(S/S0):
k = log(K/S0), l = log(L/S0), u = log(U/S0).  The damped payoff

    phi(x) = exp(alpha x) * S0 * (theta (e^x - e^k))^+ * 1_[b,a](x)

has the analytic transform

    phi_hat(xi) = S0 * [ (e^{(1+i xi+alpha) a} - e^{(1+i xi+alpha) b}) / (1+i xi+alpha)
                       - (e^{k+(i xi+alpha) a} - e^{k+(i xi+alpha) b}) / (i xi+alpha) ],

with a = u, b = max(k, l) for a call and a = l, b = min(k, u) for a put;
the pricer picks alpha (``pricers.payoff_tilt``).  An infinite upper
barrier is truncated at the grid edge x_max, matching the finite
computational domain.  A grid that does not reach past the strike and
each barrier the contract has (x_max <= |k|, |l| or |u|) would price 0
or move a barrier onto its edge; it is rejected in one place,
``log_barriers``, so every method refuses it.  The removable
singularities at i*xi + alpha = 0 and 1 + i*xi + alpha = 0 are evaluated
by their limits.
The transform is returned as a plain length-M array on the xi lattice.
"""

from __future__ import annotations

import math
import numbers
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

    def __post_init__(self) -> None:
        for name in ("S0", "K", "T", "r", "q_div"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if math.isnan(self.L) or math.isnan(self.U):
            raise ValueError(f"barriers must not be NaN, got L={self.L}, U={self.U}")
        if self.S0 <= 0 or self.K <= 0:
            raise ValueError("spot and strike must be positive")
        if self.T <= 0:
            raise ValueError(f"maturity must be positive, got {self.T}")
        if not isinstance(self.N, numbers.Integral):
            raise ValueError(f"N must be an integer, got {self.N!r}")
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
    def _levels(self) -> list[tuple[str, float]]:
        """(name, log level) of the strike and of each barrier the contract has."""
        out = [("log-strike k", self.log_strike)]
        if self.has_lower:
            out.append(("lower barrier l", self.log_lower))
        if self.has_upper:
            out.append(("upper barrier u", self.log_upper))
        return out

    @property
    def log_anchor(self) -> float:
        """Largest of |k|, |l| and |u| over the levels the contract has."""
        return max(abs(level) for _, level in self._levels)

    def check_rates(self, model) -> None:
        """Reject a model of other rates: its drift uses r - q, the pricers discount at r."""
        ours, theirs = (self.r, self.q_div), (model.r, model.q_div)
        if ours != theirs:
            raise ValueError(f"contract rates (r, q) = {ours} differ from the model's {theirs}")

    def log_barriers(self, x_max: float) -> tuple[float | None, float | None]:
        """Log barriers (l, u) on a grid of half-width x_max; None for an
        absent one.  A grid that does not reach past the strike and each
        barrier the contract has (x_max <= log_anchor) is rejected with a
        ValueError that names the level: it would price 0, or price a
        barrier moved onto the grid edge."""
        for name, level in self._levels:
            if abs(level) >= x_max:
                raise ValueError(
                    f"{name} = {level:.6g} lies outside the grid, x_max = {x_max:.6g}"
                )
        return (self.log_lower if self.has_lower else None,
                self.log_upper if self.has_upper else None)

    def support(self, x_max: float) -> tuple[float, float]:
        """Transform integration limits (a, b) on a grid of half-width
        x_max: a = u, b = max(k, l) for a call, a = l, b = min(k, u) for
        a put, an absent barrier sitting on the grid edge.  The payoff
        support is empty when theta * (a - b) <= 0."""
        k = self.log_strike
        l, u = self.log_barriers(x_max)
        if self.kind == "call":
            return (x_max if u is None else u), (k if l is None else max(k, l))
        return (-x_max if l is None else l), (k if u is None else min(k, u))


def _phase_ratio(s: np.ndarray, a: float, b: float) -> np.ndarray:
    """(e^{s a} - e^{s b}) / s with the s -> 0 limit a - b."""
    out = np.empty_like(s)
    zero = np.abs(s) < 1e-14
    nz = ~zero
    out[nz] = (np.exp(s[nz] * a) - np.exp(s[nz] * b)) / s[nz]
    out[zero] = a - b
    return out


def damped_payoff_fourier(contract: OptionContract, grid: GridSpec, alpha: float) -> np.ndarray:
    """Analytic transform of the payoff damped by e^{alpha x}, sampled on
    the xi lattice; empty payoff support yields the zero spectrum."""
    a, b = contract.support(grid.x_max)
    if contract.theta * (a - b) <= 0:
        return np.zeros(grid.M, dtype=complex)
    ixa = 1j * grid.xi + alpha
    k = contract.log_strike
    return contract.S0 * (
        _phase_ratio(ixa + 1.0, a, b) - math.exp(k) * _phase_ratio(ixa, a, b)
    )
