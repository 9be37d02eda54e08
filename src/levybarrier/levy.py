"""Risk-neutral Levy models with closed-form characteristic functions.

Each model describes the log-price X(t) = log(S_t/S_0) of an exponential
Levy process under the risk-neutral measure.  The characteristic function
is Psi(xi, t) = E[exp(i xi X(t))] = exp(psi(xi) t), where the exponent
psi(xi) = i*a*xi + psi0(xi) carries a drift a fixed in closed form by the
martingale condition Psi(-1j, t) = exp((r - q) t).

One small type per family, its law (Gaussian, Kou, NIG, VG), holds the
annualised parameters, their checks, the driftless exponent psi0, the
"strip of regularity" (the band of Im(xi) where Psi is analytic, checked
before a damped evaluation Psi(xi + i*alpha, t)), the second cumulant per
unit time, the exact increment sampler of the Monte Carlo oracle, and two
facts the pricers read: ``pure_jump`` (no diffusion part: nig, vg) and
``polynomial_decay`` (|Psi| falls only polynomially in |xi|: vg).
``LevyModel`` adds what no family owns: the rates, the martingale drift
and Psi itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

__all__ = ["Gaussian", "Kou", "NIG", "VG", "Law", "LevyModel"]


class _Law:
    """Each parameter becomes a float and must be finite; then ``_check``."""

    pure_jump: ClassVar[bool] = False
    polynomial_decay: ClassVar[bool] = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = float(getattr(self, f.name))
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: {f.name} must be finite, got {value}")
            object.__setattr__(self, f.name, value)
        self._check()


@dataclass(frozen=True)
class Gaussian(_Law):
    """Brownian motion of volatility sigma > 0."""

    sigma: float
    name: ClassVar[str] = "gaussian"
    strip: ClassVar[tuple[float, float]] = (-math.inf, math.inf)

    def _check(self) -> None:
        if self.sigma <= 0:
            raise ValueError("gaussian: sigma > 0 required")

    def psi0(self, xi: np.ndarray) -> np.ndarray:
        return -0.5 * self.sigma**2 * xi**2

    @property
    def cumulant2(self) -> float:
        return self.sigma**2

    def increments(self, drift: float, dt: float, size: int, rng) -> np.ndarray:
        return drift + self.sigma * math.sqrt(dt) * rng.standard_normal(size)


@dataclass(frozen=True)
class Kou(_Law):
    """Diffusion plus double-exponential jumps of rate lam, up w.p. p; eta1 > 1."""

    sigma: float
    lam: float
    p: float
    eta1: float
    eta2: float
    name: ClassVar[str] = "kou"

    def _check(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError("kou: p in (0,1) required")
        if self.lam <= 0 or self.sigma <= 0:
            raise ValueError("kou: lam > 0 and sigma > 0 required")
        if self.eta1 <= 1.0:
            raise ValueError("kou: eta1 > 1 required for a finite forward")
        if self.eta2 <= 0:
            raise ValueError("kou: eta2 > 0 required")

    @property
    def strip(self) -> tuple[float, float]:
        """Simple poles at xi = -1j*eta1 and xi = 1j*eta2."""
        return (-self.eta1, self.eta2)

    def psi0(self, xi: np.ndarray) -> np.ndarray:
        jump = ((1.0 - self.p) * self.eta2 / (self.eta2 + 1j * xi)
                + self.p * self.eta1 / (self.eta1 - 1j * xi) - 1.0)
        return -0.5 * self.sigma**2 * xi**2 + self.lam * jump

    @property
    def cumulant2(self) -> float:
        jumps = 2.0 * self.p / self.eta1**2 + 2.0 * (1.0 - self.p) / self.eta2**2
        return self.sigma**2 + self.lam * jumps

    def increments(self, drift: float, dt: float, size: int, rng) -> np.ndarray:
        out = drift + self.sigma * math.sqrt(dt) * rng.standard_normal(size)
        counts = rng.poisson(self.lam * dt, size)
        total = int(counts.sum())
        if total:
            up = rng.random(total) < self.p
            mags = np.where(
                up,
                rng.exponential(1.0 / self.eta1, total),
                -rng.exponential(1.0 / self.eta2, total),
            )
            np.add.at(out, np.repeat(np.arange(size), counts), mags)
        return out


@dataclass(frozen=True)
class NIG(_Law):
    """Normal inverse Gaussian; |beta| < alpha and |beta + 1| < alpha."""

    alpha: float
    beta: float
    delta: float
    name: ClassVar[str] = "nig"
    pure_jump: ClassVar[bool] = True

    def _check(self) -> None:
        if self.alpha <= 0 or self.delta <= 0:
            raise ValueError("nig: alpha > 0 and delta > 0 required")
        if abs(self.beta) >= self.alpha:
            raise ValueError("nig: |beta| < alpha required")
        if abs(self.beta + 1.0) >= self.alpha:
            raise ValueError("nig: |beta + 1| < alpha required for a finite forward")

    @property
    def strip(self) -> tuple[float, float]:
        """Branch points at Im(xi) = beta -/+ alpha."""
        return (self.beta - self.alpha, self.beta + self.alpha)

    def psi0(self, xi: np.ndarray) -> np.ndarray:
        gam = math.sqrt(self.alpha**2 - self.beta**2)
        return -self.delta * (np.sqrt(self.alpha**2 - (self.beta + 1j * xi) ** 2) - gam)

    @property
    def cumulant2(self) -> float:
        return self.delta * self.alpha**2 / (self.alpha**2 - self.beta**2) ** 1.5

    def increments(self, drift: float, dt: float, size: int, rng) -> np.ndarray:
        gam = math.sqrt(self.alpha**2 - self.beta**2)
        # subordinator: inverse Gaussian with mean delta*dt/gam, shape (delta*dt)^2
        tau = rng.wald(self.delta * dt / gam, (self.delta * dt) ** 2, size)
        return drift + self.beta * tau + np.sqrt(tau) * rng.standard_normal(size)


@dataclass(frozen=True)
class VG(_Law):
    """Variance gamma; 1 - nu*theta - nu*sigma^2/2 > 0."""

    theta: float
    sigma: float
    nu: float
    name: ClassVar[str] = "vg"
    pure_jump: ClassVar[bool] = True
    polynomial_decay: ClassVar[bool] = True  # |Psi(xi, t)| ~ |xi|^(-2t/nu)

    def _check(self) -> None:
        if self.sigma <= 0 or self.nu <= 0:
            raise ValueError("vg: sigma > 0 and nu > 0 required")
        if 1.0 - self.nu * self.theta - 0.5 * self.nu * self.sigma**2 <= 0:
            raise ValueError("vg: 1 - nu*theta - nu*sigma^2/2 > 0 required")

    @property
    def strip(self) -> tuple[float, float]:
        """Branch points at the real roots v of 1 + nu*theta*v - nu*sigma^2*v^2/2."""
        disc = math.sqrt(self.theta**2 + 2.0 * self.sigma**2 / self.nu)
        return ((self.theta - disc) / self.sigma**2, (self.theta + disc) / self.sigma**2)

    def psi0(self, xi: np.ndarray) -> np.ndarray:
        arg = 1.0 - 1j * self.nu * self.theta * xi + 0.5 * self.nu * self.sigma**2 * xi**2
        return -np.log(arg) / self.nu

    @property
    def cumulant2(self) -> float:
        return self.sigma**2 + self.nu * self.theta**2

    def increments(self, drift: float, dt: float, size: int, rng) -> np.ndarray:
        tau = rng.gamma(dt / self.nu, self.nu, size)
        return drift + self.theta * tau + self.sigma * np.sqrt(tau) * rng.standard_normal(size)


Law = Gaussian | Kou | NIG | VG


@dataclass(frozen=True)
class LevyModel:
    """A law under the rates r and q_div; all evaluation methods are pure."""

    law: Law
    r: float = 0.0
    q_div: float = 0.0
    drift: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("r", "q_div"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{self.law.name}: {name} must be finite, got {value}")
        # martingale condition: psi(-i) = r - q  =>  a = r - q - psi0(-i)
        psi0_at = self.law.psi0(np.array(-1j))
        if abs(psi0_at.imag) > 1e-12:
            raise ValueError("psi0(-i) must be real; check parameter domain")
        object.__setattr__(self, "drift", self.r - self.q_div - psi0_at.real)

    @classmethod
    def gaussian(cls, sigma: float, r: float = 0.0, q_div: float = 0.0) -> "LevyModel":
        return cls(Gaussian(sigma), r, q_div)

    @classmethod
    def kou(cls, sigma: float, lam: float, p: float, eta1: float, eta2: float,
            r: float = 0.0, q_div: float = 0.0) -> "LevyModel":
        return cls(Kou(sigma, lam, p, eta1, eta2), r, q_div)

    @classmethod
    def nig(cls, alpha: float, beta: float, delta: float,
            r: float = 0.0, q_div: float = 0.0) -> "LevyModel":
        return cls(NIG(alpha, beta, delta), r, q_div)

    @classmethod
    def vg(cls, theta: float, sigma: float, nu: float,
           r: float = 0.0, q_div: float = 0.0) -> "LevyModel":
        return cls(VG(theta, sigma, nu), r, q_div)

    def char_function(self, xi, t: float) -> np.ndarray:
        """Psi(xi, t) = exp(psi(xi) t), for t >= 0 and Im(xi) inside the law's strip."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        xi = np.asarray(xi, dtype=complex)
        im_min, im_max = float(np.min(xi.imag)), float(np.max(xi.imag))
        lo, hi = self.law.strip
        if im_min <= lo or im_max >= hi:
            raise ValueError(f"Im(xi) range [{im_min:g}, {im_max:g}] outside the "
                             f"{self.law.name} strip of regularity ({lo:g}, {hi:g})")
        return np.exp((1j * self.drift * xi + self.law.psi0(xi)) * t)

    def variance(self, t: float) -> float:
        """Var[X(t)] from the second cumulant, used for grid sizing."""
        return self.law.cumulant2 * t
