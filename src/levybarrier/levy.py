"""Risk-neutral Levy models with closed-form characteristic functions.

Each model describes the log-price X(t) = log(S_t/S_0) of an exponential
Levy process under the risk-neutral measure.  The characteristic function
is Psi(xi, t) = E[exp(i xi X(t))] = exp(psi(xi) t), where the exponent
psi(xi) = i*a*xi + psi0(xi) carries a drift a fixed in closed form by the
martingale condition Psi(-1j, t) = exp((r - q) t).

Supported models and parameters (annualised):

  gaussian  sigma
  kou       sigma, lam, p, eta1, eta2   (double-exponential jumps; eta1 > 1)
  nig       alpha, beta, delta          (|beta| < alpha, |beta + 1| < alpha)
  vg        theta, sigma, nu            (1 - nu*theta - nu*sigma^2/2 > 0)

The per-model frequency "strip of regularity" (the band of Im(xi) where
Psi stays analytic) is tracked so damped evaluations Psi(xi + i*alpha, t)
can be validated before use.  ``polynomial_decay`` tells the pricers
whether |Psi| falls only polynomially in |xi| (vg) rather than
exponentially (gaussian, kou, nig).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["ModelKind", "LevyModel"]


class ModelKind(str, enum.Enum):
    KOU = "kou"
    NIG = "nig"
    VG = "vg"
    GAUSSIAN = "gaussian"


_REQUIRED_PARAMS = {
    ModelKind.KOU: ("sigma", "lam", "p", "eta1", "eta2"),
    ModelKind.NIG: ("alpha", "beta", "delta"),
    ModelKind.VG: ("theta", "sigma", "nu"),
    ModelKind.GAUSSIAN: ("sigma",),
}


@dataclass(frozen=True)
class LevyModel:
    """Immutable process descriptor; all evaluation methods are pure."""

    kind: ModelKind
    params: Mapping[str, float]
    r: float = 0.0
    q_div: float = 0.0
    drift: float = field(init=False)

    def __post_init__(self) -> None:
        kind = ModelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        required = _REQUIRED_PARAMS[kind]
        missing = [k for k in required if k not in self.params]
        extra = [k for k in self.params if k not in required]
        if missing or extra:
            raise ValueError(
                f"{kind.value} parameters: missing {missing}, unexpected {extra}"
            )
        p = {k: float(v) for k, v in self.params.items()}
        object.__setattr__(self, "params", p)
        for name, value in {**p, "r": self.r, "q_div": self.q_div}.items():
            if not math.isfinite(value):
                raise ValueError(f"{kind.value}: {name} must be finite, got {value}")
        self._validate(p)
        # martingale condition: psi(-i) = r - q  =>  a = r - q - psi0(-i)
        psi0_at = self._psi0(np.array(-1j))
        if abs(psi0_at.imag) > 1e-12:
            raise ValueError("psi0(-i) must be real; check parameter domain")
        object.__setattr__(self, "drift", self.r - self.q_div - psi0_at.real)

    def _validate(self, p: Mapping[str, float]) -> None:
        kind = self.kind
        if kind is ModelKind.GAUSSIAN:
            if p["sigma"] <= 0:
                raise ValueError("gaussian: sigma > 0 required")
        elif kind is ModelKind.KOU:
            if not (0.0 < p["p"] < 1.0):
                raise ValueError("kou: p in (0,1) required")
            if p["lam"] <= 0 or p["sigma"] <= 0:
                raise ValueError("kou: lam > 0 and sigma > 0 required")
            if p["eta1"] <= 1.0:
                raise ValueError("kou: eta1 > 1 required for a finite forward")
            if p["eta2"] <= 0:
                raise ValueError("kou: eta2 > 0 required")
        elif kind is ModelKind.NIG:
            if p["alpha"] <= 0 or p["delta"] <= 0:
                raise ValueError("nig: alpha > 0 and delta > 0 required")
            if abs(p["beta"]) >= p["alpha"]:
                raise ValueError("nig: |beta| < alpha required")
            if abs(p["beta"] + 1.0) >= p["alpha"]:
                raise ValueError("nig: |beta + 1| < alpha required for a finite forward")
        elif kind is ModelKind.VG:
            if p["sigma"] <= 0 or p["nu"] <= 0:
                raise ValueError("vg: sigma > 0 and nu > 0 required")
            if 1.0 - p["nu"] * p["theta"] - 0.5 * p["nu"] * p["sigma"] ** 2 <= 0:
                raise ValueError("vg: 1 - nu*theta - nu*sigma^2/2 > 0 required")

    # -- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, sigma: float, r: float = 0.0, q_div: float = 0.0) -> "LevyModel":
        return cls(ModelKind.GAUSSIAN, {"sigma": sigma}, r, q_div)

    @classmethod
    def kou(
        cls,
        sigma: float,
        lam: float,
        p: float,
        eta1: float,
        eta2: float,
        r: float = 0.0,
        q_div: float = 0.0,
    ) -> "LevyModel":
        return cls(
            ModelKind.KOU,
            {"sigma": sigma, "lam": lam, "p": p, "eta1": eta1, "eta2": eta2},
            r,
            q_div,
        )

    @classmethod
    def nig(
        cls, alpha: float, beta: float, delta: float, r: float = 0.0, q_div: float = 0.0
    ) -> "LevyModel":
        return cls(ModelKind.NIG, {"alpha": alpha, "beta": beta, "delta": delta}, r, q_div)

    @classmethod
    def vg(
        cls, theta: float, sigma: float, nu: float, r: float = 0.0, q_div: float = 0.0
    ) -> "LevyModel":
        return cls(ModelKind.VG, {"theta": theta, "sigma": sigma, "nu": nu}, r, q_div)

    # -- analytic structure -------------------------------------------

    @property
    def strip(self) -> tuple[float, float]:
        """Open interval of Im(xi) where Psi(xi, t) is analytic.

        The bounds come from the poles / branch points of the closed
        forms: kou has simple poles at xi = -1j*eta1 and xi = 1j*eta2,
        nig has branch points at Im(xi) = beta -/+ alpha, vg at the real
        roots of 1 + nu*theta*v - nu*sigma^2*v^2/2 = 0.
        """
        p = self.params
        if self.kind is ModelKind.GAUSSIAN:
            return (-math.inf, math.inf)
        if self.kind is ModelKind.KOU:
            return (-p["eta1"], p["eta2"])
        if self.kind is ModelKind.NIG:
            return (p["beta"] - p["alpha"], p["beta"] + p["alpha"])
        # vg: -(nu sigma^2/2) v^2 + nu theta v + 1 = 0
        disc = math.sqrt(p["theta"] ** 2 + 2.0 * p["sigma"] ** 2 / p["nu"])
        lo = (p["theta"] - disc) / p["sigma"] ** 2
        hi = (p["theta"] + disc) / p["sigma"] ** 2
        return (lo, hi)

    @property
    def polynomial_decay(self) -> bool:
        """Whether |Psi(xi, t)| decays only polynomially as |xi| -> inf.

        True for vg, whose characteristic function falls like
        |xi|^(-2t/nu); every other supported model decays exponentially.
        """
        return self.kind is ModelKind.VG

    def _psi0(self, xi: np.ndarray) -> np.ndarray:
        """Characteristic exponent without drift (complex, vectorised)."""
        p = self.params
        xi = np.asarray(xi, dtype=complex)
        if self.kind is ModelKind.GAUSSIAN:
            return -0.5 * p["sigma"] ** 2 * xi**2
        if self.kind is ModelKind.KOU:
            jump = (
                (1.0 - p["p"]) * p["eta2"] / (p["eta2"] + 1j * xi)
                + p["p"] * p["eta1"] / (p["eta1"] - 1j * xi)
                - 1.0
            )
            return -0.5 * p["sigma"] ** 2 * xi**2 + p["lam"] * jump
        if self.kind is ModelKind.NIG:
            gam = math.sqrt(p["alpha"] ** 2 - p["beta"] ** 2)
            return -p["delta"] * (np.sqrt(p["alpha"] ** 2 - (p["beta"] + 1j * xi) ** 2) - gam)
        # vg
        arg = 1.0 - 1j * p["nu"] * p["theta"] * xi + 0.5 * p["nu"] * p["sigma"] ** 2 * xi**2
        return -np.log(arg) / p["nu"]

    def char_exponent(self, xi) -> np.ndarray:
        """psi(xi) with the risk-neutral drift included."""
        xi = np.asarray(xi, dtype=complex)
        self._check_strip(xi)
        return 1j * self.drift * xi + self._psi0(xi)

    def char_function(self, xi, t: float) -> np.ndarray:
        """Psi(xi, t) = exp(psi(xi) t); requires t >= 0 and xi in the strip."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return np.exp(self.char_exponent(xi) * t)

    def _check_strip(self, xi: np.ndarray) -> None:
        im = np.imag(xi)
        lo, hi = self.strip
        im_min = float(np.min(im))
        im_max = float(np.max(im))
        if im_min <= lo or im_max >= hi:
            raise ValueError(
                f"Im(xi) range [{im_min:g}, {im_max:g}] outside the "
                f"{self.kind.value} strip of regularity ({lo:g}, {hi:g})"
            )

    def variance(self, t: float) -> float:
        """Var[X(t)] from the second cumulant, used for grid sizing."""
        p = self.params
        if self.kind is ModelKind.GAUSSIAN:
            c2 = p["sigma"] ** 2
        elif self.kind is ModelKind.KOU:
            c2 = p["sigma"] ** 2 + p["lam"] * (
                2.0 * p["p"] / p["eta1"] ** 2 + 2.0 * (1.0 - p["p"]) / p["eta2"] ** 2
            )
        elif self.kind is ModelKind.NIG:
            c2 = p["delta"] * p["alpha"] ** 2 / (p["alpha"] ** 2 - p["beta"] ** 2) ** 1.5
        else:  # vg
            c2 = p["sigma"] ** 2 + p["nu"] * p["theta"] ** 2
        return c2 * t
