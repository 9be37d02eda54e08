"""Barrier-option pricers on the shared frequency lattice.

Four methods are provided, all returning the t = 0 value of a discretely
monitored knock-out option with N dates:

* ``price_fgm`` solves the fluctuation identities for the
  barrier-constrained transition law in the combined Fourier/z-transform
  domain.  Per contour point q the kernel Phi = 1 - q Psi is factorised
  (Wiener-Hopf) and the barrier terms are isolated with half-line
  projections.  A down-and-out contract is solved directly; the
  double-barrier coupling is resolved by a small fixed-point iteration.
  Up-and-out contracts are not supported.  Two monitoring dates are
  withheld from the z-index and restored as explicit Psi factors, which
  smooths both ends of the scheme, so the inversion targets index N - 2.
  Cost is independent of N once the Euler-accelerated contour is in use.

* ``price_fl`` walks the value-function transform backwards date by
  date, applying the barrier window between propagation steps; cost is
  linear in N.

Everything that does not change within a pricing call is computed once
per call: the grid's Hilbert kernel (cached per grid), Psi, the
conjugated payoff, the taper and the barrier data of ``barrier_phases``.
``price_fl`` folds the barrier phases into one projection kernel (above,
below or window), so each monitoring date costs one single-row FFT
pair; ``price_fgm`` uses the phase vectors e^{-+i b xi} themselves and
forms its q-invariant products (phase-shifted Psi, payoff * Psi,
sigma * Psi, e^{i(u-l) xi}) once, shared by all contour points.  Only
q-dependent work runs per contour point or per monitoring date.

The filtered variants multiply the inputs of the Hilbert-transform
stages by a spectral taper sigma(xi/xi_max), which restores exponential
tail decay destroyed by the band-edge truncation (and, for polynomially
decaying characteristic functions, by the model itself).  Prices are
extracted at x = 0 through the conjugate pairing of payoff and density
transforms; the imaginary residue of that pairing is tracked as a
sanity diagnostic.
"""

from __future__ import annotations

import enum
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .filters import FilterSpec, filter_profile
from .grid import GridSpec, build_grid, inverse_at_zero
from .hilbert import (
    BarrierPhases,
    above_values,
    barrier_phases,
    below_values,
    hilbert_kernel,
    window_values,
)
from .levy import LevyModel, ModelKind
from .payoff import OptionContract, damped_payoff_fourier
from .wiener_hopf import factorize_values
from .ztransform import ZInversionConfig, contour_points, invert

__all__ = [
    "Method",
    "PricingResult",
    "FixedPointSettings",
    "default_x_max",
    "default_grid",
    "price_fgm",
    "price_fl",
    "price",
    "reference_price",
    "REFERENCE_M",
]

GRID_WIDTH_STDS = 12.0
BAND_WIDTH_STDS = 9.0


class Method(str, enum.Enum):
    FGM = "fgm"
    FGM_F = "fgm-f"
    FL = "fl"
    FL_F = "fl-f"

    @property
    def filtered(self) -> bool:
        return self in (Method.FGM_F, Method.FL_F)

    @property
    def recursive(self) -> bool:
        return self in (Method.FL, Method.FL_F)


@dataclass(frozen=True)
class PricingResult:
    """One price and how it was obtained.  ``cpu_seconds`` is wall-clock
    ``time.perf_counter`` time of the pricing work (not process CPU
    time); the name is kept because CLI CSV headers carry it."""

    price: float
    grid_m: int
    cpu_seconds: float
    method: Method
    filter: FilterSpec
    avg_iterations: float | None = None
    max_iter_hit: bool = False
    imag_residual: float = 0.0


@dataclass(frozen=True)
class FixedPointSettings:
    """Stop when the sup-norm change of the assembled transform between
    successive sweeps drops below tol (absolute scale; the transform is
    O(payoff)), or after max_iter sweeps."""

    tol: float = 1e-8
    max_iter: int = 5

    def __post_init__(self) -> None:
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


JUMP_WIDTH_STEP_STDS = 38.0


def default_x_max(contract: OptionContract, model: LevyModel, width: float | None = None) -> float:
    """Grid half-range: the payoff geometry plus a truncation margin.

    Open geometries (no barrier on one side) carry payoff mass toward
    the grid edge, so they get the full `width` standard deviations of
    X(T).  Band-confined (double-barrier) value functions tolerate a
    slightly tighter range, and for pure-jump models the margin scales
    with the one-step standard deviation instead: their characteristic
    function decays only like exp(-c dt |xi|) (or polynomially), which
    makes the frequency range pi*M/(2 x_max) the scarce resource.
    Models with a diffusion component decay like exp(-s^2 dt xi^2 / 2),
    so a generous log-price range costs them nothing."""
    std_T = math.sqrt(model.variance(contract.T))
    band_confined = contract.has_lower and contract.has_upper
    if width is None:
        width = BAND_WIDTH_STDS if band_confined else GRID_WIDTH_STDS
    margin = width * std_T
    if band_confined and model.kind in (ModelKind.NIG, ModelKind.VG):
        std_step = math.sqrt(model.variance(contract.dt))
        margin = min(margin, JUMP_WIDTH_STEP_STDS * std_step)
    return contract.log_anchor + margin


def default_grid(
    contract: OptionContract,
    model: LevyModel,
    M: int,
    x_max: float | None = None,
    width: float | None = None,
) -> GridSpec:
    if x_max is None:
        x_max = default_x_max(contract, model, width)
    return build_grid(M, x_max)


def _zconfig(contract: OptionContract, zcfg: ZInversionConfig | None) -> ZInversionConfig:
    n = contract.N - 2
    if zcfg is None:
        return ZInversionConfig(n=n)
    return replace(zcfg, n=n)


def _payoff_conj(contract: OptionContract, grid: GridSpec) -> np.ndarray:
    return np.conj(damped_payoff_fourier(contract, grid))


# ---------------------------------------------------------------------------
# z-transform-domain pricer
# ---------------------------------------------------------------------------


def _down_out_solver(
    psi: np.ndarray,
    pay_psi: np.ndarray,
    phases: BarrierPhases,
    sigma: np.ndarray | None,
) -> Callable[[complex], tuple[np.ndarray, int]]:
    """Direct solve per contour point, lower barrier only; the q-invariant
    products are formed once here."""
    kernel = phases.kernel
    psi_f = psi if sigma is None else sigma * psi
    shifted = phases.down_l * psi_f  # lower barrier shifted to the origin
    pay_up = pay_psi * phases.up_l

    def solve(q: complex) -> tuple[np.ndarray, int]:
        phi_plus, phi_minus = factorize_values(1.0 - q * psi_f, kernel)
        p_in = shifted / phi_minus
        p_plus = 0.5 * (p_in + 1j * kernel.apply(p_in))
        return pay_up * p_plus / phi_plus, 1

    return solve


def _band_solver(
    psi: np.ndarray,
    pay_psi: np.ndarray,
    phases: BarrierPhases,
    sigma: np.ndarray | None,
    filter_factorization: bool,
    fp: FixedPointSettings,
) -> Callable[[complex], tuple[np.ndarray, int]]:
    """Fixed-point solve of the coupled barrier terms per contour point,
    returning the spectrum and the number of sweeps; the q-invariant
    products are formed once here."""
    kernel = phases.kernel
    psi_fact = psi if not filter_factorization else sigma * psi
    xi = kernel.grid.xi
    e_ul = np.exp(1j * (phases.u - phases.l) * xi)
    e_lu = np.conj(e_ul)
    psi_l = phases.down_l * psi
    psi_u = phases.down_u * psi
    up_l, up_u = phases.up_l, phases.up_u
    zeros = np.zeros(kernel.grid.M, dtype=complex)

    def solve(q: complex) -> tuple[np.ndarray, int]:
        phi = 1.0 - q * psi_fact
        phi_plus, phi_minus = factorize_values(phi, kernel)
        j_plus = zeros
        f_old: np.ndarray | None = None
        iterations = 0
        while True:
            p = (psi_l - e_ul * j_plus) / phi_minus
            if sigma is not None:
                p = sigma * p
            p_minus = 0.5 * (p - 1j * kernel.apply(p))
            j_minus = p_minus * phi_minus
            qq = (psi_u - e_lu * j_minus) / phi_plus
            if sigma is not None:
                qq = sigma * qq
            q_plus = 0.5 * (qq + 1j * kernel.apply(qq))
            j_plus = q_plus * phi_plus
            f = pay_psi / phi * (psi - up_l * j_minus - up_u * j_plus)
            iterations += 1
            if f_old is not None and np.max(np.abs(f - f_old)) <= fp.tol:
                break
            if iterations >= fp.max_iter:
                break
            f_old = f
        return f, iterations

    return solve


def price_fgm(
    contract: OptionContract,
    model: LevyModel,
    grid: GridSpec,
    filt: FilterSpec | None = None,
    zcfg: ZInversionConfig | None = None,
    fp: FixedPointSettings | None = None,
) -> PricingResult:
    """Down-and-out or double-barrier price in the z-domain.

    A lower barrier alone is solved by the direct identity; with an
    upper barrier as well the coupled barrier terms are solved by the
    fixed-point iteration, whose average sweep count is reported.  With
    an active filter the projection inputs are tapered; the
    factorisation input is tapered for a single barrier, and for a band
    only when the characteristic function decays polynomially.
    Requires a lower barrier and N >= 3."""
    filt = filt or FilterSpec.none()
    fp = fp or FixedPointSettings()
    if not contract.has_lower:
        raise ValueError("z-domain pricer requires a lower barrier; use fl for up-and-out")
    if contract.N < 3:
        raise ValueError("z-domain pricers require N >= 3")
    kernel = hilbert_kernel(grid)
    cfg = _zconfig(contract, zcfg)
    sigma = filter_profile(filt, grid) if filt.active else None
    band = contract.has_upper
    filter_fact = band and filt.active and model.polynomial_decay

    start = time.perf_counter()
    psi = model.char_function(grid.xi + 1j * contract.alpha, contract.dt)
    pay_psi = _payoff_conj(contract, grid) * psi
    l, u = contract.clipped_barriers(grid.x_max)
    phases = barrier_phases(kernel, l, u if band else None)
    if band:
        solve = _band_solver(psi, pay_psi, phases, sigma, filter_fact, fp)
    else:
        solve = _down_out_solver(psi, pay_psi, phases, sigma)
    pts = contour_points(cfg).points
    vals = np.empty(len(pts), dtype=complex)
    iters = np.empty(len(pts))
    for idx, q in enumerate(pts):
        f, iters[idx] = solve(q)
        vals[idx] = inverse_at_zero(f, grid)
    undiscounted = invert(vals, cfg)
    price_val = math.exp(-contract.r * contract.T) * undiscounted
    elapsed = time.perf_counter() - start
    method = Method.FGM_F if filt.active else Method.FGM
    return PricingResult(
        price_val,
        grid.M,
        elapsed,
        method,
        filt,
        avg_iterations=float(np.mean(iters)) if band else None,
        max_iter_hit=band and bool(np.max(iters) >= fp.max_iter),
        imag_residual=float(abs(vals[0].imag)),  # q on the real axis must price real
    )


# ---------------------------------------------------------------------------
# backward-induction pricer
# ---------------------------------------------------------------------------


def price_fl(
    contract: OptionContract,
    model: LevyModel,
    grid: GridSpec,
    filt: FilterSpec | None = None,
) -> PricingResult:
    """Backward induction over the N monitoring dates in the frequency
    domain: N - 1 propagate-and-window steps, one final bare propagation,
    then evaluation at x = 0.

    The recursion carries the transform of the tilted value function
    exp(alpha x) v(x, t_n), whose terminal condition is the damped-payoff
    transform itself; the matching propagator is conj(Psi(xi + i alpha)).
    The asymmetric-model European limit fixes this orientation uniquely,
    and a negative alpha keeps the carrier integrable when the upper
    barrier is infinite."""
    filt = filt or FilterSpec.none()
    kernel = hilbert_kernel(grid)

    start = time.perf_counter()
    vhat = damped_payoff_fourier(contract, grid)
    psi = np.conj(model.char_function(grid.xi + 1j * contract.alpha, contract.dt))
    step = psi if not filt.active else filter_profile(filt, grid) * psi
    l, u = contract.clipped_barriers(grid.x_max)
    phases = barrier_phases(
        kernel, l if contract.has_lower else None, u if contract.has_upper else None
    )
    if contract.has_lower and contract.has_upper:
        project = lambda v: window_values(v, phases)
    elif contract.has_lower:
        project = lambda v: above_values(v, phases)
    elif contract.has_upper:
        project = lambda v: below_values(v, phases)
    else:
        project = lambda v: v  # no monitoring between dates
    for _ in range(contract.N - 1):
        vhat = project(step * vhat)
    final = psi * vhat
    value = inverse_at_zero(final, grid)
    price_val = math.exp(-contract.r * contract.T) * value.real
    elapsed = time.perf_counter() - start
    method = Method.FL_F if filt.active else Method.FL
    return PricingResult(
        price_val,
        grid.M,
        elapsed,
        method,
        filt,
        imag_residual=float(abs(value.imag)),
    )


def price(
    contract: OptionContract,
    model: LevyModel,
    method: Method,
    grid: GridSpec,
    filt: FilterSpec | None = None,
    zcfg: ZInversionConfig | None = None,
    fp: FixedPointSettings | None = None,
) -> PricingResult:
    """Dispatch on method.

    Filtered methods fall back to the default exponential taper when no
    filter is supplied; an explicitly inactive filter is rejected."""
    method = Method(method)
    if filt is None:
        filt = FilterSpec.exponential() if method.filtered else FilterSpec.none()
    if method.filtered and not filt.active:
        raise ValueError(f"method {method.value} requires an active filter")
    if not method.filtered and filt.active:
        raise ValueError(f"method {method.value} does not take a filter")
    if method.recursive:
        return price_fl(contract, model, grid, filt)
    return price_fgm(contract, model, grid, filt, zcfg, fp)


# grid size of the backward-induction reference the convergence studies
# and the tests measure errors against
REFERENCE_M = 2**16


def reference_price(contract: OptionContract, model: LevyModel, grid: GridSpec) -> float:
    """Backward-induction reference on a (large) grid: unfiltered for
    exponentially decaying characteristic functions, filtered otherwise."""
    filt = FilterSpec.exponential() if model.polynomial_decay else FilterSpec.none()
    return price_fl(contract, model, grid, filt).price
