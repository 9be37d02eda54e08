"""Barrier-option pricers on the shared frequency lattice.

``price`` is the one entry point.  It prices the t = 0 value of a discretely
monitored knock-out option with N dates by one of four methods (``Method``),
two algorithms each with and without a spectral filter; it samples a filtered
method's taper sigma, picks the payoff tilt alpha, times the call and returns
the ``PricingResult``.  The private algorithms take sigma or None, and alpha:

* ``_price_fgm`` solves the fluctuation identities for the
  barrier-constrained transition law in the combined Fourier/z-transform
  domain.  Per contour point q the kernel Phi = 1 - q Psi is factorised
  (Wiener-Hopf) and the barrier terms are isolated with half-line
  projections.  A down-and-out contract is solved directly; the
  double-barrier coupling is resolved by a small fixed-point iteration
  that stops at the tolerance SWEEP_TOL or after MAX_SWEEPS sweeps.
  Up-and-out contracts are not supported.  Two monitoring dates are
  withheld from the z-index and restored as explicit Psi factors, which
  smooths both ends of the scheme, so the inversion targets index N - 2.
  Cost is independent of N once the contour inversion uses Euler
  acceleration.  The contour points are independent; on grids of
  M >= 2^12 they run on two threads (``_map_contour``) and are put back
  in contour order, so prices are the same as from the serial loop.

* ``_price_fl`` walks the value-function transform backwards date by
  date, applying the barrier window between propagation steps; cost is
  linear in N.

Everything that does not change within a pricing call is computed once
per call: Psi, the conjugated payoff, the taper and the barrier data,
which each algorithm holds in its own form.  ``_price_fgm`` looks up the
grid's Hilbert kernel (cached per grid); its solvers form the phase
vectors e^{-+i b xi} and the q-invariant products (phase-shifted Psi,
payoff * Psi, sigma * Psi, e^{i(u-l) xi}) once, as read-only arrays
shared by all contour points.  ``_price_fl`` first cuts Psi, its step
and the payoff to the live band, the central frequencies where |Psi| is
not negligible, and builds ``BarrierProjections`` on that narrower grid:
the barriers fold into one projection kernel (above, below or window),
so each monitoring date costs one single-row FFT pair on the live band.
Only q-dependent work runs per contour point or per monitoring date.

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
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .filters import DEFAULT_TAPER, Taper, filter_profile
from .grid import GridSpec, build_grid, inverse_at_zero, read_only
from .hilbert import (
    BarrierProjections,
    HilbertKernel,
    above_values,
    below_values,
    hilbert_kernel,
    window_values,
)
from .levy import LevyModel
from .payoff import OptionContract, damped_payoff_fourier
from .wiener_hopf import factorize_values
from .ztransform import contour_points, invert, rho

__all__ = [
    "Method",
    "PricingResult",
    "default_x_max",
    "default_grid",
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
    ``time.perf_counter`` time of the whole ``price`` call after its
    argument checks (not process CPU time, and a z-domain call on a
    large grid may use two threads); the name is kept because CLI CSV
    headers carry it."""

    price: float
    grid_m: int
    cpu_seconds: float
    method: Method
    filter: Taper | None
    avg_iterations: float | None = None
    max_iter_hit: bool = False
    imag_residual: float = 0.0


JUMP_WIDTH_STEP_STDS = 38.0


def default_x_max(contract: OptionContract, model: LevyModel) -> float:
    """Grid half-range: the payoff geometry plus a truncation margin.

    Open geometries (no barrier on one side) carry payoff mass toward
    the grid edge, so they get the full GRID_WIDTH_STDS standard
    deviations of X(T).  Band-confined (double-barrier) value functions
    tolerate a slightly tighter range, and for a ``law.pure_jump`` model
    the margin is capped at JUMP_WIDTH_STEP_STDS one-step deviations: its
    characteristic function decays only like exp(-c dt |xi|) (or
    polynomially), which makes the frequency range pi*M/(2 x_max) the
    scarce resource.  Models with a diffusion component decay like
    exp(-s^2 dt xi^2 / 2), so a generous log-price range costs them
    nothing."""
    std_T = math.sqrt(model.variance(contract.T))
    band_confined = contract.has_lower and contract.has_upper
    margin = (BAND_WIDTH_STDS if band_confined else GRID_WIDTH_STDS) * std_T
    if band_confined and model.law.pure_jump:
        std_step = math.sqrt(model.variance(contract.dt))
        margin = min(margin, JUMP_WIDTH_STEP_STDS * std_step)
    return contract.log_anchor + margin


def default_grid(
    contract: OptionContract, model: LevyModel, M: int, x_max: float | None = None
) -> GridSpec:
    if x_max is None:
        x_max = default_x_max(contract, model)
    return build_grid(M, x_max)


CALL_TILT = -2.0


def payoff_tilt(contract: OptionContract, model: LevyModel) -> float:
    """The payoff tilt alpha: CALL_TILT damps a call with no upper barrier,
    whose payoff grows like e^x up to the grid edge (Carr & Madan 1999; Lee
    2004), clipped to half the model's lower strip bound; 0 otherwise."""
    if contract.kind == "call" and not contract.has_upper:
        return max(CALL_TILT, 0.5 * model.law.strip[0])
    return 0.0


# ---------------------------------------------------------------------------
# z-transform-domain pricer
# ---------------------------------------------------------------------------

# the band fixed point stops once a sweep moves the assembled transform by
# at most SWEEP_TOL in sup norm (absolute; it is O(payoff)), or after MAX_SWEEPS
SWEEP_TOL = 1e-8
MAX_SWEEPS = 5


def _down_out_solver(
    psi: np.ndarray,
    pay_psi: np.ndarray,
    kernel: HilbertKernel,
    l: float,
    sigma: np.ndarray | None,
) -> Callable[[complex], tuple[np.ndarray, int]]:
    """Direct solve per contour point, lower barrier l only; the phase
    vectors e^{-+i l xi} and the q-invariant products are formed once
    here.  ``solve`` may run on several threads at once, so it reads only
    the read-only arrays built here and writes no shared state."""
    xi = kernel.grid.xi
    psi_f = read_only(psi if sigma is None else sigma * psi)
    shifted = read_only(np.exp(-1j * l * xi) * psi_f)  # lower barrier shifted to the origin
    pay_up = read_only(pay_psi * np.exp(1j * l * xi))

    def solve(q: complex) -> tuple[np.ndarray, int]:
        phi_plus, phi_minus = factorize_values(1.0 - q * psi_f, kernel)
        p_in = shifted / phi_minus
        p_plus = 0.5 * (p_in + 1j * kernel.apply(p_in))
        return pay_up * p_plus / phi_plus, 1

    return solve


def _band_solver(
    psi: np.ndarray,
    pay_psi: np.ndarray,
    kernel: HilbertKernel,
    l: float,
    u: float,
    sigma: np.ndarray | None,
    filter_factorization: bool,
) -> Callable[[complex], tuple[np.ndarray, int]]:
    """Fixed-point solve of the coupled barrier terms per contour point,
    returning the spectrum and the number of sweeps; the phase vectors
    e^{-+i b xi} of both barriers and the q-invariant products are formed
    once here.  ``solve`` may run on several threads at once, so it reads
    only the read-only arrays built here and writes no shared state."""
    psi, pay_psi = read_only(psi), read_only(pay_psi)
    sigma = None if sigma is None else read_only(sigma)
    psi_fact = read_only(psi if not filter_factorization else sigma * psi)
    xi = kernel.grid.xi
    e_ul = read_only(np.exp(1j * (u - l) * xi))
    e_lu = read_only(np.conj(e_ul))
    psi_l = read_only(np.exp(-1j * l * xi) * psi)
    psi_u = read_only(np.exp(-1j * u * xi) * psi)
    up_l, up_u = read_only(np.exp(1j * l * xi)), read_only(np.exp(1j * u * xi))
    zeros = read_only(np.zeros(kernel.grid.M, dtype=complex))

    def solve(q: complex) -> tuple[np.ndarray, int]:
        phi = 1.0 - q * psi_fact
        phi_plus, phi_minus = factorize_values(phi, kernel)
        pay_phi = pay_psi / phi
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
            f = pay_phi * (psi - up_l * j_minus - up_u * j_plus)
            iterations += 1
            if f_old is not None and np.max(np.abs(f - f_old)) <= SWEEP_TOL:
                break
            if iterations >= MAX_SWEEPS:
                break
            f_old = f
        return f, iterations

    return solve


# Smallest grid whose contour points run on the thread pool.  pocketfft
# (scipy.fft) and numpy's ufunc loops release the GIL, so two points
# overlap once their 2M-point FFTs and M-element loops outweigh the GIL
# handoffs between the ~60 numpy calls of one point.  Serial -> pooled
# speed of fgm-f on the kou/nig/vg double barrier at N=52 and N=504,
# median of 6 alternated calls on a noisy 2-core VM: M=2^10 0.57-0.67x,
# 2^11 0.77-1.14x, 2^12 0.96-1.17x, 2^13 1.65-2.18x.  Re-measured with
# the transform buffers kept resident (hilbert._keep_transform_buffers):
# 2^11 0.73-1.03x, 2^12 1.07-1.48x, so the threshold stays at 2^12.
PARALLEL_MIN_M = 2**12
# Only two workers have been measured (on a 2-core machine); past that
# the Python between the transforms holds the GIL most of the time.
MAX_CONTOUR_WORKERS = 2

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drop_pool() -> None:
    """Forget the pool and its lock: a forked child inherits the pool
    without its worker threads, so it must build its own, and a lock
    some other thread held at the fork stays held in the child."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _map_contour(at: Callable, pts: np.ndarray, M: int) -> list:
    """[at(q) for q in pts], on a pool of up to MAX_CONTOUR_WORKERS
    threads (created on first use) when M >= PARALLEL_MIN_M and the
    process may use two CPUs.  Results come back in contour order, and
    the first failing point in that order raises, as in the serial loop."""
    global _pool
    cpus = _cpu_count() if M >= PARALLEL_MIN_M else 1
    if cpus < 2:
        return [at(q) for q in pts]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(min(MAX_CONTOUR_WORKERS, cpus))
        pool = _pool
    return list(pool.map(at, pts))


def _price_fgm(
    contract: OptionContract, model: LevyModel, grid: GridSpec,
    sigma: np.ndarray | None, alpha: float,
) -> tuple[float, dict]:
    """Down-and-out or double-barrier price in the z-domain.

    A lower barrier alone is solved by the direct identity; with an
    upper barrier as well the coupled barrier terms are solved by the
    fixed-point iteration, whose average sweep count is reported.  With
    a taper sigma the projection inputs are tapered; the
    factorisation input is tapered for a single barrier, and for a band
    only when the characteristic function decays polynomially.
    Requires a lower barrier, N >= 3 and rho max|Psi(xi + i alpha)| < 1
    (the maximum over real xi is Psi(i alpha) = E[e^{-alpha X_dt}])."""
    if not contract.has_lower:
        raise ValueError("z-domain pricer requires a lower barrier; use fl for up-and-out")
    if contract.N < 3:
        raise ValueError("z-domain pricers require N >= 3")
    n = contract.N - 2
    peak = rho(n) * model.char_function(1j * alpha, contract.dt).real
    if not peak < 1.0:
        msg = f"payoff tilt alpha = {alpha:g}: rho max|Psi(xi + i alpha)| = {peak:.6g}, not < 1"
        raise ValueError(msg)
    kernel = hilbert_kernel(grid)
    band = contract.has_upper
    filter_fact = band and sigma is not None and model.law.polynomial_decay

    psi = model.char_function(grid.xi + 1j * alpha, contract.dt)
    pay_psi = np.conj(damped_payoff_fourier(contract, grid, alpha)) * psi
    l, u = contract.clipped_barriers(grid.x_max)
    if band:
        solve = _band_solver(psi, pay_psi, kernel, l, u, sigma, filter_fact)
    else:
        solve = _down_out_solver(psi, pay_psi, kernel, l, sigma)
    pts = contour_points(n).points

    def at(q: complex) -> tuple[complex, int]:
        f, sweeps = solve(q)
        return inverse_at_zero(f, grid), sweeps

    results = _map_contour(at, pts, grid.M)
    vals = np.array([v for v, _ in results])
    iters = np.array([k for _, k in results])
    price_val = math.exp(-contract.r * contract.T) * invert(vals, n)
    return price_val, {
        "avg_iterations": float(np.mean(iters)) if band else None,
        "max_iter_hit": band and bool(np.max(iters) >= MAX_SWEEPS),
        "imag_residual": float(abs(vals[0].imag)),  # q on the real axis must price real
    }


# ---------------------------------------------------------------------------
# backward-induction pricer
# ---------------------------------------------------------------------------


# share of the peak of |Psi|, times 1 / (N M), below which a frequency
# carries nothing the backward induction can resolve
LIVE_BAND_TOL = 1e-14
MIN_LIVE_BAND = 16


def _live_band(psi_abs: np.ndarray, N: int) -> int:
    """Smallest power-of-two central width m >= MIN_LIVE_BAND of the
    M samples of |Psi| outside which every sample is at most
    tau max|Psi|, tau = LIVE_BAND_TOL / (N M); M itself when no such
    width is narrower or the peak is infinite.  A NaN sample counts as
    live, so a non-finite Psi prices on the whole grid as before."""
    M = len(psi_abs)
    tau = LIVE_BAND_TOL / (N * M)
    live = np.flatnonzero(~(psi_abs <= tau * psi_abs.max()))
    if live.size == 0:
        return M
    half = max(M // 2 - live[0], live[-1] - M // 2 + 1)
    m = max(MIN_LIVE_BAND, 1 << (2 * int(half) - 1).bit_length())
    return min(m, M)


def _price_fl(
    contract: OptionContract, model: LevyModel, grid: GridSpec,
    sigma: np.ndarray | None, alpha: float,
) -> tuple[float, dict]:
    """Backward induction over the N monitoring dates in the frequency
    domain: N - 1 propagate-and-window steps, one final bare propagation,
    then evaluation at x = 0.

    The recursion carries the transform of the tilted value function
    exp(alpha x) v(x, t_n), whose terminal condition is the damped-payoff
    transform itself; the matching propagator is conj(Psi(xi + i alpha)).
    The asymmetric-model European limit fixes this orientation uniquely.
    alpha is ``payoff_tilt``'s: negative for a call with no upper barrier,
    so the carrier decays toward the grid edge instead of jumping there.

    The induction runs on the live band only: Psi, the (filtered) step
    and the payoff transform are sampled on the requested grid, then cut
    to the central ``_live_band`` width m, and the dates run on the grid
    of m points with the same x_max.  dxi = pi / x_max does not depend
    on M, so that grid's xi is the central slice of the full lattice and
    its projection kernels are the central Toeplitz blocks of the full
    ones; only the dropped samples and the FFT rounding at length m
    differ.  The dropped mass is estimated, not bounded: at the first
    date every dropped sample of step * vhat is at most
    tau max|Psi| |vhat|_inf with tau = 1e-14 / (N M), so over N dates and
    fewer than M samples the estimate is 1e-14 max|Psi| |vhat|_inf, about
    1e-14 to 1e-13 absolute (max|Psi| about 1, |vhat|_inf at most about
    10 for an open down-and-out call).  At later dates the dropped
    samples come from the projected value-function transform, whose sup
    norm the payoff's does not bound, and the truncated projection
    spreads mass across the band edge; ``test_live_band_changes_no_price``
    checks the estimate at 1e-13 against the full band.  A slowly
    decaying Psi (vg) keeps every sample and prices exactly as on the
    full grid."""
    vhat = damped_payoff_fourier(contract, grid, alpha)
    psi = np.conj(model.char_function(grid.xi + 1j * alpha, contract.dt))
    step = psi if sigma is None else sigma * psi
    m = _live_band(np.abs(psi), contract.N)
    if m < grid.M:
        live = slice((grid.M - m) // 2, (grid.M + m) // 2)
        vhat, psi, step = vhat[live], psi[live], step[live]
        grid = build_grid(m, grid.x_max)
    l, u = contract.clipped_barriers(grid.x_max)
    projections = BarrierProjections(
        grid, l if contract.has_lower else None, u if contract.has_upper else None
    )
    if contract.has_lower and contract.has_upper:
        project = lambda v: window_values(v, projections)
    elif contract.has_lower:
        project = lambda v: above_values(v, projections)
    elif contract.has_upper:
        project = lambda v: below_values(v, projections)
    else:
        project = lambda v: v  # no monitoring between dates
    for _ in range(contract.N - 1):
        vhat = project(step * vhat)
    final = psi * vhat
    value = inverse_at_zero(final, grid)
    price_val = math.exp(-contract.r * contract.T) * value.real
    return price_val, {"imag_residual": float(abs(value.imag))}


def price(
    contract: OptionContract,
    model: LevyModel,
    method: Method,
    grid: GridSpec,
    filt: Taper | None = None,
) -> PricingResult:
    """Price the contract by one method on the given grid.

    The method alone says whether the call is filtered: a filtered one
    takes ``filt``, or ``DEFAULT_TAPER`` when None, and an unfiltered
    one rejects a filter.  The model must carry the contract's rates.
    ``cpu_seconds`` includes the per-call set-up (taper, kernel lookup
    or build).  A price or imaginary residual that is not finite raises
    FloatingPointError."""
    method = Method(method)
    contract.check_rates(model)
    if method.filtered:
        filt = filt or DEFAULT_TAPER
    elif filt is not None:
        raise ValueError(f"method {method.value} does not take a filter")
    start = time.perf_counter()
    sigma = filter_profile(filt, grid) if filt else None
    alpha = payoff_tilt(contract, model)
    if method.recursive:
        value, extras = _price_fl(contract, model, grid, sigma, alpha)
    else:
        value, extras = _price_fgm(contract, model, grid, sigma, alpha)
    if not (math.isfinite(value) and math.isfinite(extras["imag_residual"])):
        raise FloatingPointError(
            f"non-finite price {value} (imaginary residual {extras['imag_residual']})"
        )
    return PricingResult(value, grid.M, time.perf_counter() - start, method, filt, **extras)


# grid size of the backward-induction reference the convergence studies
# and the tests measure errors against
REFERENCE_M = 2**16


def reference_price(
    contract: OptionContract, model: LevyModel, x_max: float | None = None
) -> float:
    """Backward-induction reference on the default grid of REFERENCE_M
    points (half-range ``x_max`` when given): unfiltered for
    exponentially decaying characteristic functions, filtered otherwise.
    The induction runs on the live band of Psi only (``_price_fl``), so
    exponentially decaying models pay for the band they need, not for
    REFERENCE_M; polynomially decaying ones keep the whole grid."""
    method = Method.FL_F if model.law.polynomial_decay else Method.FL
    return price(contract, model, method, default_grid(contract, model, REFERENCE_M, x_max)).price
