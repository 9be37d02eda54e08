"""Barrier-option pricers on the shared frequency lattice.

``price`` is the one entry point.  It prices the t = 0 value of a discretely
monitored knock-out option with N dates by one of four methods (``Method``),
two algorithms each with and without a spectral filter; it picks the payoff
tilt alpha, plans the grid, times the call and returns the ``PricingResult``.
The private algorithms take the grid, Psi and sigma (or None) on it, and alpha:

* ``_price_fgm`` solves the fluctuation identities for the
  barrier-constrained transition law in the combined Fourier/z-transform
  domain.  Per contour point q the kernel Phi = 1 - q Psi is factorised
  (Wiener-Hopf) and the barrier terms are isolated with half-line
  projections.  One solver (``_solver``) serves every geometry: a lone
  barrier is one half-sweep, the exact one-barrier identity; the
  double-barrier coupling is resolved by iterating the sweep, which
  stops at the tolerance SWEEP_TOL or after MAX_SWEEPS sweeps; with no
  barrier the solve is the European price.  Two monitoring dates are
  withheld from the z-index and restored as explicit Psi factors, which
  smooths both ends of the scheme, so the inversion targets index N - 2.
  Cost is independent of N once the contour inversion uses Euler
  acceleration.  The contour points are independent, so they are solved
  in blocks of up to BLOCK_SAMPLES // M points, each block a stack of
  rows through one numpy call or batched transform per step; every row
  is bit for bit its point's solve alone.  On grids of M >= 2^10 a call
  of two or more blocks runs them on two threads (``_map_contour``) and
  puts them back in contour order, so prices are the same as from the
  serial loop.

* ``_price_fl`` walks the value-function transform backwards date by
  date, applying the barrier window between propagation steps; cost is
  linear in N.

``price`` samples Psi(xi + i alpha; dt) once on the requested grid, and
``plan_grid`` decides the grid the algorithm runs on: the live band of
|Psi| for ``_price_fl``, the whole grid for ``_price_fgm``.  Both get that
grid with Psi and sigma cut to it; the rest of what does not change
within a call is computed once per call, in each algorithm's own form.
``_price_fgm`` looks up the grid's Hilbert kernel (cached per grid); its
solver forms the phase vectors e^{-+i b xi} and the q-invariant products
(phase-shifted Psi, payoff * Psi, sigma * Psi, e^{i(u-l) xi}) once, as
read-only arrays shared by all contour points.  ``_price_fl`` folds the
barriers into one projection kernel (above, below or window), so each
monitoring date costs one batched FFT pair.  Only q-dependent work runs
per block of contour points or per monitoring date.

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
    "GridPlan",
    "PricingResult",
    "default_x_max",
    "default_grid",
    "plan_grid",
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
    """One price and how it was obtained: ``grid_m`` is the requested M,
    ``plan.m`` the width that ran.  ``cpu_seconds`` is wall-clock
    ``time.perf_counter`` time of the whole ``price`` call after its
    argument checks (not process CPU time; a z-domain call of two or
    more contour blocks may use two threads); the name is kept for the
    CLI CSV headers."""

    price: float
    plan: GridPlan
    cpu_seconds: float
    method: Method
    filter: Taper | None
    avg_iterations: float | None = None
    max_iter_hit: bool = False
    imag_residual: float = 0.0

    @property
    def grid_m(self) -> int:
        return self.plan.grid.M


JUMP_WIDTH_STEP_STDS = 38.0


def _x_rule(contract: OptionContract, model: LevyModel) -> tuple[float, str]:
    """Default grid half-range, payoff geometry plus a margin, and its rule.

    Open geometries (no barrier on one side) carry payoff mass toward
    the grid edge, so they get the full GRID_WIDTH_STDS standard
    deviations of X(T) ("open").  Band-confined (double-barrier) value
    functions tolerate a slightly tighter range ("band"), and for a
    ``law.pure_jump`` model the margin is capped at JUMP_WIDTH_STEP_STDS
    one-step deviations ("jump" where the cap binds): its characteristic
    function decays only like exp(-c dt |xi|) (or polynomially), which
    makes the frequency range pi*M/(2 x_max) the scarce resource.
    Models with a diffusion component decay like exp(-s^2 dt xi^2 / 2),
    so a generous log-price range costs them nothing."""
    std_T = math.sqrt(model.variance(contract.T))
    if not (contract.has_lower and contract.has_upper):
        return contract.log_anchor + GRID_WIDTH_STDS * std_T, "open"
    margin = BAND_WIDTH_STDS * std_T
    cap = JUMP_WIDTH_STEP_STDS * math.sqrt(model.variance(contract.dt))
    if model.law.pure_jump and cap < margin:
        return contract.log_anchor + cap, "jump"
    return contract.log_anchor + margin, "band"


def default_x_max(contract: OptionContract, model: LevyModel) -> float:
    """Grid half-range by ``_x_rule``."""
    return _x_rule(contract, model)[0]


def default_grid(
    contract: OptionContract, model: LevyModel, M: int, x_max: float | None = None
) -> GridSpec:
    if x_max is None:
        x_max = default_x_max(contract, model)
    return build_grid(M, x_max)


# share of the peak of |Psi|, times 1 / (N M), below which a frequency
# carries nothing the backward induction can resolve
LIVE_BAND_TOL = 1e-14
MIN_LIVE_BAND = 16


def _live_band(psi_abs: np.ndarray, N: int) -> int:
    """Smallest power-of-two central width m >= MIN_LIVE_BAND of the
    M samples of |Psi| outside which every sample is at most
    tau max|Psi|, tau = LIVE_BAND_TOL / (N M); M itself when no such
    width is narrower or the peak is infinite.  A NaN sample counts as
    live, so a non-finite Psi prices on the whole grid.

    The mass backward induction drops on the m-point grid is estimated,
    not bounded: each dropped sample of step * vhat at the first date is
    at most tau max|Psi| |vhat|_inf, so over N dates and fewer than M
    samples LIVE_BAND_TOL max|Psi| |vhat|_inf, about 1e-14 to 1e-13
    (|vhat|_inf is at most about 10 for an open down-and-out call).
    Later dates drop samples of the projected value-function transform,
    which the payoff does not bound; ``test_live_band_changes_no_price``
    checks the estimate at 1e-13 against the full band."""
    M = len(psi_abs)
    tau = LIVE_BAND_TOL / (N * M)
    live = np.flatnonzero(~(psi_abs <= tau * psi_abs.max()))
    if live.size == 0:
        return M
    half = max(M // 2 - live[0], live[-1] - M // 2 + 1)
    m = max(MIN_LIVE_BAND, 1 << (2 * int(half) - 1).bit_length())
    return min(m, M)


@dataclass(frozen=True)
class GridPlan:
    """The grids of one pricing call: the requested ``grid``, the
    ``x_rule`` that set its x_max (``_x_rule``'s "open", "band" or
    "jump", or "given" when x_max is not the default) and the width
    ``m`` of the ``live`` grid the algorithm runs on.  dxi = pi / x_max
    does not depend on M, so its xi are the central ``cut`` of grid.xi
    and its projection kernels the central Toeplitz blocks of the full ones."""

    grid: GridSpec
    x_rule: str
    m: int

    @property
    def live(self) -> GridSpec:
        return self.grid if self.m == self.grid.M else build_grid(self.m, self.grid.x_max)

    def cut(self, samples: np.ndarray) -> np.ndarray:
        return samples[(self.grid.M - self.m) // 2 : (self.grid.M + self.m) // 2]


def plan_grid(
    contract: OptionContract, model: LevyModel, grid: GridSpec, psi: np.ndarray, method: Method
) -> GridPlan:
    """The plan of one pricing call on ``grid``, given Psi(xi + i alpha;
    dt) sampled on it: backward induction (``fl``, ``fl-f``) runs on the
    ``_live_band`` of |Psi|, the z-domain methods on all M points."""
    x_max, rule = _x_rule(contract, model)
    m = _live_band(np.abs(psi), contract.N) if Method(method).recursive else grid.M
    return GridPlan(grid, rule if grid.x_max == x_max else "given", m)


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


def _barrier_term(p: np.ndarray, phi_side: np.ndarray, sigma: np.ndarray | None,
                  kernel: HilbertKernel, upper: bool) -> np.ndarray:
    """One barrier's half-sweep j = P[sigma p / phi_side] phi_side, with P
    the half-line projection (v + i H v) / 2 for the upper barrier and
    (v - i H v) / 2 for the lower."""
    p = p / phi_side
    if sigma is not None:
        p = sigma * p
    ih = 1j * kernel.apply(p)
    return 0.5 * (p + ih if upper else p - ih) * phi_side


def _solver(
    psi: np.ndarray,
    pay_psi: np.ndarray,
    kernel: HilbertKernel,
    l: float | None,
    u: float | None,
    sigma: np.ndarray | None,
    filter_factorization: bool,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Solve a block of contour points qs (1-D) for the rows of f = pay_psi
    / Phi * (Psi - e^{i l xi} j_minus - e^{i u xi} j_plus), returning f as
    a (len(qs), M) array, each row's number of sweeps and whether a band
    row stopped before a sweep met SWEEP_TOL.  A sweep finds the lower
    barrier's term j_minus from e^{-i l xi} Psi and j_plus, then the upper
    barrier's j_plus from e^{-i u xi} Psi and j_minus.  An absent barrier
    (None) has no term, so one barrier takes one half-sweep, the exact
    one-barrier identity, and none leaves the European f; a band sweeps
    until SWEEP_TOL or MAX_SWEEPS, row by row: a row that stops leaves
    the block and the others sweep on, so each row is bit for bit the
    one-point solve of its q.  Without a band the half-sweep's input is
    q-invariant up to 1 / Phi_-+, so its taper is applied here, and f is
    assembled from the products pay_psi Psi and pay_psi e^{i b xi}.  The
    phase vectors and the q-invariant products are built here,
    read-only: ``solve`` may run on several threads at once and writes
    no shared state."""
    psi, pay_psi = read_only(psi), read_only(pay_psi)
    sigma = None if sigma is None else read_only(sigma)
    psi_fact = read_only(psi if not filter_factorization else sigma * psi)
    xi = kernel.grid.xi
    band = l is not None and u is not None
    source = psi if band or sigma is None else sigma * psi
    up_l = psi_l = up_u = psi_u = e_ul = e_lu = pay_psi_psi = pay_l = pay_u = None
    if l is not None:
        up_l, psi_l = read_only(np.exp(1j * l * xi)), read_only(np.exp(-1j * l * xi) * source)
    if u is not None:
        up_u, psi_u = read_only(np.exp(1j * u * xi)), read_only(np.exp(-1j * u * xi) * source)
    if band:
        e_ul = read_only(np.exp(1j * (u - l) * xi))
        e_lu = read_only(np.conj(e_ul))
    else:
        pay_psi_psi = read_only(pay_psi * psi)
        pay_l = None if l is None else read_only(pay_psi * up_l)
        pay_u = None if u is None else read_only(pay_psi * up_u)

    def solve(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = len(qs)
        phi = 1.0 - qs[:, None] * psi_fact
        phi_plus, phi_minus = factorize_values(phi, kernel)
        if not band:
            f = pay_psi_psi
            if l is not None:
                f = f - pay_l * _barrier_term(psi_l, phi_minus, None, kernel, False)
            if u is not None:
                f = f - pay_u * _barrier_term(psi_u, phi_plus, None, kernel, True)
            return f / phi, np.ones(k, int), np.zeros(k, bool)
        pay_phi = pay_psi / phi
        f, sweeps, short = np.empty_like(phi), np.zeros(k, int), np.zeros(k, bool)
        live = np.arange(k)  # the rows still sweeping
        j_plus = f_old = None  # not yet solved: the first sweep subtracts nothing
        iterations = 0
        while live.size:
            p = psi_l if j_plus is None else psi_l - e_ul * j_plus
            j_minus = _barrier_term(p, phi_minus, sigma, kernel, False)
            j_plus = _barrier_term(psi_u - e_lu * j_minus, phi_plus, sigma, kernel, True)
            f_new = pay_phi * (psi - up_l * j_minus - up_u * j_plus)
            iterations += 1
            met = (np.zeros(live.size, bool) if f_old is None
                   else np.max(np.abs(f_new - f_old), axis=-1) <= SWEEP_TOL)
            done = met | (iterations >= MAX_SWEEPS)
            f_old = f_new
            if done.any():
                rows, keep = live[done], ~done
                f[rows], sweeps[rows], short[rows] = f_new[done], iterations, ~met[done]
                live, f_old, j_plus, phi_plus, phi_minus, pay_phi = (
                    a[keep] for a in (live, f_new, j_plus, phi_plus, phi_minus, pay_phi))
        return f, sweeps, short

    return solve


# Samples per block of contour points: ``_price_fgm`` solves up to
# max(1, BLOCK_SAMPLES // M) points as one (k, M) stack, 8 at M = 2^10,
# 2 at 2^12, 1 from 2^13.  zdomain_book at 26 s, seeds 11 and 12, on a
# 2-core VM: 2^12 36-38 prices/s and 66 MB peak RSS, 2^13 46-47 /s and
# 69 MB, 2^14 47-49 /s and 75 MB.  A stack must stay under numpy's
# 256 KiB temporary-elision threshold (2^14 complex samples): from there
# numpy evaluates a * (b - c) in the buffer of b - c, as (b - c) * a,
# whose fused multiply-add rounds differently, and a row would no longer
# be bit for bit its point's solve alone.
BLOCK_SAMPLES = 2**13

# Smallest grid whose contour blocks run on the thread pool, for a call
# of two or more blocks (one block would only wait on a pool thread).
# pocketfft (scipy.fft) and numpy's ufunc loops release the GIL, so two
# blocks overlap once their batched FFTs and loops outweigh the GIL
# handoffs between the numpy calls of one sweep.  Pooled / serial time
# of fgm and fgm-f on kou/nig/vg x double and down-and-out x N 4, 52,
# 504, median [quartiles] of 11 alternated rounds on a 2-core VM: M=2^8
# 1.05 [0.97-1.10], 2^9 1.02 [0.96-1.11], 2^10 0.84 [0.69-0.96], 2^11
# 0.67 [0.66-0.69].
PARALLEL_MIN_M = 2**10
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


def _map_contour(at: Callable, blocks: list, M: int) -> list:
    """[at(qs) for qs in blocks], on a pool of up to MAX_CONTOUR_WORKERS
    threads (created on first use) when there are two or more blocks,
    M >= PARALLEL_MIN_M and the process may use two CPUs.  Results come
    back in contour order, and the first failing block in that order
    raises, as in the serial loop."""
    global _pool
    cpus = _cpu_count() if M >= PARALLEL_MIN_M and len(blocks) > 1 else 1
    if cpus < 2:
        return [at(qs) for qs in blocks]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(min(MAX_CONTOUR_WORKERS, cpus))
        pool = _pool
    return list(pool.map(at, blocks))


def _blocks(pts: np.ndarray, M: int) -> list[np.ndarray]:
    """The contour points in contour order, cut into balanced, never empty
    blocks of at most max(1, BLOCK_SAMPLES // M) points."""
    return np.array_split(pts, -(-len(pts) // max(1, BLOCK_SAMPLES // M)))


def _price_fgm(
    contract: OptionContract, model: LevyModel, grid: GridSpec, psi: np.ndarray,
    sigma: np.ndarray | None, alpha: float,
) -> tuple[float, dict]:
    """Knock-out price in the z-domain, for any barrier geometry.

    A lone barrier is solved by one half-sweep and a contract without
    barriers by none; with both barriers the coupled barrier terms are
    solved by the fixed-point iteration, whose average sweep count is
    reported.  With a taper sigma the projection inputs are tapered; the
    factorisation input is tapered unless the contract is a band, and
    for a band only when the characteristic function decays
    polynomially.  Requires N >= 3 and rho max|Psi(xi + i alpha)| < 1
    (the maximum over real xi is Psi(i alpha) = E[e^{-alpha X_dt}])."""
    if contract.N < 3:
        raise ValueError("z-domain pricers require N >= 3")
    n = contract.N - 2
    peak = rho(n) * model.char_function(1j * alpha, contract.dt).real
    if not peak < 1.0:
        msg = f"payoff tilt alpha = {alpha:g}: rho max|Psi(xi + i alpha)| = {peak:.6g}, not < 1"
        raise ValueError(msg)
    kernel = hilbert_kernel(grid)
    band = contract.has_lower and contract.has_upper
    filter_fact = sigma is not None and (not band or model.law.polynomial_decay)

    pay_psi = np.conj(damped_payoff_fourier(contract, grid, alpha)) * psi
    l, u = contract.log_barriers(grid.x_max)
    solve = _solver(psi, pay_psi, kernel, l, u, sigma, filter_fact)
    blocks = _blocks(contour_points(n).points, grid.M)

    def at(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f, sweeps, short = solve(qs)
        return inverse_at_zero(f, grid), sweeps, short

    vals, iters, short = map(np.concatenate, zip(*_map_contour(at, blocks, grid.M)))
    price_val = math.exp(-contract.r * contract.T) * invert(vals, n)
    return price_val, {
        "avg_iterations": float(np.mean(iters)) if band else None,
        "max_iter_hit": bool(short.any()),
        "imag_residual": float(abs(vals[0].imag)),  # q on the real axis must price real
    }


# ---------------------------------------------------------------------------
# backward-induction pricer
# ---------------------------------------------------------------------------


def _price_fl(
    contract: OptionContract, grid: GridSpec, psi: np.ndarray,
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
    so the carrier decays toward the grid edge instead of jumping there."""
    vhat = damped_payoff_fourier(contract, grid, alpha)
    psi = np.conj(psi)
    step = psi if sigma is None else sigma * psi
    projections = BarrierProjections(grid, *contract.log_barriers(grid.x_max))
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
    alpha = payoff_tilt(contract, model)
    psi = model.char_function(grid.xi + 1j * alpha, contract.dt)
    plan = plan_grid(contract, model, grid, psi, method)
    sigma = plan.cut(filter_profile(filt, grid)) if filt else None
    if method.recursive:
        value, extras = _price_fl(contract, plan.live, plan.cut(psi), sigma, alpha)
    else:
        value, extras = _price_fgm(contract, model, plan.live, plan.cut(psi), sigma, alpha)
    if not (math.isfinite(value) and math.isfinite(extras["imag_residual"])):
        raise FloatingPointError(
            f"non-finite price {value} (imaginary residual {extras['imag_residual']})"
        )
    return PricingResult(value, plan, time.perf_counter() - start, method, filt, **extras)


# grid size of the backward-induction reference the convergence studies
# and the tests measure errors against
REFERENCE_M = 2**16


def reference_price(
    contract: OptionContract, model: LevyModel, x_max: float | None = None
) -> float:
    """Backward-induction reference on the default grid of REFERENCE_M
    points (half-range ``x_max`` when given): unfiltered for
    exponentially decaying characteristic functions, filtered otherwise.
    The induction runs on the live band of Psi only (``plan_grid``), so
    exponentially decaying models pay for the band they need, not for
    REFERENCE_M; polynomially decaying ones keep the whole grid."""
    method = Method.FL_F if model.law.polynomial_decay else Method.FL
    return price(contract, model, method, default_grid(contract, model, REFERENCE_M, x_max)).price
