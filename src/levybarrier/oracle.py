"""Brute-force reference pricers kept independent of the transform stack.

``quad_price`` builds the one-step transition density on a dense
log-price lattice (by direct inversion of the characteristic function)
and applies the backward induction

    v(x, t_{n-1}) = sum_j v(x_j, t_n) 1_band(x_j) p(x_j - x) h

date by date as a plain linear convolution.  No Hilbert transform,
factorisation or z-inversion appears anywhere on this path, so its
agreement with the transform pricers is a genuine cross-check.

The sum runs over the live cells only: the contiguous range [s, e) on
which the knockout indicator is nonzero (the quadrature method of
Andricopoulos, Widdicks, Duck & Newton 2003 likewise integrates only
where the option is alive).  Only the outputs that a later date or the
price reads are kept, [o0, o1): the live range plus the x = 0 cell;
every other cell is worthless and stays zero.  Each date is then a
linear convolution of the a = e - s live values with the a + b - 1
density lags they reach (b = o1 - o0), run as one real FFT pair of a
length of at least a + b - 1, where wrap-around lands only on outputs
below the kept window.  Its cost is set by the live cells, not by the
lattice; a double barrier keeps about a tenth of it.  The transform of
the needed lags is the same on every date and is computed once per call.

``mc_price`` simulates the log-price at the monitoring dates with the
law's exact ``increments`` (compound Poisson + diffusion for kou,
inverse-Gaussian subordination for nig, gamma subordination for vg).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .levy import LevyModel
from .payoff import OptionContract

__all__ = ["OracleConfig", "quad_price", "mc_price", "black_scholes_price"]

WIDTH_STDS = 10.0


@dataclass(frozen=True)
class OracleConfig:
    quad_points: int = 2**15
    mc_paths: int = 10**6
    mc_seed: int = 20170213

    def __post_init__(self) -> None:
        for name in ("quad_points", "mc_paths", "mc_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.quad_points < 2**12:
            raise ValueError("quad_points must be at least 4096")
        if self.mc_paths < 10**4:
            raise ValueError("mc_paths must be at least 10000")
        if self.mc_seed < 0:
            raise ValueError(f"mc_seed must be non-negative, got {self.mc_seed}")


def _lattice_half_width(contract: OptionContract, model: LevyModel) -> float:
    return contract.log_anchor + WIDTH_STDS * math.sqrt(model.variance(contract.T))


def _transition_density(model: LevyModel, dt: float, h: float, n: int) -> np.ndarray:
    """Cell-averaged transition density at lags m = -n .. n-1.

    Multiplying Psi by the transform of the width-h box before inverting
    yields cell averages rather than point values; this keeps the
    inversion integrable even where the density has an integrable cusp
    (vg with dt < nu) and makes the discrete convolution conserve mass.
    The density is real and Psi(-xi) = conj(Psi(xi)), so Psi is sampled
    on xi >= 0 only and inverted by one Hermitian transform."""
    half_width = n * h
    dxi = math.pi / half_width
    xi = np.arange(n + 1) * dxi
    psi = model.char_function(xi, dt) * np.sinc(h * xi / (2.0 * math.pi))
    # centred inverse DFT: p(y_m) = dxi/(2 pi) sum_k Psi(xi_k) e^{-i y_m xi_k}
    # over k = -n .. n-1; hfft extends psi to k < 0 by conjugate symmetry
    # and keeps the real part of the lone k = n sample, which is what the
    # real part of the two-sided sum takes from the k = -n one
    p = (dxi / (2.0 * math.pi)) * np.fft.fftshift(scipy.fft.hfft(psi, 2 * n))
    # periodisation makes the lattice mass exactly 1, so resolution loss
    # shows up as density leaking to the lattice boundary instead; signed
    # sums largely cancel inversion ringing, which carries no mass (a
    # sub-1e-7 residue of it still slips through the window cut)
    guard = max(n // 100, 4)
    leaked = float((abs(np.sum(p[:guard])) + abs(np.sum(p[-guard:]))) * h)
    if leaked > 1e-7:
        warnings.warn(
            f"transition density mass {leaked:.3e} at the lattice boundary; "
            "increase quad_points or the lattice range",
            stacklevel=2,
        )
    return p


def _payoff_on(x: np.ndarray, contract: OptionContract) -> np.ndarray:
    intrinsic = contract.theta * (contract.S0 * np.exp(x) - contract.K)
    return np.maximum(intrinsic, 0.0)


def _convolution_window(
    values: np.ndarray, lags_fft: np.ndarray, width: int, size: int
) -> np.ndarray:
    """Window [a-1, a-1+width) of the linear convolution of the a
    ``values`` with the a + width - 1 reversed density lags whose
    length-``size`` real transform is ``lags_fft``, as one circular
    convolution of that length (size >= a + width - 1)."""
    a = len(values)
    return scipy.fft.irfft(scipy.fft.rfft(values, size) * lags_fft, size)[a - 1 : a - 1 + width]


def quad_price(
    contract: OptionContract, model: LevyModel, cfg: OracleConfig | None = None
) -> float:
    """Discounted price by backward induction on a ``cfg.quad_points``
    lattice.  Each date costs one real FFT pair over the live cells and
    the outputs kept, so its cost follows the width of the barrier band,
    not the lattice; a contract with no live cell is worth 0."""
    contract.check_rates(model)
    cfg = cfg or OracleConfig()
    n = int(cfg.quad_points)
    half = _lattice_half_width(contract, model)
    h = 2.0 * half / n

    c = n // 2  # the x = 0 cell: cell i is centred on (i - c) h

    # surviving fraction of each cell; fractional weights at the two
    # barrier-cut cells keep the knockout indicator second-order accurate
    edges = (np.arange(n + 1) - c - 0.5) * h
    lo, hi = contract.log_lower, contract.log_upper
    alive = np.clip(
        (np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)) / h, 0.0, 1.0
    )
    live = np.flatnonzero(alive)
    if live.size == 0:
        return 0.0
    s, e = int(live[0]), int(live[-1]) + 1
    o0, o1 = min(s, c), max(e, c + 1)
    a, b = e - s, o1 - o0
    size = scipy.fft.next_fast_len(a + b - 1, real=True)

    # lag j - i of live cell j seen from kept cell i spans
    # [s - o1 + 1, e - o0 - 1]; p holds lag m at index n + m
    p = _transition_density(model, contract.dt, h, n)
    lags_fft = scipy.fft.rfft(p[n + s - o1 + 1 : n + e - o0][::-1], size)

    weights = alive[s:e]
    live_v = _payoff_on(np.arange(s - c, e - c) * h, contract)
    for _ in range(contract.N):
        v = h * _convolution_window(weights * live_v, lags_fft, b, size)
        live_v = v[s - o0 : e - o0]
    return math.exp(-contract.r * contract.T) * float(v[c - o0])


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


# paths per simulation chunk; each chunk draws from its own substream,
# so changing this changes the Monte Carlo result
MC_CHUNK = 200_000


def mc_price(
    contract: OptionContract, model: LevyModel, cfg: OracleConfig | None = None
) -> tuple[float, float]:
    """(price, standard error) from cfg.mc_paths simulated paths.

    Paths are simulated in chunks of MC_CHUNK, each from its own
    substream spawned deterministically from mc_seed, so the result
    depends on mc_seed and mc_paths only.
    """
    contract.check_rates(model)
    cfg = cfg or OracleConfig()
    dt = contract.dt
    disc = math.exp(-contract.r * contract.T)
    l, u = contract.log_lower, contract.log_upper
    seeds = np.random.SeedSequence(cfg.mc_seed)
    total = 0
    acc = 0.0
    acc2 = 0.0
    remaining = cfg.mc_paths
    for child in seeds.spawn(math.ceil(cfg.mc_paths / MC_CHUNK)):
        m = min(MC_CHUNK, remaining)
        remaining -= m
        rng = np.random.default_rng(child)
        x = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        for _ in range(contract.N):
            x += model.law.increments(model.drift * dt, dt, m, rng)
            if contract.has_lower:
                alive &= x > l
            if contract.has_upper:
                alive &= x < u
        pay = disc * np.where(alive, _payoff_on(x, contract), 0.0)
        total += m
        acc += float(pay.sum())
        acc2 += float((pay**2).sum())
    mean = acc / total
    var = max(acc2 / total - mean**2, 0.0)
    stderr = math.sqrt(var / total)
    return mean, stderr


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes_price(contract: OptionContract, sigma: float) -> float:
    """Closed-form vanilla price used as the gaussian-model baseline."""
    s0, k, t = contract.S0, contract.K, contract.T
    r, q = contract.r, contract.q_div
    d1 = (math.log(s0 / k) + (r - q + 0.5 * sigma**2) * t) / (sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    call = s0 * math.exp(-q * t) * _norm_cdf(d1) - k * math.exp(-r * t) * _norm_cdf(d2)
    if contract.kind == "call":
        return call
    return call - s0 * math.exp(-q * t) + k * math.exp(-r * t)
