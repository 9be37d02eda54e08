"""Sinc-expansion discrete Hilbert transform and half-line projections.

On the xi lattice the sinc-based Hilbert transform reduces to a Toeplitz
convolution with kernel

    h(m) = (1 - cos(pi m)) / (pi m)  =  2/(pi m)  for odd m,  0 for even m

over lags m = -(M-1) .. M-1 (the m = 0 limit is 0 and is hard-coded).
The product is computed as a linear convolution embedded in a length-2M
circular FFT, which is exact for the centre window: the needed output
lags never wrap.  h(m) depends on M only, not on the lattice spacing, so
its transform is cached per M and shared by every grid of that size;
``hilbert_kernel`` caches the grid-bound kernels pricers reuse.

``HilbertKernel.apply`` transforms along the last axis, so a stack of
k rows costs one batched FFT pair.  The FFTs run on ``scipy.fft``: it
executes the same pocketfft arithmetic as ``numpy.fft`` (results are
bit-identical) with less per-call overhead, and transforms the padding
buffer in place.

The projections ``above_values``, ``below_values`` and ``window_values``
split a spectrum into the transforms of the x > l and x < u restrictions
of the underlying function (or of the band l < x < u) without leaving
the frequency domain; barrier shifts enter as pointwise phase factors,
so barriers need not lie on the x lattice.  The phase vectors
e^{-i b xi} and e^{+i b xi} are built once per pricing call by
``barrier_phases`` and passed to every projection; the window's two
shifted transforms share one 2-row apply.  The projections take and
return raw length-M sample arrays on the kernel's grid.  Kernel and
phase arrays are read-only, since one cached kernel serves every
pricing call on its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

from .grid import GridSpec, read_only

__all__ = [
    "HilbertKernel",
    "hilbert_kernel",
    "BarrierPhases",
    "barrier_phases",
    "above_values",
    "below_values",
    "window_values",
]


@dataclass(frozen=True)
class HilbertKernel:
    """Precomputed frequency representation of the Toeplitz kernel."""

    grid: GridSpec
    kernel_fft: np.ndarray = field(repr=False)

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "HilbertKernel":
        return cls(grid, _kernel_fft(grid.M))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Discrete Hilbert transform of centred sample vectors: ``values``
        has shape (..., M), e.g. one vector (M,) or a stack of rows (k, M),
        and each row along the last axis is transformed independently,
        bit for bit as if applied alone."""
        M = self.grid.M
        padded = np.zeros(np.shape(values)[:-1] + (2 * M,), dtype=complex)
        padded[..., :M] = values
        # Both transforms run in the padding buffer: a fresh 2M-point
        # array per stage costs page faults once rows pass ~128 KiB and
        # raises the peak memory of large grids.
        padded = scipy.fft.fft(padded, overwrite_x=True)
        padded *= self.kernel_fft
        return scipy.fft.ifft(padded, overwrite_x=True)[..., :M]


@lru_cache(maxsize=16)
def _kernel_fft(M: int) -> np.ndarray:
    """Read-only length-2M transform of the circularly embedded h(m)."""
    lags = np.arange(-(M - 1), M)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (1.0 - np.cos(np.pi * lags)) / (np.pi * lags)
    h[lags % 2 == 0] = 0.0  # includes the m = 0 limit
    # circular embedding: slot t holds lag t for t < M, lag t-2M beyond
    c = np.zeros(2 * M)
    c[:M] = h[M - 1 :]
    c[M + 1 :] = h[: M - 1]
    return read_only(np.fft.fft(c))


@lru_cache(maxsize=16)
def hilbert_kernel(grid: GridSpec) -> HilbertKernel:
    return HilbertKernel.for_grid(grid)


@dataclass(frozen=True, eq=False)
class BarrierPhases:
    """Read-only phase vectors of the barriers l and u on one kernel's
    grid: ``down_b`` = e^{-i b xi} and ``up_b`` = e^{+i b xi}; None for
    an absent barrier."""

    kernel: HilbertKernel
    l: float | None
    u: float | None
    down_l: np.ndarray | None = field(repr=False)
    up_l: np.ndarray | None = field(repr=False)
    down_u: np.ndarray | None = field(repr=False)
    up_u: np.ndarray | None = field(repr=False)


def _phase_pair(b: float | None, xi: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    if b is None:
        return None, None
    if not math.isfinite(b):
        raise ValueError(f"barrier must be finite, got {b}")
    return read_only(np.exp(-1j * b * xi)), read_only(np.exp(1j * b * xi))


def barrier_phases(
    kernel: HilbertKernel, l: float | None = None, u: float | None = None
) -> BarrierPhases:
    """Phases of a lower barrier l and/or an upper barrier u (finite,
    l < u when both are given), computed once per pricing call."""
    if l is not None and u is not None and not l < u:
        raise ValueError(f"need l < u, got l={l}, u={u}")
    xi = kernel.grid.xi
    return BarrierPhases(kernel, l, u, *_phase_pair(l, xi), *_phase_pair(u, xi))


def _require(phases: BarrierPhases, lower: bool, upper: bool) -> None:
    if (lower and phases.l is None) or (upper and phases.u is None):
        raise ValueError("projection needs the phases of a barrier that was not given")


def _unshift(up: np.ndarray, h: np.ndarray) -> np.ndarray:
    """up * (i h), with the phase kept as the left operand.  Once a
    temporary exceeds 256 KiB NumPy evaluates ``up * temporary`` in place
    as ``temporary * up``, and its SIMD complex multiply is not bitwise
    commutative; the fixed order makes the result independent of M."""
    ih = 1j * h
    return np.multiply(up, ih, out=ih)


def window_values(values: np.ndarray, phases: BarrierPhases) -> np.ndarray:
    """Transform of the restriction of the function to l < x < u."""
    _require(phases, lower=True, upper=True)
    rows = np.empty((2, len(values)), dtype=complex)
    np.multiply(phases.down_l, values, out=rows[0])
    np.multiply(phases.down_u, values, out=rows[1])
    h = phases.kernel.apply(rows)
    return 0.5 * (_unshift(phases.up_l, h[0]) - _unshift(phases.up_u, h[1]))


def above_values(values: np.ndarray, phases: BarrierPhases) -> np.ndarray:
    """Transform of the restriction of the function to x > l; l = 0 is the
    plain Plemelj half (values + i H[values]) / 2."""
    _require(phases, lower=True, upper=False)
    shifted = phases.kernel.apply(phases.down_l * values)
    return 0.5 * (values + _unshift(phases.up_l, shifted))


def below_values(values: np.ndarray, phases: BarrierPhases) -> np.ndarray:
    """Transform of the restriction of the function to x < u; at u = l the
    complement of above_values, so the two halves sum to the input."""
    _require(phases, lower=False, upper=True)
    shifted = phases.kernel.apply(phases.down_u * values)
    return 0.5 * (values - _unshift(phases.up_u, shifted))
