"""Sinc-expansion discrete Hilbert transform and half-line projections.

On the xi lattice the sinc-based Hilbert transform reduces to a Toeplitz
convolution with kernel

    h(m) = (1 - cos(pi m)) / (pi m)  =  2/(pi m)  for odd m,  0 for even m

over lags m = -(M-1) .. M-1 (the m = 0 limit is 0 and is hard-coded).
The product is computed as a linear convolution embedded in a length-2M
circular FFT, which is exact for the centre window: the needed output
lags never wrap.  Kernels are cached per grid since pricers reuse them
heavily.

The projections ``above_values``, ``below_values`` and ``window_values``
split a spectrum into the transforms of the x > b and x < b restrictions
of the underlying function (or of the band l < x < u) without leaving
the frequency domain; barrier shifts enter as pointwise phase factors,
so barriers need not lie on the x lattice.  Like ``HilbertKernel.apply``
they take and return raw length-M sample arrays on the kernel's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import GridSpec

__all__ = [
    "HilbertKernel",
    "hilbert_kernel",
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
        M = grid.M
        lags = np.arange(-(M - 1), M)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = (1.0 - np.cos(np.pi * lags)) / (np.pi * lags)
        h[lags % 2 == 0] = 0.0  # includes the m = 0 limit
        # circular embedding: slot t holds lag t for t < M, lag t-2M beyond
        c = np.zeros(2 * M)
        c[:M] = h[M - 1 :]
        c[M + 1 :] = h[: M - 1]
        return cls(grid, np.fft.fft(c))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Discrete Hilbert transform of one centred sample vector."""
        M = self.grid.M
        padded = np.zeros(2 * M, dtype=complex)
        padded[:M] = values
        return np.fft.ifft(np.fft.fft(padded) * self.kernel_fft)[:M]


@lru_cache(maxsize=16)
def hilbert_kernel(grid: GridSpec) -> HilbertKernel:
    return HilbertKernel.for_grid(grid)


def _shifted_half(values: np.ndarray, b: float, kernel: HilbertKernel) -> np.ndarray:
    """e^{i b xi} * i * H[e^{-i b xi} f] on the grid."""
    if not math.isfinite(b):
        raise ValueError(f"barrier must be finite, got {b}")
    xi = kernel.grid.xi
    phase = np.exp(-1j * b * xi)
    return np.exp(1j * b * xi) * (1j * kernel.apply(phase * values))


def window_values(
    values: np.ndarray, l: float, u: float, kernel: HilbertKernel
) -> np.ndarray:
    """Transform of the restriction of the function to l < x < u."""
    if not l < u:
        raise ValueError(f"need l < u, got l={l}, u={u}")
    return 0.5 * (_shifted_half(values, l, kernel) - _shifted_half(values, u, kernel))


def above_values(values: np.ndarray, b: float, kernel: HilbertKernel) -> np.ndarray:
    """Transform of the restriction of the function to x > b; b = 0 is the
    plain Plemelj half (values + i H[values]) / 2."""
    return 0.5 * (values + _shifted_half(values, b, kernel))


def below_values(values: np.ndarray, b: float, kernel: HilbertKernel) -> np.ndarray:
    """Transform of the restriction of the function to x < b; the
    complement of above_values, so the two halves sum to the input."""
    return 0.5 * (values - _shifted_half(values, b, kernel))
