"""Dual log-price/frequency lattices and centred DFT conventions.

The two grids are tied by the Nyquist relation: x_j = j*dx for
j = -M/2 .. M/2-1 with dx = 2*x_max/M, and xi_k = k*dxi with
dxi = pi/x_max, xi_max = pi/dx.  The transform pair implemented here is

    fwd:  fhat(xi_k) = dx  * sum_j f(x_j)    exp(+i x_j xi_k)
    inv:  f(x_j)     = dxi / (2 pi) * sum_k fhat(xi_k) exp(-i x_j xi_k)

computed via the FFT with fftshift bookkeeping so callers only ever see
centred indices.  Samples are plain length-M arrays passed as
``(values, grid)``; each transform checks the length and returns
complex128.  The lattice arrays ``x``, ``xi`` and ``eta`` are cached on
the (shared) GridSpec and are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "build_grid",
    "forward_dft",
    "inverse_dft",
    "inverse_at_zero",
    "read_only",
]


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array shared between pricing calls read-only and return it."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class GridSpec:
    """Centred lattice pair of size M (even, >= 8) on [-x_max, x_max)."""

    M: int
    x_max: float

    def __post_init__(self) -> None:
        if self.M < 8 or self.M % 2 != 0:
            raise ValueError(f"M must be even and >= 8, got {self.M}")
        if not (self.x_max > 0):
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if not (np.isfinite(self.dx) and np.isfinite(self.dxi)):
            raise ValueError(f"x_max = {self.x_max} gives a non-finite grid spacing")

    @property
    def dx(self) -> float:
        return 2.0 * self.x_max / self.M

    @property
    def dxi(self) -> float:
        return np.pi / self.x_max

    @property
    def xi_max(self) -> float:
        return np.pi / self.dx

    @cached_property
    def x(self) -> np.ndarray:
        return read_only(np.arange(-self.M // 2, self.M // 2) * self.dx)

    @cached_property
    def xi(self) -> np.ndarray:
        return read_only(np.arange(-self.M // 2, self.M // 2) * self.dxi)

    @cached_property
    def eta(self) -> np.ndarray:
        """Scaled frequency xi/xi_max; left endpoint is exactly -1."""
        return read_only(np.arange(-self.M // 2, self.M // 2) / (self.M // 2))


def build_grid(M: int, x_max: float) -> GridSpec:
    return GridSpec(int(M), float(x_max))


def _check_length(values: np.ndarray, grid: GridSpec) -> None:
    if np.shape(values)[-1] != grid.M:
        raise ValueError(f"expected {grid.M} samples, got {np.shape(values)[-1]}")


def forward_dft(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x-lattice samples -> xi-lattice samples."""
    _check_length(values, grid)
    return grid.dx * grid.M * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(values)))


def inverse_dft(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """xi-lattice samples -> x-lattice samples."""
    _check_length(values, grid)
    return (grid.dxi / (2.0 * np.pi)) * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values)))


def inverse_at_zero(values: np.ndarray, grid: GridSpec) -> complex | np.ndarray:
    """Inverse transform evaluated at x = 0 only: one O(M) sum per row of
    ``values`` (shape (..., M)), a complex for one length-M vector."""
    _check_length(values, grid)
    total = grid.dxi / (2.0 * np.pi) * np.sum(values, axis=-1)
    return complex(total) if np.ndim(total) == 0 else total
