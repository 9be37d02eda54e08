"""Sinc-expansion discrete Hilbert transform and half-line projections.

On the xi lattice the sinc-based Hilbert transform reduces to a Toeplitz
convolution with kernel

    h(m) = (1 - cos(pi m)) / (pi m)  =  2/(pi m)  for odd m,  0 for even m

over lags m = -(M-1) .. M-1 (the m = 0 limit is 0).  The product is
computed as a linear convolution embedded in a length-2M circular FFT,
which is exact for the centre window: the needed output lags never wrap.
h(m) depends on M only, not on the lattice spacing, so its odd-lag
values and its transform are cached per M and shared by every grid of
that size; ``hilbert_kernel`` caches the grid-bound kernels pricers
reuse.

``HilbertKernel.apply`` transforms along the last axis, so a stack of
k rows costs one batched FFT pair.  The FFTs run on ``scipy.fft``: it
executes the same pocketfft arithmetic as ``numpy.fft`` (results are
bit-identical) with less per-call overhead, and transforms the padding
buffer in place.

Each apply allocates a padding buffer of 2M points, (2, M) for a
projection, and pocketfft a scratch: 128 KiB to 2 MiB for M = 2^12 ..
2^16.  So that glibc keeps such blocks mapped for reuse, rather than
faulting their pages in again on every transform, importing this module
sets glibc's malloc thresholds once for the process
(``_keep_transform_buffers``).  Prices do not change.

The projections ``above_values``, ``below_values`` and ``window_values``
split a spectrum into the transforms of the x > l and x < u restrictions
of the underlying function (or of the band l < x < u) without leaving
the frequency domain.  A barrier b enters as the phase-shifted transform
e^{+i b xi} iH[e^{-i b xi} v]; barriers need not lie on the x lattice.
On the lattice e^{i b xi_k} e^{-i b xi_j} = e^{i b dxi (k-j)}, so the
shifted transform is itself Toeplitz, with kernel i h(m) e^{i b dxi m},
and each projection folds into one Toeplitz kernel g applied to the
unshifted input:

    above:   g(m) = delta(m)/2 + (i/2) h(m) e^{i l dxi m}
    below:   g(m) = delta(m)/2 - (i/2) h(m) e^{i u dxi m}
    window:  g(m) = (i/2) h(m) (e^{i l dxi m} - e^{i u dxi m})

Like h, g vanishes on the even lags but 0, so the product splits by
parity into two half-size Toeplitz products, with g(-m) = conj(g(m)):

    (T w)_{2s}   = g(0) w_{2s}   + sum_r A(s - r) w_{2r+1},  A(t) = g(2t - 1)
    (T w)_{2s+1} = g(0) w_{2s+1} + sum_r B(s - r) w_{2r},    B(t) = g(2t + 1)

with |s - r| <= M/2 - 1, so each embeds at length M without a wrap
reaching the kept outputs.  A folded kernel holds g(0) and the
transforms of A and B as one (2, M) array, and its apply runs one
batched FFT pair over the odd and even samples: pocketfft transforms
two rows of M points faster than one of 2M.  The plain kernel keeps the
length-2M path for its z-domain users, whose prices the parity form
would move by a few 1e-12; that branch goes once they move onto it.
``BarrierProjections`` holds the barriers of one backward-induction
call and builds each folded kernel once, on first use, so a date costs
one batched FFT pair.  (The
z-domain pricer shifts its own inputs by the phase vectors e^{-+i b xi}
and applies the plain Hilbert kernel; see ``pricers``.)  The projections
take and return raw length-M sample arrays on the projections' grid.
Kernel arrays are read-only, since one cached kernel serves every
pricing call on its grid.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .grid import GridSpec, read_only

__all__ = [
    "HilbertKernel",
    "hilbert_kernel",
    "BarrierProjections",
    "above_values",
    "below_values",
    "window_values",
]

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_transform_buffers() -> None:
    """Keep freed FFT-sized blocks mapped for the life of the process.

    glibc serves a block of at least its mmap threshold (128 KiB at
    start) by ``mmap`` and unmaps it on free, and it gives the free top
    of a heap (the main one or a thread's arena) back to the system once
    that top exceeds its trim threshold (128 KiB at start).  Its dynamic
    rule raises both only as far as the largest mmapped block freed so
    far, so the padding and scratch buffers of ``HilbertKernel.apply``
    on M >= 2^12 kept being unmapped or trimmed, and every transform
    faulted their pages in again, on the contour pool's threads too.

    This sets the mmap threshold to 32 MiB, glibc's own ceiling for the
    dynamic threshold on 64-bit hosts, and the trim threshold to 64 MiB,
    twice that, as the dynamic rule pairs them.  Freed transform buffers
    then stay in their heap and are reused.  Both are set or neither:
    setting either one alone switches the dynamic rule off for both, and
    one alone raised the minor faults of a ``convergence_sweep`` bench
    pass from 111k to 287k (mmap alone) or 362k (trim alone), where both
    bring it to about 800.  Peak RSS of the bench books moved by at most
    0.3 %; a heap keeps at most 64 MiB of free top.

    Runs once, at import, and only on glibc: elsewhere, or where the C
    library's ``mallopt`` cannot be found, it does nothing.  There is no
    setting for it.  A host application that wants other values calls
    ``mallopt`` itself after importing the package.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # The mmap threshold first: glibc refuses one above its ceiling
    # (returns 0), and then the trim threshold stays unset too.
    if mallopt(_M_MMAP_THRESHOLD, 32 * 1024 * 1024):
        mallopt(_M_TRIM_THRESHOLD, 64 * 1024 * 1024)


_keep_transform_buffers()


@dataclass(frozen=True)
class HilbertKernel:
    """Precomputed frequency representation of a Toeplitz kernel on a
    grid: the Hilbert kernel h (``for_grid``), as the length-2M transform
    of its circular embedding, or a folded projection kernel g
    (``BarrierProjections``) in parity form: ``diagonal`` g(0) and, as
    rows of a (2, M) array, the length-M transforms of A (odd inputs to
    even outputs) and B (even inputs to odd outputs)."""

    grid: GridSpec
    kernel_fft: np.ndarray = field(repr=False)
    diagonal: float = 0.0

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "HilbertKernel":
        return cls(grid, _kernel_fft(grid.M))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Toeplitz product of centred sample vectors: ``values`` has shape
        (..., M), e.g. one vector (M,) or a stack of rows (k, M), and each
        row along the last axis is transformed independently, bit for bit
        as if applied alone.  The kernel picks the path: the plain one pads
        each row to 2M points, a folded one its odd and even samples to two
        rows of M (module docstring)."""
        M = self.grid.M
        if self.kernel_fft.ndim == 1:
            padded = np.zeros(np.shape(values)[:-1] + (2 * M,), dtype=complex)
            padded[..., :M] = values
            return self._convolve(padded)[..., :M]
        rows = np.zeros(values.shape[:-1] + (2, M), dtype=complex)
        rows[..., 0, : M // 2] = values[..., 1::2]
        rows[..., 1, : M // 2] = values[..., 0::2]
        rows = self._convolve(rows)
        out = np.empty(values.shape, dtype=complex)
        out[..., 0::2] = rows[..., 0, : M // 2]
        out[..., 1::2] = rows[..., 1, : M // 2]
        if self.diagonal:
            out += self.diagonal * values
        return out

    def _convolve(self, padded: np.ndarray) -> np.ndarray:
        # Both transforms run in the padding buffer: a fresh array per
        # stage would raise the peak memory of large grids.  The buffer is
        # freed on return but stays mapped for the next apply
        # (_keep_transform_buffers); unmapped, its pages and pocketfft's
        # scratch faulted in again on every call.
        padded = scipy.fft.fft(padded, overwrite_x=True)
        padded *= self.kernel_fft
        return scipy.fft.ifft(padded, overwrite_x=True)


@lru_cache(maxsize=16)
def _odd_lags(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only positive odd lags m = 1, 3, .., M-1 and h(m) = 2/(pi m)
    on them; h vanishes on the even lags and is odd in m."""
    lags = np.arange(1, M, 2)
    return read_only(lags), read_only(2.0 / (np.pi * lags))


@lru_cache(maxsize=16)
def _kernel_fft(M: int) -> np.ndarray:
    """Read-only length-2M transform of the circularly embedded h(m)."""
    _, h = _odd_lags(M)
    # circular embedding: slot t holds lag t for t < M, lag t-2M beyond
    c = np.zeros(2 * M)
    c[1:M:2] = h
    c[M + 1 :: 2] = -h[::-1]
    return read_only(np.fft.fft(c))


@lru_cache(maxsize=16)
def hilbert_kernel(grid: GridSpec) -> HilbertKernel:
    return HilbertKernel.for_grid(grid)


def _projection_kernel(grid: GridSpec, l: float | None, u: float | None) -> HilbertKernel:
    """Folded kernel of the projection onto l < x < u, None marking an
    open side: g = (s_l - s_u) / 2, where s_b(m) = i h(m) e^{i b dxi m}
    is the shifted sign transform, s_{-inf} = delta and s_{+inf} = -delta.
    Built in the parity form ``HilbertKernel.apply`` reads."""
    lags, h = _odd_lags(grid.M)
    signs = np.zeros(len(lags), dtype=complex)
    if l is not None:
        signs += np.exp(1j * (l * grid.dxi) * lags)
    if u is not None:
        signs -= np.exp(1j * (u * grid.dxi) * lags)
    g = 0.5j * h * signs  # g on the lags 1, 3, .., M-1; g(-m) = conj(g(m))
    odd = np.concatenate((np.conj(g[::-1]), g))  # lags 1-M, 3-M, .., M-1
    half = grid.M // 2
    # A(t) = odd[t + half - 1], B(t) = odd[t + half]; circular embedding
    # at length M: slot t holds lag t, slot M - t lag -t, slot M/2 is 0
    rows = np.zeros((2, grid.M), dtype=complex)
    rows[:, :half] = (odd[half - 1 : -1], odd[half:])
    rows[:, half + 1 :] = (odd[: half - 1], odd[1:half])
    diagonal = 0.5 * ((l is None) + (u is None))
    return HilbertKernel(grid, read_only(scipy.fft.fft(rows)), diagonal)


@dataclass(frozen=True, eq=False)
class BarrierProjections:
    """The barriers l and u (None when absent; finite, l < u when both
    are given) of one pricing call on one grid, with the folded
    projection kernels ``above``, ``below`` and ``window``, each
    read-only and built on first use.  Asking for the kernel of an
    absent barrier raises ValueError."""

    grid: GridSpec
    l: float | None = None
    u: float | None = None

    def __post_init__(self) -> None:
        for b in (self.l, self.u):
            if b is not None and not math.isfinite(b):
                raise ValueError(f"barrier must be finite, got {b}")
        if self.l is not None and self.u is not None and not self.l < self.u:
            raise ValueError(f"need l < u, got l={self.l}, u={self.u}")

    def _given(self, b: float | None) -> float:
        if b is None:
            raise ValueError("projection needs a barrier that was not given")
        return b

    @cached_property
    def above(self) -> HilbertKernel:
        return _projection_kernel(self.grid, self._given(self.l), None)

    @cached_property
    def below(self) -> HilbertKernel:
        return _projection_kernel(self.grid, None, self._given(self.u))

    @cached_property
    def window(self) -> HilbertKernel:
        return _projection_kernel(self.grid, self._given(self.l), self._given(self.u))


def window_values(values: np.ndarray, projections: BarrierProjections) -> np.ndarray:
    """Transform of the restriction of the function to l < x < u."""
    return projections.window.apply(values)


def above_values(values: np.ndarray, projections: BarrierProjections) -> np.ndarray:
    """Transform of the restriction of the function to x > l; l = 0 is the
    plain Plemelj half (values + i H[values]) / 2."""
    return projections.above.apply(values)


def below_values(values: np.ndarray, projections: BarrierProjections) -> np.ndarray:
    """Transform of the restriction of the function to x < u; at u = l the
    complement of above_values, so the two halves sum to the input."""
    return projections.below.apply(values)
