import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import toeplitz

from levybarrier import price, pricers
from levybarrier.grid import build_grid, inverse_dft
from levybarrier.hilbert import (
    HilbertKernel,
    _kernel_fft,
    above_values,
    barrier_phases,
    below_values,
    hilbert_kernel,
    window_values,
)
from levybarrier.cases import double_barrier, down_and_out, up_and_out


def direct_kernel_matrix(M: int) -> np.ndarray:
    """Dense Toeplitz form of the lattice transform: (1-cos(pi m))/(pi m)."""
    lags = np.arange(M, dtype=float)
    with np.errstate(divide="ignore"):
        col = np.where(lags % 2 == 1, 2.0 / (np.pi * lags), 0.0)
    col[0] = 0.0
    return toeplitz(col, -col)


def gaussian_spectrum(M=4096, x_max=10.0):
    g = build_grid(M, x_max)
    return g, np.exp(-g.xi**2 / 2).astype(complex)


def test_kernel_values_via_delta():
    g = build_grid(32, 1.0)
    kern = hilbert_kernel(g)
    delta = np.zeros(32, dtype=complex)
    delta[16] = 1.0
    row = kern.apply(delta)
    lags = np.arange(32) - 16
    expected = np.where(lags % 2 == 1, 2.0 / (np.pi * np.where(lags == 0, 1, lags)), 0.0)
    assert np.max(np.abs(row - expected)) < 1e-14


def test_zero_maps_to_zero():
    g = build_grid(64, 1.0)
    f = np.zeros(64, dtype=complex)
    assert np.all(hilbert_kernel(g).apply(f) == 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([16, 64, 256]))
def test_fft_convolution_matches_direct_sum(seed, M):
    rng = np.random.default_rng(seed)
    g = build_grid(M, 2.0)
    f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    fast = hilbert_kernel(g).apply(f)
    direct = direct_kernel_matrix(M) @ f
    assert np.max(np.abs(fast - direct)) < 1e-13 * max(1.0, np.max(np.abs(f)))


def test_lorentzian_pair():
    # H[1/(1+xi^2)] = xi/(1+xi^2)
    g = build_grid(2**14, 14.0)
    f = (1.0 / (1.0 + g.xi**2)).astype(complex)
    h = hilbert_kernel(g).apply(f)
    exact = g.xi / (1.0 + g.xi**2)
    assert np.max(np.abs(h - exact)) < 1e-6


def test_plemelj_sum_identity():
    g = build_grid(512, 5.0)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    kern = hilbert_kernel(g)
    plus = above_values(f, barrier_phases(kern, l=0.0))
    minus = below_values(f, barrier_phases(kern, u=0.0))
    assert np.max(np.abs(plus + minus - f)) < 1e-15 * np.max(np.abs(f))


def test_plemelj_projects_gaussian_onto_half_line():
    g, f = gaussian_spectrum()
    kern = hilbert_kernel(g)
    plus = above_values(f, barrier_phases(kern, l=0.0))

    # frequency-domain check against direct quadrature of the half-density
    def half_transform(xi):
        re = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * math.cos(xi * x), 0, 12, limit=200)[0]
        im = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * math.sin(xi * x), 0, 12, limit=200)[0]
        return re + 1j * im

    for k in (2048, 2300, 2900, 1500):
        xi = g.xi[k]
        assert plus[k] == pytest.approx(half_transform(xi), abs=1e-6)

    # log-price-domain recovery: right only, ringing decays away from 0
    dens = inverse_dft(plus, g).real
    exact = np.where(g.x > 0, np.exp(-g.x**2 / 2) / math.sqrt(2 * math.pi), 0.0)
    err = np.abs(dens - exact)
    assert np.max(err[np.abs(g.x) > 0.5]) < 1e-3
    assert np.max(err[np.abs(g.x) > 3.0]) < 2e-4


def test_plemelj_symmetry_for_real_even_input():
    # decay fast enough that lag-window truncation cannot break the
    # odd/even pairing; the k = -M/2 node has no mirror and is skipped
    g = build_grid(256, 3.0)
    f = np.exp(-g.xi**2 / 8.0).astype(complex)
    kern = hilbert_kernel(g)
    h = kern.apply(f)[1:]
    assert np.max(np.abs(h + h[::-1])) < 1e-13
    # for real even input the halves are conjugates and mirror images
    plus = above_values(f, barrier_phases(kern, l=0.0))
    minus = below_values(f, barrier_phases(kern, u=0.0))
    assert np.max(np.abs(plus - np.conj(minus))) < 1e-13
    assert np.max(np.abs(plus[1:] - minus[1:][::-1])) < 1e-13


def test_shift_reduces_to_plain_decomposition_at_zero():
    g, f = gaussian_spectrum(M=1024, x_max=6.0)
    kern = hilbert_kernel(g)
    # the plain Plemelj halves (f +- i H f) / 2
    ih = 1j * kern.apply(f)
    plus, minus = 0.5 * (f + ih), 0.5 * (f - ih)
    above = above_values(f, barrier_phases(kern, l=0.0))
    below = below_values(f, barrier_phases(kern, u=0.0))
    assert np.max(np.abs(above - plus)) < 1e-14
    assert np.max(np.abs(below - minus)) < 1e-14


def test_shifted_halves_sum_to_input():
    g, f = gaussian_spectrum(M=1024, x_max=6.0)
    kern = hilbert_kernel(g)
    b = -0.1625
    above = above_values(f, barrier_phases(kern, l=b))
    below = below_values(f, barrier_phases(kern, u=b))
    assert np.max(np.abs(above + below - f)) < 1e-15


def test_shifted_projection_matches_quadrature():
    g, f = gaussian_spectrum()
    kern = hilbert_kernel(g)
    b = math.log(0.85)
    above = above_values(f, barrier_phases(kern, l=b))

    def tail_transform(xi):
        re = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * math.cos(xi * x), b, 12, limit=200)[0]
        im = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * math.sin(xi * x), b, 12, limit=200)[0]
        return re + 1j * im

    for k in (2048, 2500, 1700):
        assert above[k] == pytest.approx(tail_transform(g.xi[k]), abs=1e-6)


def test_window_algebra():
    g, f = gaussian_spectrum(M=2048, x_max=8.0)
    kern = hilbert_kernel(g)
    l, u = math.log(0.85), math.log(1.15)
    w = window_values(f, barrier_phases(kern, l, u))
    above = above_values(f, barrier_phases(kern, l=l))
    below = below_values(f, barrier_phases(kern, u=u))
    combo = above + below - f
    assert np.max(np.abs(w - combo)) < 1e-14

    # a band holding all the mass, barriers well inside the lattice,
    # reproduces the input
    gwide = build_grid(2048, 12.0)
    fwide = np.exp(-gwide.xi**2 / 2).astype(complex)
    full = window_values(fwide, barrier_phases(hilbert_kernel(gwide), -6.0, 6.0))
    assert np.max(np.abs(full - fwide)) < 1e-6


def test_window_matches_quadrature():
    g, f = gaussian_spectrum()
    kern = hilbert_kernel(g)
    l, u = math.log(0.85), math.log(1.15)
    w = window_values(f, barrier_phases(kern, l, u))

    def band_transform(xi):
        re = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * math.cos(xi * x), l, u)[0]
        im = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * math.sin(xi * x), l, u)[0]
        return re + 1j * im

    for k in (2048, 2400, 1600, 3000):
        assert w[k] == pytest.approx(band_transform(g.xi[k]), abs=1e-6)


def test_double_transform_is_near_negation():
    errs = {}
    for M in (2**10, 2**12):
        g = build_grid(M, 10.0)
        f = np.exp(-g.xi**2 / 2).astype(complex)
        kern = hilbert_kernel(g)
        hh = kern.apply(kern.apply(f))
        errs[M] = np.max(np.abs(hh + f))
    assert errs[2**12] < errs[2**10]
    assert errs[2**12] < 5e-3


def test_exponential_decay_gives_geometric_convergence():
    # doubling M (wider frequency range at fixed dxi) shrinks the
    # decomposition error against a 4x oversampled reference geometrically
    x_max = 6.0
    f_of = lambda xi: np.exp(-((xi / 40.0) ** 2)).astype(complex)
    ref_grid = build_grid(2**11, x_max)
    ref = above_values(f_of(ref_grid.xi), barrier_phases(hilbert_kernel(ref_grid), l=0.0))
    errors = []
    for M in (2**7, 2**8, 2**9):
        g = build_grid(M, x_max)
        plus = above_values(f_of(g.xi), barrier_phases(hilbert_kernel(g), l=0.0))
        offset = (ref_grid.M - M) // 2
        errors.append(np.max(np.abs(plus - ref[offset : offset + M])))
    assert errors[1] < 0.6 * errors[0]
    assert errors[2] < 0.6 * errors[1]


def test_polynomial_decay_truncation_rate():
    # |f| ~ |xi|^-2 tails: on a fixed observation window the truncation
    # error falls at least like M^-(a+1) = M^-3 per doubling
    x_max = 6.0
    ref_grid = build_grid(2**13, x_max)
    f_of = lambda xi: (1.0 / (1.0 + xi**2)).astype(complex)
    ref = above_values(f_of(ref_grid.xi), barrier_phases(hilbert_kernel(ref_grid), l=0.0))
    errors = []
    for M in (2**8, 2**9, 2**10):
        g = build_grid(M, x_max)
        plus = above_values(f_of(g.xi), barrier_phases(hilbert_kernel(g), l=0.0))
        offset = (ref_grid.M - M) // 2
        err = np.abs(plus - ref[offset : offset + M])
        errors.append(np.max(err[np.abs(g.xi) <= 5.0]))
    assert errors[1] < 1.5 * errors[0] / 8.0
    assert errors[2] < 1.5 * errors[1] / 8.0


def test_bad_arguments_rejected():
    g = build_grid(64, 1.0)
    f = np.ones(64, dtype=complex)
    kern = hilbert_kernel(g)
    with pytest.raises(ValueError):
        above_values(f, barrier_phases(kern, l=math.inf))
    with pytest.raises(ValueError):
        below_values(f, barrier_phases(kern, u=-math.inf))
    with pytest.raises(ValueError):
        window_values(f, barrier_phases(kern, 0.5, 0.5))
    # a projection needs the phases of the barrier(s) it cuts at
    with pytest.raises(ValueError):
        above_values(f, barrier_phases(kern, u=0.5))
    with pytest.raises(ValueError):
        below_values(f, barrier_phases(kern, l=0.5))
    with pytest.raises(ValueError):
        window_values(f, barrier_phases(kern, l=0.5))


@pytest.mark.parametrize("M", [1024, 8192])
def test_stacked_apply_matches_row_by_row(M):
    g = build_grid(M, 4.0)
    kern = hilbert_kernel(g)
    rng = np.random.default_rng(M)
    rows = rng.standard_normal((3, M)) + 1j * rng.standard_normal((3, M))
    stacked = kern.apply(rows)
    assert stacked.shape == (3, M)
    for row, out in zip(rows, stacked):
        # the 1-D path is the zero-padded length-2M circular convolution
        padded = np.concatenate([row, np.zeros(M, dtype=complex)])
        single = np.fft.ifft(np.fft.fft(padded) * kern.kernel_fft)[:M]
        assert np.array_equal(kern.apply(row), single)
        assert np.array_equal(out, single)


@pytest.mark.parametrize("M", [1024, 8192, 65536])
def test_window_equals_two_separate_shifted_transforms(M):
    g, f = gaussian_spectrum(M=M, x_max=8.0)
    kern = hilbert_kernel(g)
    l, u = math.log(0.85), math.log(1.15)
    halves = [
        np.exp(1j * b * g.xi) * (1j * kern.apply(np.exp(-1j * b * g.xi) * f)) for b in (l, u)
    ]
    expected = 0.5 * (halves[0] - halves[1])
    assert np.max(np.abs(window_values(f, barrier_phases(kern, l, u)) - expected)) <= 1e-15


def test_kernel_transform_is_shared_by_grids_of_one_size(kou):
    grids = [build_grid(1024, 3.0), build_grid(1024, 4.5)]
    contract = double_barrier(52)
    # fgm-f reads HilbertKernel.kernel_fft; fl folds the barriers into
    # kernels of its own and would not notice a wrong shared transform
    shared = [price(contract, kou, "fgm-f", g).price for g in grids]
    assert hilbert_kernel(grids[0]).kernel_fft is hilbert_kernel(grids[1]).kernel_fft
    fresh = []
    for g in grids:
        hilbert_kernel.cache_clear()
        _kernel_fft.cache_clear()
        fresh.append(price(contract, kou, "fgm-f", g).price)
    assert shared == fresh


def test_shared_arrays_are_read_only():
    g = build_grid(64, 1.0)
    kern = hilbert_kernel(g)
    phases = barrier_phases(kern, -0.2, 0.3)
    shared = [kern.kernel_fft, g.x, g.xi, g.eta]
    shared += [phases.down_l, phases.up_l, phases.down_u, phases.up_u]
    shared += [phases.above.kernel_fft, phases.below.kernel_fft, phases.window.kernel_fft]
    before = [array.copy() for array in shared]
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(shared, before))


@pytest.mark.parametrize("M", [1024, 8192, 65536])
def test_projections_match_explicit_phase_shift(M):
    # each folded kernel against 0.5 * (v +- e^{ib xi} iH[e^{-ib xi} v]),
    # with barriers off the x lattice
    g, f = gaussian_spectrum(M=M, x_max=8.0)
    kern = hilbert_kernel(g)
    l, u = math.log(0.83), math.log(1.17)
    phases = barrier_phases(kern, l, u)

    def shifted(b):
        return np.exp(1j * b * g.xi) * (1j * kern.apply(np.exp(-1j * b * g.xi) * f))

    tol = 1e-15 * np.max(np.abs(f))
    assert np.max(np.abs(above_values(f, phases) - 0.5 * (f + shifted(l)))) <= tol
    assert np.max(np.abs(below_values(f, phases) - 0.5 * (f - shifted(u)))) <= tol
    assert np.max(np.abs(window_values(f, phases) - 0.5 * (shifted(l) - shifted(u)))) <= tol


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision"
)
def test_folded_window_keeps_phase_accuracy_at_high_frequency():
    # on a flat input the double-precision phases e^{-+ib xi} carry
    # argument errors ~ eps |b xi| at the band edge; the folded kernel's
    # e^{i b dxi m} errors are damped by h(m) ~ 1/m.  Reference: the
    # shifted formula with the phases taken in extended precision.
    M = 65536
    g = build_grid(M, 3.0)
    kern = hilbert_kernel(g)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    l, u = math.log(0.83), math.log(1.17)
    xi = np.arange(-M // 2, M // 2).astype(np.longdouble) * np.longdouble(g.dxi)

    def shifted(b):
        arg = np.longdouble(b) * xi
        up = (np.cos(arg) + 1j * np.sin(arg)).astype(complex)
        return up * (1j * kern.apply(np.conj(up) * f))

    reference = 0.5 * (shifted(l) - shifted(u))
    err = np.max(np.abs(window_values(f, barrier_phases(kern, l, u)) - reference))
    assert err <= 5e-14 * np.max(np.abs(f))


def test_projection_is_one_single_row_apply_of_one_kernel(monkeypatch):
    g, f = gaussian_spectrum(M=1024, x_max=8.0)
    phases = barrier_phases(hilbert_kernel(g), -0.2, 0.3)
    calls = []
    apply = HilbertKernel.apply

    def spy(self, values):
        calls.append((self, np.shape(values)))
        return apply(self, values)

    monkeypatch.setattr(HilbertKernel, "apply", spy)
    for project in (window_values, window_values, above_values, above_values, below_values):
        project(f, phases)
    assert [shape for _, shape in calls] == [(1024,)] * 5
    kernels = [kernel for kernel, _ in calls]
    assert kernels[0] is kernels[1] is phases.window
    assert kernels[2] is kernels[3] is phases.above
    assert kernels[4] is phases.below


@pytest.mark.parametrize(
    "method, shape, built",
    [
        ("fgm", double_barrier, {"down_l", "up_l", "down_u", "up_u"}),
        ("fgm-f", down_and_out, {"down_l", "up_l"}),
        ("fl", double_barrier, {"window"}),
        ("fl-f", down_and_out, {"above"}),
        ("fl", up_and_out, {"below"}),
    ],
)
def test_pricers_build_only_the_barrier_data_they_use(monkeypatch, kou, method, shape, built):
    made = []

    def spy(*args):
        made.append(barrier_phases(*args))
        return made[-1]

    monkeypatch.setattr(pricers, "barrier_phases", spy)
    contract = shape(52)
    price(contract, kou, method, pricers.default_grid(contract, kou, 1024))
    assert len(made) == 1
    assert set(vars(made[0])) - {"kernel", "l", "u"} == built
