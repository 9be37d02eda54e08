import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve

import levybarrier
from levybarrier import OptionContract, OracleConfig, default_grid, mc_price, price, quad_price
from levybarrier.oracle import (
    _convolution_window,
    _lattice_half_width,
    _payoff_on,
    _transition_density,
    black_scholes_price,
)
from levybarrier.cases import SHAPES, TABLE_PRICES, double_barrier, down_and_out, european
from levybarrier.pricers import reference_price


def full_lattice_density(model, dt, h, n):
    """Lags -n .. n-1 from the two-sided complex transform of Psi."""
    dxi = math.pi / (n * h)
    xi = np.arange(-n, n) * dxi
    psi = model.char_function(xi, dt) * np.sinc(h * xi / (2.0 * math.pi))
    return ((dxi / (2.0 * math.pi)) * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(psi)))).real


def full_lattice_price(contract, model, n):
    """Backward induction over every lattice cell, one length-2n window per date."""
    h = 2.0 * _lattice_half_width(contract, model) / n
    x = np.arange(-n // 2, n // 2) * h
    p_rev_fft = scipy.fft.rfft(full_lattice_density(model, contract.dt, h, n)[::-1])
    edges = (np.arange(-n // 2, n // 2 + 1) - 0.5) * h
    lo = contract.log_lower if contract.has_lower else -np.inf
    hi = contract.log_upper if contract.has_upper else np.inf
    alive = np.clip((np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)) / h, 0.0, 1.0)
    v = _payoff_on(x, contract)
    for _ in range(contract.N):
        v = h * scipy.fft.irfft(scipy.fft.rfft(alive * v, 2 * n) * p_rev_fft, 2 * n)[n - 1 : 2 * n - 1]
    return math.exp(-contract.r * contract.T) * float(v[n // 2])


GEOMETRIES = {
    **SHAPES,
    "vanilla": european,
    "spot_below_band": lambda N: double_barrier(N, L=1.05, U=1.3),
}


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(quad_points=1024)
    with pytest.raises(ValueError):
        OracleConfig(mc_paths=100)


@pytest.mark.parametrize(
    "make, field, value",
    [
        (double_barrier, "N", 2.5),
        (double_barrier, "N", math.nan),
        (OracleConfig, "mc_paths", 10000.5),
        (OracleConfig, "mc_seed", 1.5),
        (OracleConfig, "quad_points", 4096.5),
    ],
)
def test_non_integral_count_rejected_by_name(make, field, value):
    """N = 2.5 used to fail inside fl with a TypeError, N = nan passed
    N >= 1, and quad_points = 4096.5 was truncated to 4096."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}"):
        make(**{field: value})
    make(**{field: np.int64(2**12 if field == "quad_points" else 10**4)})


def test_gaussian_european_black_scholes(gaussian):
    c = european(N=1)
    val = quad_price(c, gaussian, OracleConfig(quad_points=2**15))
    assert val == pytest.approx(black_scholes_price(c, 0.2), abs=1e-8)
    p = european(N=1, kind="put")
    val_put = quad_price(p, gaussian, OracleConfig(quad_points=2**15))
    assert val_put == pytest.approx(black_scholes_price(p, 0.2), abs=1e-8)


def test_quad_reproduces_double_barrier_reference(kou):
    c = double_barrier(4)
    val = quad_price(c, kou, OracleConfig(quad_points=2**15))
    assert val == pytest.approx(TABLE_PRICES["kou"][4], abs=5e-7)


def test_quad_is_deterministic(kou):
    c = double_barrier(4)
    cfg = OracleConfig(quad_points=2**13)
    assert quad_price(c, kou, cfg) == quad_price(c, kou, cfg)


@pytest.mark.parametrize("n", [4096, 5000])
def test_circular_window_equals_linear_convolution(kou, n):
    p_rev = _transition_density(kou, 0.25, 4.0 / n, n)[::-1]
    assert len(p_rev) == 2 * n
    a = np.random.default_rng(n).random(n)
    expected = fftconvolve(a, p_rev)[n - 1 : 2 * n - 1]
    window = _convolution_window(a, scipy.fft.rfft(p_rev), n, 2 * n)
    assert np.max(np.abs(window - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_zero_width_band_is_worthless(kou):
    c = OptionContract(
        S0=1.0, K=1.0, T=1.0, N=4, r=0.05, q_div=0.02, L=1.0 - 1e-9, U=1.0 + 1e-9
    )
    assert quad_price(c, kou, OracleConfig(quad_points=2**13)) < 1e-10


@pytest.mark.filterwarnings("ignore:transition density mass")
@pytest.mark.parametrize("n", [2**13, 5000])
@pytest.mark.parametrize("N", [1, 4, 52])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("model_name", ["kou", "nig", "vg"])
def test_live_cells_match_full_lattice(all_models, model_name, geometry, N, n):
    model, c = all_models[model_name], GEOMETRIES[geometry](N)
    expected = full_lattice_price(c, model, n)
    assert abs(quad_price(c, model, OracleConfig(quad_points=n)) - expected) <= 1e-13


@pytest.mark.filterwarnings("ignore:transition density mass")
@pytest.mark.parametrize("n", [2**13, 5000])
@pytest.mark.parametrize("model_name", ["kou", "nig", "vg"])
def test_hermitian_density_matches_complex_transform(all_models, model_name, n):
    model = all_models[model_name]
    h = 2.0 * _lattice_half_width(double_barrier(4), model) / n
    for dt in (1.0, 0.25, 1.0 / 52):
        expected = full_lattice_density(model, dt, h, n)
        p = _transition_density(model, dt, h, n)
        assert np.max(np.abs(p - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_band_window_equals_linear_convolution(kou):
    n, s, e, o0, o1 = 4096, 1500, 2300, 1200, 2300  # x = 0 cell below the band
    p = _transition_density(kou, 0.25, 4.0 / n, n)
    lags = p[n + s - o1 + 1 : n + e - o0][::-1]
    a, b = e - s, o1 - o0
    size = scipy.fft.next_fast_len(a + b - 1, real=True)
    values = np.random.default_rng(1).random(a)
    expected = fftconvolve(values, lags)[a - 1 : a - 1 + b]
    window = _convolution_window(values, scipy.fft.rfft(lags, size), b, size)
    assert np.max(np.abs(window - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_no_live_cell_is_worthless_without_transforms(kou, monkeypatch):
    # both barriers round to the same log-price, so no cell survives
    c = OptionContract(
        S0=1.0, K=1.0, T=1.0, N=4, r=kou.r, q_div=kou.q_div, L=1e-9, U=math.nextafter(1e-9, 1.0)
    )
    assert c.log_lower == c.log_upper

    def boom(*args, **kwargs):
        raise AssertionError("transform called")

    for name in ("fft", "rfft", "irfft", "hfft"):
        monkeypatch.setattr(scipy.fft, name, boom)
    assert quad_price(c, kou, OracleConfig(quad_points=2**13)) == 0.0


def test_odd_lattice_reads_the_spot_cell(kou):
    c = down_and_out(4)
    even = quad_price(c, kou, OracleConfig(quad_points=2**13))
    assert quad_price(c, kou, OracleConfig(quad_points=2**13 + 1)) == pytest.approx(even, abs=1e-6)


def test_density_mass_warning(gaussian):
    with pytest.warns(UserWarning, match="mass"):
        _transition_density(gaussian, 1.0, 1e-4, 4096)  # range far too narrow


def test_mc_deterministic_under_seed(kou):
    c = double_barrier(4)
    cfg = OracleConfig(mc_paths=10**4, mc_seed=77)
    a = mc_price(c, kou, cfg)
    b = mc_price(c, kou, cfg)
    assert a == b
    assert a[0] >= 0.0


# mc_price(double_barrier(4), model, 4e4 paths, seed 7) as float.hex:
# pins every law's sampler and the order it draws in
MC_PINNED = {
    "kou": "0x1.e14d158e3c2fap-8",
    "nig": "0x1.66c16da9de96bp-8",
    "vg": "0x1.eb5204487ef57p-9",
    "gaussian": "0x1.1164d59be7948p-8",
}


@pytest.mark.parametrize("model_name", sorted(MC_PINNED))
def test_mc_price_is_pinned(all_models, model_name):
    cfg = OracleConfig(mc_paths=40_000, mc_seed=7)
    value, _ = mc_price(double_barrier(4), all_models[model_name], cfg)
    assert value.hex() == MC_PINNED[model_name]


def test_mc_stderr_scaling(kou):
    c = double_barrier(4)
    _, se_small = mc_price(c, kou, OracleConfig(mc_paths=10**4, mc_seed=5))
    _, se_big = mc_price(c, kou, OracleConfig(mc_paths=10**6, mc_seed=5))
    assert se_small / se_big == pytest.approx(10.0, rel=0.3)


@pytest.mark.parametrize("model_name,N", [("kou", 52), ("nig", 4), ("vg", 4)])
def test_mc_agrees_with_transform_pricer(all_models, model_name, N):
    model = all_models[model_name]
    c = double_barrier(N)
    method = "fl-f" if model_name == "vg" else "fl"
    ref = price(c, model, method, default_grid(c, model, 2**14)).price
    val, se = mc_price(c, model, OracleConfig(mc_paths=200_000, mc_seed=902))
    assert abs(val - ref) < 3.5 * se


def test_mc_gaussian_black_scholes(gaussian):
    c = european(N=1)
    val, se = mc_price(c, gaussian, OracleConfig(mc_paths=400_000, mc_seed=31))
    assert abs(val - black_scholes_price(c, 0.2)) < 3.5 * se


def test_quad_matches_transform_single_barrier(kou):
    c = down_and_out(52)
    ref = reference_price(c, kou)
    val = quad_price(c, kou, OracleConfig(quad_points=2**15))
    assert val == pytest.approx(ref, abs=5e-7)


def test_import_leaves_scipy_stats_unloaded():
    # the gaussian baseline's normal CDF comes from math.erfc; scipy.stats
    # alone costs most of the package's import time
    code = "import sys, levybarrier; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(levybarrier.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_every_entry_point_rejects_a_contract_with_other_rates(kou):
    # every pricer discounts at the contract's r while the model's drift
    # uses the model's r - q; kou fl at N=52, M=2^12 would price this
    # down-and-out at 0.045426 against 0.043211 at the model's rates
    c = down_and_out(52, r=0.0, q_div=0.0)
    grid = default_grid(c, kou, 2**12)
    message = r"contract rates \(r, q\) = \(0.0, 0.0\) differ from the model.s \(0.05, 0.02\)"
    for call in (
        lambda: price(c, kou, "fl", grid),
        lambda: quad_price(c, kou),
        lambda: mc_price(c, kou),
    ):
        with pytest.raises(ValueError, match=message):
            call()
