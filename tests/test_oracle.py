import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve

from levybarrier import FilterSpec, OptionContract, OracleConfig, default_grid, mc_price, price_fl, quad_price
from levybarrier.oracle import _convolution_window, _transition_density, black_scholes_price
from conftest import double_barrier, down_and_out, european


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(quad_points=1024)
    with pytest.raises(ValueError):
        OracleConfig(mc_paths=100)


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
    assert val == pytest.approx(0.00721968941, abs=5e-7)


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
    window = _convolution_window(a, scipy.fft.rfft(p_rev))
    assert np.max(np.abs(window - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_zero_width_band_is_worthless(kou):
    c = OptionContract(
        S0=1.0, K=1.0, T=1.0, N=4, r=0.05, q_div=0.02, L=1.0 - 1e-9, U=1.0 + 1e-9
    )
    assert quad_price(c, kou, OracleConfig(quad_points=2**13)) < 1e-10


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


def test_mc_stderr_scaling(kou):
    c = double_barrier(4)
    _, se_small = mc_price(c, kou, OracleConfig(mc_paths=10**4, mc_seed=5))
    _, se_big = mc_price(c, kou, OracleConfig(mc_paths=10**6, mc_seed=5))
    assert se_small / se_big == pytest.approx(10.0, rel=0.3)


@pytest.mark.parametrize("model_name,N", [("kou", 52), ("nig", 4), ("vg", 4)])
def test_mc_agrees_with_transform_pricer(all_models, model_name, N):
    model = all_models[model_name]
    c = double_barrier(N)
    filt = FilterSpec.exponential() if model_name == "vg" else None
    ref = price_fl(c, model, default_grid(c, model, 2**14), filt).price
    val, se = mc_price(c, model, OracleConfig(mc_paths=200_000, mc_seed=902))
    assert abs(val - ref) < 3.5 * se


def test_mc_gaussian_black_scholes(gaussian):
    c = european(N=1)
    val, se = mc_price(c, gaussian, OracleConfig(mc_paths=400_000, mc_seed=31))
    assert abs(val - black_scholes_price(c, 0.2)) < 3.5 * se


def test_quad_matches_transform_single_barrier(kou):
    c = down_and_out(52)
    ref = price_fl(c, kou, default_grid(c, kou, 2**16)).price
    val = quad_price(c, kou, OracleConfig(quad_points=2**15))
    assert val == pytest.approx(ref, abs=5e-7)
