from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier.ztransform import (
    ZInversionConfig,
    contour_points,
    invert,
    invert_euler,
    invert_exact,
    use_euler,
)


def geometric(a):
    return lambda q: 1.0 / (1.0 - a * q)


def eval_contour(fn, cfg):
    return fn(contour_points(cfg).points)


def test_config_invariants():
    cfg = ZInversionConfig(n=252)
    assert cfg.rho == pytest.approx(10.0 ** (-6.0 / 252.0))
    assert cfg.n_e == 12 and cfg.m_e == 20
    with pytest.raises(ValueError):
        ZInversionConfig(n=0)
    with pytest.raises(ValueError):
        ZInversionConfig(n=10, gamma=13.0)


def test_contour_points():
    cfg = ZInversionConfig(n=1)
    pts = contour_points(cfg).points
    assert len(pts) == 2
    assert pts[0] == pytest.approx(cfg.rho)
    assert pts[1] == pytest.approx(-cfg.rho)

    cfg2 = ZInversionConfig(n=252)
    pts2 = contour_points(cfg2).points
    assert len(pts2) == 33
    assert np.max(np.abs(np.abs(pts2) - cfg2.rho)) < 1e-15


def test_euler_fallback_threshold():
    assert not use_euler(ZInversionConfig(n=32))
    assert use_euler(ZInversionConfig(n=33))
    assert not use_euler(ZInversionConfig(n=100, accelerated=False))


def test_monomial_picks_own_coefficient():
    for n, m in ((6, 6), (8, 8)):
        cfg = ZInversionConfig(n=n)
        vals = contour_points(cfg).points ** m
        assert invert_exact(vals, cfg) == pytest.approx(1.0, abs=1e-10)
    cfg = ZInversionConfig(n=6)
    vals = contour_points(cfg).points ** 4
    assert abs(invert_exact(vals, cfg)) < 10.0 ** (-2 * cfg.gamma) * 10


def test_constant_has_no_high_coefficients():
    for n in (5, 20):
        cfg = ZInversionConfig(n=n)
        vals = np.full(n + 1, 3.7, dtype=complex)
        assert abs(invert_exact(vals, cfg)) <= 3.7 * 10.0 ** (-2 * cfg.gamma)


def test_geometric_exact_n20():
    # double precision floor: absolute accuracy on the coefficient scale
    cfg = ZInversionConfig(n=20)
    val = eval_contour(geometric(0.5), cfg)
    assert abs(invert_exact(val, cfg) - 0.5**20) < 1e-10


def test_geometric_euler_n252():
    cfg = ZInversionConfig(n=252)
    val = eval_contour(geometric(0.5), cfg)
    assert abs(invert_euler(val, cfg) - 0.5**252) < 1e-8


def test_euler_agrees_with_exact_n52():
    cfg = ZInversionConfig(n=52)
    exact = invert_exact(eval_contour(geometric(0.5), replace(cfg, accelerated=False)), cfg)
    accel = invert_euler(eval_contour(geometric(0.5), cfg), cfg)
    assert abs(exact - accel) < 1e-10


def test_accuracy_floor_against_gamma():
    # unit-coefficient series: small gamma leaves aliasing, large gamma
    # amplifies rounding; the floor sits near 1e-12..1e-10 at gamma = 6
    errors = {}
    for gamma in (3.0, 6.0, 9.0):
        cfg = ZInversionConfig(n=252, gamma=gamma)
        val = eval_contour(geometric(1.0), cfg)
        errors[gamma] = abs(invert_euler(val, cfg) - 1.0)
    assert errors[6.0] < 1e-9
    assert errors[6.0] < errors[3.0]
    assert errors[6.0] < errors[9.0]


def test_linearity():
    cfg = ZInversionConfig(n=40)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    g = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    a, b = 1.7, -0.4
    combo = invert_exact(a * f + b * g, cfg)
    split = a * invert_exact(f, cfg) + b * invert_exact(g, cfg)
    assert combo == pytest.approx(split, rel=1e-13, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=24),
)
def test_polynomial_coefficients_below_degree_vanish(n, coeffs):
    # a polynomial of degree < n has zero n-th coefficient; the inversion
    # must resolve that to the documented absolute accuracy
    coeffs = coeffs[:n]  # degree <= n - 1
    cfg = ZInversionConfig(n=n)
    pts = contour_points(cfg).points
    vals = sum(c * pts**k for k, c in enumerate(coeffs))
    assert abs(invert_exact(np.asarray(vals, dtype=complex), cfg)) < 1e-10


def test_polynomial_recovers_interior_coefficient():
    rng = np.random.default_rng(21)
    coeffs = rng.uniform(-1, 1, 12)
    target = 7
    cfg = ZInversionConfig(n=target)
    pts = contour_points(cfg).points
    vals = sum(c * pts**k for k, c in enumerate(coeffs))
    assert invert_exact(np.asarray(vals, dtype=complex), cfg) == pytest.approx(
        coeffs[target], abs=1e-10
    )


def test_euler_converged_at_defaults():
    # adding terms beyond the defaults must not move the result: the
    # acceleration has converged (the pricing-transform variant of the
    # +-4 stability check lives in the pricer tests)
    base_cfg = ZInversionConfig(n=252)
    base = invert_euler(eval_contour(geometric(0.99), base_cfg), base_cfg)
    for dn, dm in ((4, 0), (0, 4), (4, 4)):
        cfg = ZInversionConfig(n=252, n_e=12 + dn, m_e=20 + dm)
        val = invert_euler(eval_contour(geometric(0.99), cfg), cfg)
        assert abs(val - base) < 1e-9


def test_length_validation():
    cfg = ZInversionConfig(n=10)
    with pytest.raises(ValueError):
        invert_exact(np.ones(5), cfg)
    with pytest.raises(ValueError):
        invert_euler(np.ones(5), cfg)
    with pytest.raises(ValueError):
        invert_euler(np.ones(33), ZInversionConfig(n=1))


def test_dispatch():
    cfg = ZInversionConfig(n=252)
    v_e = invert(eval_contour(geometric(0.5), cfg), cfg)
    assert abs(v_e - 0.5**252) < 1e-8
    cfg_small = ZInversionConfig(n=10)
    v_x = invert(eval_contour(geometric(0.5), cfg_small), cfg_small)
    assert v_x == pytest.approx(0.5**10, abs=1e-10)
