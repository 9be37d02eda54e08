import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier import ztransform
from levybarrier.ztransform import (
    contour_points,
    invert,
    invert_euler,
    invert_exact,
    rho,
    use_euler,
)


def geometric(a):
    return lambda q: 1.0 / (1.0 - a * q)


def eval_contour(fn, n):
    return fn(contour_points(n).points)


def test_config_invariants():
    assert rho(252) == pytest.approx(10.0 ** (-6.0 / 252.0))
    assert ztransform.GAMMA == 6.0
    assert ztransform.EULER_NE == 12 and ztransform.EULER_ME == 20
    with pytest.raises(ValueError):
        rho(0)
    with pytest.raises(ValueError):
        contour_points(0)


def test_contour_points():
    pts = contour_points(1).points
    assert len(pts) == 2
    assert pts[0] == pytest.approx(rho(1))
    assert pts[1] == pytest.approx(-rho(1))

    pts2 = contour_points(252).points
    assert len(pts2) == 33
    assert np.max(np.abs(np.abs(pts2) - rho(252))) < 1e-15


def test_euler_fallback_threshold(monkeypatch):
    assert not use_euler(32)
    assert use_euler(33)
    # a window as wide as n saves nothing
    monkeypatch.setattr(ztransform, "EULER_NE", 60)
    monkeypatch.setattr(ztransform, "EULER_ME", 40)
    assert not use_euler(100)


def test_monomial_picks_own_coefficient():
    for n, m in ((6, 6), (8, 8)):
        vals = contour_points(n).points ** m
        assert invert_exact(vals, n) == pytest.approx(1.0, abs=1e-10)
    vals = contour_points(6).points ** 4
    assert abs(invert_exact(vals, 6)) < 10.0 ** (-2 * ztransform.GAMMA) * 10


def test_constant_has_no_high_coefficients():
    for n in (5, 20):
        vals = np.full(n + 1, 3.7, dtype=complex)
        assert abs(invert_exact(vals, n)) <= 3.7 * 10.0 ** (-2 * ztransform.GAMMA)


def test_geometric_exact_n20():
    # double precision floor: absolute accuracy on the coefficient scale
    val = eval_contour(geometric(0.5), 20)
    assert abs(invert_exact(val, 20) - 0.5**20) < 1e-10


def test_geometric_euler_n252():
    val = eval_contour(geometric(0.5), 252)
    assert abs(invert_euler(val, 252) - 0.5**252) < 1e-8


def test_euler_agrees_with_exact_n52():
    n = 52
    exact_pts = rho(n) * np.exp(1j * np.pi * np.arange(n + 1) / n)
    exact = invert_exact(geometric(0.5)(exact_pts), n)
    accel = invert_euler(eval_contour(geometric(0.5), n), n)
    assert abs(exact - accel) < 1e-10


def test_accuracy_floor_against_gamma(monkeypatch):
    # unit-coefficient series: small gamma leaves aliasing, large gamma
    # amplifies rounding; the floor sits near 1e-12..1e-10 at gamma = 6
    errors = {}
    for gamma in (3.0, 6.0, 9.0):
        monkeypatch.setattr(ztransform, "GAMMA", gamma)
        val = eval_contour(geometric(1.0), 252)
        errors[gamma] = abs(invert_euler(val, 252) - 1.0)
    assert errors[6.0] < 1e-9
    assert errors[6.0] < errors[3.0]
    assert errors[6.0] < errors[9.0]


def test_linearity():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    g = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    a, b = 1.7, -0.4
    combo = invert_exact(a * f + b * g, 40)
    split = a * invert_exact(f, 40) + b * invert_exact(g, 40)
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
    pts = contour_points(n).points
    vals = sum(c * pts**k for k, c in enumerate(coeffs))
    assert abs(invert_exact(np.asarray(vals, dtype=complex), n)) < 1e-10


def test_polynomial_recovers_interior_coefficient():
    rng = np.random.default_rng(21)
    coeffs = rng.uniform(-1, 1, 12)
    target = 7
    pts = contour_points(target).points
    vals = sum(c * pts**k for k, c in enumerate(coeffs))
    assert invert_exact(np.asarray(vals, dtype=complex), target) == pytest.approx(
        coeffs[target], abs=1e-10
    )


def test_euler_converged_at_defaults(monkeypatch):
    # adding terms beyond the defaults must not move the result: the
    # acceleration has converged (the pricing-transform variant of the
    # +-4 stability check lives in the pricer tests)
    base = invert_euler(eval_contour(geometric(0.99), 252), 252)
    for dn, dm in ((4, 0), (0, 4), (4, 4)):
        monkeypatch.setattr(ztransform, "EULER_NE", 12 + dn)
        monkeypatch.setattr(ztransform, "EULER_ME", 20 + dm)
        val = invert_euler(eval_contour(geometric(0.99), 252), 252)
        assert abs(val - base) < 1e-9


def test_length_validation():
    with pytest.raises(ValueError):
        invert_exact(np.ones(5), 10)
    with pytest.raises(ValueError):
        invert_euler(np.ones(5), 10)
    with pytest.raises(ValueError):
        invert_euler(np.ones(33), 1)


def test_dispatch():
    v_e = invert(eval_contour(geometric(0.5), 252), 252)
    assert abs(v_e - 0.5**252) < 1e-8
    v_x = invert(eval_contour(geometric(0.5), 10), 10)
    assert v_x == pytest.approx(0.5**10, abs=1e-10)
