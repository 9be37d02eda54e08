import math

import numpy as np
import pytest

from levybarrier import (
    FilterSpec,
    FixedPointSettings,
    Method,
    OptionContract,
    OracleConfig,
    ZInversionConfig,
    build_grid,
    default_grid,
    price,
    price_fgm,
    price_fl,
    quad_price,
)
from levybarrier.cases import (
    NIG_252_CONVERGED, TABLE_PRICES, double_barrier, down_and_out, european, up_and_out,
)
from levybarrier.oracle import black_scholes_price
from levybarrier.pricers import REFERENCE_M, reference_price

EXP = FilterSpec.exponential()

# reference prices for the benchmark double-barrier call, reproduced by
# every pricer here and cross-checked against the quadrature oracle
KOU_DOUBLE = {N: TABLE_PRICES["kou"][N] for N in (4, 52, 104, 252)}
NIG_DOUBLE = {N: TABLE_PRICES["nig"][N] for N in (4, 52)}


def test_fl_european_limit_matches_quadrature(kou):
    c = european(N=1)
    g = default_grid(c, kou, 2**14)
    res = price_fl(c, kou, g)
    ref = quad_price(c, kou, OracleConfig(quad_points=2**15))
    assert res.price == pytest.approx(ref, abs=1e-8)


def test_fl_european_limit_gaussian_black_scholes(gaussian):
    c = european(N=1)
    g = default_grid(c, gaussian, 2**14)
    res = price_fl(c, gaussian, g)
    assert res.price == pytest.approx(black_scholes_price(c, 0.2), abs=1e-8)


def test_fl_reproduces_double_barrier_references(kou, nig):
    for N, target in KOU_DOUBLE.items():
        c = double_barrier(N)
        assert price_fl(c, kou, default_grid(c, kou, 2**14)).price == pytest.approx(
            target, abs=2e-10
        )
    for N, target in NIG_DOUBLE.items():
        c = double_barrier(N)
        assert price_fl(c, nig, default_grid(c, nig, 2**14)).price == pytest.approx(
            target, abs=2e-10
        )


def test_fgm_double_matches_references_at_m1024(kou, nig):
    c4 = double_barrier(4)
    res = price_fgm(c4, kou, default_grid(c4, kou, 1024), EXP)
    assert abs(res.price - KOU_DOUBLE[4]) < 1e-11
    c52 = double_barrier(52)
    res52 = price_fgm(c52, nig, default_grid(c52, nig, 1024), EXP)
    assert abs(res52.price - NIG_DOUBLE[52]) < 1e-9


def test_fgm_nig_252_matches_converged_value(nig):
    # the N=252 table price is 3.1e-7 high; the converged value pins fgm-f
    # far tighter than the criterion-2 tolerance on the table price
    c = double_barrier(252)
    res = price_fgm(c, nig, default_grid(c, nig, 1024), EXP)
    assert abs(res.price - NIG_252_CONVERGED) < 5e-8


def test_fgm_single_filtered_matches_unfiltered_for_fast_decay(kou):
    # exponentially decaying characteristic functions never needed the
    # taper; both variants agree within the method's own error envelope
    c = down_and_out(52)
    g = default_grid(c, kou, 1024)
    pu = price_fgm(c, kou, g).price
    pf = price_fgm(c, kou, g, EXP).price
    assert abs(pu - pf) < 1e-8


def test_fgm_single_vanilla_limit(kou):
    # a lower barrier far below the payoff region prices the plain call
    c = down_and_out(52, L=0.2)
    res = price_fgm(c, kou, default_grid(c, kou, 2**12))
    ref = quad_price(european(N=52), kou, OracleConfig(quad_points=2**15))
    assert res.price == pytest.approx(ref, abs=1e-6)
    # the direct single-barrier solve has no fixed point to report
    assert res.avg_iterations is None and not res.max_iter_hit


def test_fgm_double_degenerate_band_limit(kou):
    # pushing the upper barrier far above the payoff recovers the
    # lower-barrier price
    xm = 2.23
    cd = double_barrier(52, U=5.0)
    pd = price_fgm(cd, kou, build_grid(2**12, xm), EXP).price
    ps = price_fgm(down_and_out(52), kou, build_grid(2**12, xm), EXP).price
    assert pd == pytest.approx(ps, abs=1e-6)


def test_fgm_single_vg_agrees_with_backward_induction(vg):
    c = down_and_out(252, L=0.85)
    ref = reference_price(c, vg, default_grid(c, vg, REFERENCE_M))
    res = price_fgm(c, vg, default_grid(c, vg, 2**13), EXP)
    assert res.price == pytest.approx(ref, abs=1e-5)


def test_monotonicity_across_barrier_geometries(kou):
    N = 52
    g_dbl = default_grid(double_barrier(N), kou, 2**12)
    g_sng = default_grid(down_and_out(N), kou, 2**12)
    g_van = default_grid(european(N), kou, 2**12)
    dbl = price_fl(double_barrier(N), kou, g_dbl).price
    sng = price_fl(down_and_out(N), kou, g_sng).price
    van = price_fl(european(N), kou, g_van).price
    assert dbl <= sng + 1e-9
    assert sng <= van + 1e-9


def test_prices_are_numerically_real(kou, nig):
    c = double_barrier(52)
    for model in (kou, nig):
        res = price_fgm(c, model, default_grid(c, model, 1024), EXP)
        assert res.imag_residual < 1e-10 * abs(res.price)
        res_fl = price_fl(c, model, default_grid(c, model, 2**12))
        assert res_fl.imag_residual < 1e-10 * abs(res_fl.price)


def test_fixed_point_iteration_counts(kou, nig):
    for model in (kou, nig):
        c = double_barrier(52)
        res = price_fgm(c, model, default_grid(c, model, 1024), EXP)
        assert res.avg_iterations is not None and res.avg_iterations <= 3.0
        assert not res.max_iter_hit


def test_euler_parameters_sit_on_stability_plateau(kou):
    # perturbing the acceleration window by +-4 moves the price by less
    # than the documented 1e-9
    c = double_barrier(252)
    g = default_grid(c, kou, 1024)
    prices = {}
    for dn, dm in ((0, 0), (-4, 0), (4, 0), (0, -4), (0, 4), (-4, -4), (4, 4)):
        zcfg = ZInversionConfig(n=1, n_e=12 + dn, m_e=20 + dm)
        prices[(dn, dm)] = price_fgm(c, kou, g, EXP, zcfg=zcfg).price
    base = prices[(0, 0)]
    assert max(abs(v - base) for v in prices.values()) < 1e-9


def test_geometry_validation(kou):
    with pytest.raises(ValueError):
        price_fgm(european(4), kou, default_grid(european(4), kou, 256))
    with pytest.raises(ValueError):
        price_fgm(down_and_out(2), kou, default_grid(down_and_out(2), kou, 256))
    with pytest.raises(ValueError):
        price_fgm(up_and_out(4), kou, default_grid(up_and_out(4), kou, 256))


def test_method_filter_dispatch(kou):
    c = double_barrier(4)
    g = default_grid(c, kou, 512)
    with pytest.raises(ValueError):
        price(c, kou, Method.FGM_F, g, FilterSpec.none())
    with pytest.raises(ValueError):
        price(c, kou, Method.FGM, g, EXP)
    res = price(c, kou, Method.FGM_F, g, EXP)
    assert res.method is Method.FGM_F
    res_fl = price(c, kou, Method.FL, g)
    assert res_fl.method is Method.FL
    # filtered method without an explicit filter falls back to defaults
    res_def = price(c, kou, Method.FGM_F, g)
    assert res_def.filter.active


@pytest.mark.parametrize(
    "settings", [dict(tol=-1.0), dict(tol=math.nan), dict(max_iter=0), dict(max_iter=-3)]
)
def test_invalid_fixed_point_settings_rejected(settings):
    with pytest.raises(ValueError):
        FixedPointSettings(**settings)


def test_zero_tolerance_runs_every_sweep(kou):
    c = double_barrier(52)
    g = default_grid(c, kou, 512)
    res = price_fgm(c, kou, g, EXP, fp=FixedPointSettings(tol=0.0, max_iter=3))
    assert res.avg_iterations == 3.0
    assert res.max_iter_hit
