import math
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import levybarrier

from levybarrier import (
    ExponentialFilter,
    LevyModel,
    Method,
    OptionContract,
    OracleConfig,
    PlanckTaper,
    build_grid,
    default_grid,
    price,
    quad_price,
)
from levybarrier import pricers, ztransform
from levybarrier.filters import DEFAULT_TAPER, filter_profile
from levybarrier.hilbert import hilbert_kernel
from levybarrier.cases import (
    NIG_252_CONVERGED, SHAPES, TABLE_PRICES, double_barrier, down_and_out, european, up_and_out,
)
from levybarrier.oracle import black_scholes_price
from levybarrier.pricers import reference_price
from levybarrier.wiener_hopf import BranchFailureError

EXP = ExponentialFilter()

# reference prices for the benchmark double-barrier call, reproduced by
# every pricer here and cross-checked against the quadrature oracle
KOU_DOUBLE = {N: TABLE_PRICES["kou"][N] for N in (4, 52, 104, 252)}
NIG_DOUBLE = {N: TABLE_PRICES["nig"][N] for N in (4, 52)}


def test_fl_european_limit_matches_quadrature(kou):
    c = european(N=1)
    g = default_grid(c, kou, 2**14)
    res = price(c, kou, "fl", g)
    ref = quad_price(c, kou, OracleConfig(quad_points=2**15))
    assert res.price == pytest.approx(ref, abs=1e-8)


def test_fl_european_limit_gaussian_black_scholes(gaussian):
    c = european(N=1)
    g = default_grid(c, gaussian, 2**14)
    res = price(c, gaussian, "fl", g)
    assert res.price == pytest.approx(black_scholes_price(c, 0.2), abs=1e-8)


def test_fl_reproduces_double_barrier_references(kou, nig):
    for N, target in KOU_DOUBLE.items():
        c = double_barrier(N)
        assert price(c, kou, "fl", default_grid(c, kou, 2**14)).price == pytest.approx(
            target, abs=2e-10
        )
    for N, target in NIG_DOUBLE.items():
        c = double_barrier(N)
        assert price(c, nig, "fl", default_grid(c, nig, 2**14)).price == pytest.approx(
            target, abs=2e-10
        )


def test_fgm_double_matches_references_at_m1024(kou, nig):
    c4 = double_barrier(4)
    res = price(c4, kou, "fgm-f", default_grid(c4, kou, 1024), EXP)
    assert abs(res.price - KOU_DOUBLE[4]) < 1e-11
    c52 = double_barrier(52)
    res52 = price(c52, nig, "fgm-f", default_grid(c52, nig, 1024), EXP)
    assert abs(res52.price - NIG_DOUBLE[52]) < 1e-9


def test_fgm_nig_252_matches_converged_value(nig):
    # the N=252 table price is 3.1e-7 high; the converged value pins fgm-f
    # far tighter than the criterion-2 tolerance on the table price
    c = double_barrier(252)
    res = price(c, nig, "fgm-f", default_grid(c, nig, 1024), EXP)
    assert abs(res.price - NIG_252_CONVERGED) < 5e-8


def test_fgm_single_filtered_matches_unfiltered_for_fast_decay(kou):
    # exponentially decaying characteristic functions never needed the
    # taper; both variants agree within the method's own error envelope
    c = down_and_out(52)
    g = default_grid(c, kou, 1024)
    pu = price(c, kou, "fgm", g).price
    pf = price(c, kou, "fgm-f", g, EXP).price
    assert abs(pu - pf) < 1e-8


def test_fgm_single_vanilla_limit(kou):
    # a lower barrier far below the payoff region prices the plain call
    c = down_and_out(52, L=0.2)
    res = price(c, kou, "fgm", default_grid(c, kou, 2**12))
    ref = quad_price(european(N=52), kou, OracleConfig(quad_points=2**15))
    assert res.price == pytest.approx(ref, abs=1e-6)
    # the direct single-barrier solve has no fixed point to report
    assert res.avg_iterations is None and not res.max_iter_hit


def test_fgm_double_degenerate_band_limit(kou):
    # pushing the upper barrier far above the payoff recovers the
    # lower-barrier price
    xm = 2.23
    cd = double_barrier(52, U=5.0)
    pd = price(cd, kou, "fgm-f", build_grid(2**12, xm), EXP).price
    ps = price(down_and_out(52), kou, "fgm-f", build_grid(2**12, xm), EXP).price
    assert pd == pytest.approx(ps, abs=1e-6)


def test_fgm_single_vg_agrees_with_backward_induction(vg):
    c = down_and_out(252, L=0.85)
    ref = reference_price(c, vg)
    res = price(c, vg, "fgm-f", default_grid(c, vg, 2**13), EXP)
    assert res.price == pytest.approx(ref, abs=1e-5)


def test_monotonicity_across_barrier_geometries(kou):
    N = 52
    g_dbl = default_grid(double_barrier(N), kou, 2**12)
    g_sng = default_grid(down_and_out(N), kou, 2**12)
    g_van = default_grid(european(N), kou, 2**12)
    dbl = price(double_barrier(N), kou, "fl", g_dbl).price
    sng = price(down_and_out(N), kou, "fl", g_sng).price
    van = price(european(N), kou, "fl", g_van).price
    assert dbl <= sng + 1e-9
    assert sng <= van + 1e-9


def test_prices_are_numerically_real(kou, nig):
    c = double_barrier(52)
    for model in (kou, nig):
        res = price(c, model, "fgm-f", default_grid(c, model, 1024), EXP)
        assert res.imag_residual < 1e-10 * abs(res.price)
        res_fl = price(c, model, "fl", default_grid(c, model, 2**12))
        assert res_fl.imag_residual < 1e-10 * abs(res_fl.price)


def test_fixed_point_iteration_counts(kou, nig):
    for model in (kou, nig):
        c = double_barrier(52)
        res = price(c, model, "fgm-f", default_grid(c, model, 1024), EXP)
        assert res.avg_iterations is not None and res.avg_iterations <= 3.0
        assert not res.max_iter_hit


def test_euler_parameters_sit_on_stability_plateau(kou, monkeypatch):
    # perturbing the acceleration window by +-4 moves the price by less
    # than the documented 1e-9
    c = double_barrier(252)
    g = default_grid(c, kou, 1024)
    prices = {}
    for dn, dm in ((0, 0), (-4, 0), (4, 0), (0, -4), (0, 4), (-4, -4), (4, 4)):
        monkeypatch.setattr(ztransform, "EULER_NE", 12 + dn)
        monkeypatch.setattr(ztransform, "EULER_ME", 20 + dm)
        prices[(dn, dm)] = price(c, kou, "fgm-f", g, EXP).price
    base = prices[(0, 0)]
    assert max(abs(v - base) for v in prices.values()) < 1e-9


# Two contracts whose price overflows to nan.  A jump rate of 1e6 sets
# the martingale drift to 4.6e4, so Psi overflows on every grid; a rate of
# 700 with sigma = 2 on a half-range of 1e3 overflows the value transform
# over 52 dates.
JUMPY = LevyModel.kou(sigma=0.1, lam=1e6, p=0.3, eta1=40.0, eta2=12.0, r=0.05, q_div=0.02)
STEEP = LevyModel.kou(sigma=2.0, lam=3.0, p=0.3, eta1=40.0, eta2=12.0, r=700.0, q_div=0.02)
NON_FINITE_CASES = {
    **{
        f"jumpy-{method}-{M}": (JUMPY, down_and_out(1, L=0.9), method, M, None)
        for method in ("fl", "fl-f")
        for M in (16, 1024)
    },
    "steep-fl-256": (STEEP, down_and_out(52, L=0.9, r=700.0), "fl", 256, 1e3),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_price_raises(case):
    model, contract, method, M, x_max = NON_FINITE_CASES[case]
    with pytest.raises(FloatingPointError, match=r"^non-finite price nan "):
        price(contract, model, method, default_grid(contract, model, M, x_max))


def test_geometry_validation(kou):
    with pytest.raises(ValueError):
        price(european(4), kou, "fgm", default_grid(european(4), kou, 256))
    with pytest.raises(ValueError):
        price(down_and_out(2), kou, "fgm", default_grid(down_and_out(2), kou, 256))
    with pytest.raises(ValueError):
        price(up_and_out(4), kou, "fgm", default_grid(up_and_out(4), kou, 256))


# barrier geometry name -> contract builder, with the barrierless call
TILT_SHAPES = {**SHAPES, "none": european}


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("shape", sorted(TILT_SHAPES))
@pytest.mark.parametrize("model_name", ["kou", "nig", "vg", "gaussian"])
def test_payoff_tilt_damps_only_calls_open_above(model_name, shape, kind, all_models):
    contract = TILT_SHAPES[shape](52, kind=kind)
    expected = -2.0 if kind == "call" and shape in ("down", "none") else 0.0
    assert pricers.payoff_tilt(contract, all_models[model_name]) == expected


def test_payoff_tilt_clipped_to_half_the_strip():
    steep = LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=3.0, eta2=12.0, r=0.05, q_div=0.02)
    assert pricers.payoff_tilt(down_and_out(52), steep) == -1.5


@pytest.mark.parametrize("model_name", ["kou", "nig", "gaussian"])
def test_payoff_tilt_changes_no_fl_price(model_name, all_models, monkeypatch):
    model, c = all_models[model_name], down_and_out(52)
    g = default_grid(c, model, 2**12)
    base = price(c, model, "fl", g).price
    for tilt in (0.0, -1.0):
        monkeypatch.setattr(pricers, "CALL_TILT", tilt)
        assert price(c, model, "fl", g).price == pytest.approx(base, abs=1e-13)


def test_payoff_tilt_breaking_the_premise_is_rejected(gaussian):
    # E[e^{2 X_dt}] = 1.42 at sigma 3 and dt = 2/52, against 1/rho(50) = 1.32
    wide = LevyModel.gaussian(sigma=3.0, r=0.05, q_div=0.02)
    c = down_and_out(52, T=2.0)
    assert ztransform.rho(50) * wide.char_function(-2j, c.dt).real > 1.0
    for method in ("fgm", "fgm-f"):
        with pytest.raises(ValueError, match="payoff tilt alpha = -2"):
            price(c, wide, method, default_grid(c, wide, 256))
    # the same contract in the gaussian of the paper's cases keeps the premise
    assert price(c, gaussian, "fgm", default_grid(c, gaussian, 256)).price > 0


@pytest.mark.parametrize("N", [52, 504])
@pytest.mark.parametrize("model_name", ["kou", "nig"])
def test_down_and_out_matches_the_wide_reference(model_name, N, all_models):
    # the undamped open-top call put nig N=504 fgm-f 2.7e-6 and kou N=52
    # fgm 6.7e-10 off this reference
    model, c = all_models[model_name], down_and_out(N)
    ref = reference_price(c, model, 1.5 * pricers.default_x_max(c, model))
    g = default_grid(c, model, 2**12)
    assert price(c, model, "fgm-f", g).price == pytest.approx(ref, abs=1e-7)
    if model_name == "kou" and N == 52:
        assert price(c, model, "fgm", g).price == pytest.approx(ref, abs=1e-10)


# default_x_max as float.hex per (model, geometry): one value for every N
# in DEFAULT_X_MAX_N, or one per N where the pure-jump cap binds (nig and vg
# double barriers); a diffusion law (gaussian, kou) never takes the cap
DEFAULT_X_MAX_N = (4, 52, 504)
DEFAULT_X_MAX = {
    ("kou", "double"): "0x1.03cd046e91b0cp+1",
    ("kou", "down"): "0x1.50e15dfb8eb85p+1",
    ("kou", "up"): "0x1.4ba7b645d8b4ap+1",
    ("nig", "double"): {
        4: "0x1.025010dd0cd88p+1",
        52: "0x1.462b9248834f0p+0",
        504: "0x1.1f16afe1370c8p-1",
    },
    ("nig", "down"): "0x1.4ee56e8edd97ep+1",
    ("nig", "up"): "0x1.49abc6d927943p+1",
    ("vg", "double"): {
        4: "0x1.035151eaa569cp+1",
        52: "0x1.4758d31d6e17dp+0",
        504: "0x1.1fd8378aad75ep-1",
    },
    ("vg", "down"): "0x1.503c6ff653aefp+1",
    ("vg", "up"): "0x1.4b02c8409dab4p+1",
    ("gaussian", "double"): "0x1.02f65e2e01008p+1",
    ("gaussian", "down"): "0x1.4fc32afacdcd6p+1",
    ("gaussian", "up"): "0x1.4a89834517c9bp+1",
}


@pytest.mark.parametrize("model_name, shape", sorted(DEFAULT_X_MAX))
def test_default_x_max_is_pinned(all_models, model_name, shape):
    want = DEFAULT_X_MAX[model_name, shape]
    for N in DEFAULT_X_MAX_N:
        got = pricers.default_x_max(SHAPES[shape](N), all_models[model_name]).hex()
        assert got == (want if isinstance(want, str) else want[N]), N


@pytest.mark.parametrize("method", ["fgm", "fgm-f", "fl", "fl-f"])
def test_band_clipped_past_itself_rejected(kou, method):
    # x_max = 0.03 clips u = log 1.2 to 0.03, below l = log 1.05 = 0.049
    c = OptionContract(S0=1.0, K=1.0, T=1.0, N=52, r=0.05, q_div=0.02, L=1.05, U=1.2)
    g = build_grid(1024, 0.03)
    with pytest.raises(ValueError, match="lower barrier .* outside the grid"):
        price(c, kou, method, g)
    # a lone barrier outside the grid knocks every node out: l = log 1.05
    # >= x_max, and u = log 0.95 <= -x_max for an up-and-out put
    lone = [(replace(c, U=math.inf), "lower barrier")]
    if Method(method).recursive:  # the z-domain pricers take no up-and-out
        lone.append((replace(c, L=0.0, U=0.95, kind="put"), "upper barrier"))
    for contract, name in lone:
        with pytest.raises(ValueError, match=f"{name} .* outside the grid"):
            price(contract, kou, method, g)
    # a grid inside the strike prices 0; one inside the near barrier
    # l = log 0.7 = -0.357 would move it onto the edge -0.2
    near = [
        (replace(c, K=1.1), build_grid(1024, 0.05), "log-strike k"),
        (replace(c, L=0.7, U=math.inf), build_grid(2048, 0.2), "lower barrier"),
    ]
    for contract, grid, name in near:
        with pytest.raises(ValueError, match=f"{name} .* outside the grid, x_max = "):
            price(contract, kou, method, grid)


def test_method_filter_dispatch(kou):
    c = double_barrier(4)
    g = default_grid(c, kou, 512)
    with pytest.raises(ValueError):
        price(c, kou, Method.FGM, g, EXP)
    res = price(c, kou, Method.FGM_F, g, EXP)
    assert res.method is Method.FGM_F
    res_fl = price(c, kou, Method.FL, g)
    assert res_fl.method is Method.FL
    # the method alone says whether a call is filtered
    assert res_fl.filter is None
    assert price(c, kou, Method.FGM, g).filter is None
    # filtered method without an explicit filter falls back to defaults
    res_def = price(c, kou, Method.FGM_F, g)
    assert res_def.filter == DEFAULT_TAPER


def test_zero_tolerance_runs_every_sweep(kou, monkeypatch):
    monkeypatch.setattr(pricers, "SWEEP_TOL", 0.0)
    monkeypatch.setattr(pricers, "MAX_SWEEPS", 3)
    c = double_barrier(52)
    g = default_grid(c, kou, 512)
    res = price(c, kou, "fgm-f", g, EXP)
    assert res.avg_iterations == 3.0
    assert res.max_iter_hit


FL_VARIANTS = [("fl", None), ("fl-f", EXP), ("fl-f", PlanckTaper())]


def _abs_psi(contract, model, grid):
    alpha = pricers.payoff_tilt(contract, model)
    return np.abs(model.char_function(grid.xi + 1j * alpha, contract.dt))


def _outside(samples, width):
    """The samples outside the central ``width`` ones."""
    M = len(samples)
    return np.r_[samples[: (M - width) // 2], samples[(M + width) // 2 :]]


@pytest.mark.parametrize("M", [2**12, 2**14])
@pytest.mark.parametrize("N", [4, 52, 504])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("model_name", ["kou", "nig", "vg"])
def test_live_band_changes_no_price(model_name, shape, N, M, all_models, monkeypatch):
    model, contract = all_models[model_name], SHAPES[shape](N)
    grid = default_grid(contract, model, M)
    psi_abs = _abs_psi(contract, model, grid)
    m = pricers._live_band(psi_abs, N)
    # the width covers every sample above the threshold, and the next
    # narrower one would not
    threshold = 1e-14 / (N * M) * psi_abs.max()
    assert np.all(_outside(psi_abs, m) <= threshold)
    assert m & (m - 1) == 0 and m >= pricers.MIN_LIVE_BAND
    if m > pricers.MIN_LIVE_BAND:
        assert np.any(_outside(psi_abs, m // 2) > threshold)
    if model_name == "vg":
        assert m == M  # polynomial decay keeps the whole band
    if m == M:
        return  # the full-width path itself
    if N * M > 52 * 2**14:
        return  # N=504 at M=2^12 checks the same slicing in a tenth of the time
    live = [price(contract, model, method, grid, filt) for method, filt in FL_VARIANTS]
    monkeypatch.setattr(pricers, "_live_band", lambda psi_abs, N: len(psi_abs))
    for res, (method, filt) in zip(live, FL_VARIANTS):
        assert res.grid_m == M
        full = price(contract, model, method, grid, filt).price
        assert res.price == pytest.approx(full, abs=1e-13)


def test_live_band_of_the_kou_reference(kou):
    c = double_barrier(52)
    grid = default_grid(c, kou, 2**16)
    assert pricers._live_band(_abs_psi(c, kou, grid), 52) <= 2**11


# -- contour points on the thread pool --------------------------------------


def _serial_and_pooled(monkeypatch, contract, model, method, M):
    """The same call priced with one CPU and with two, each with the names
    of the threads its contour points ran on."""
    factorize, names = pricers.factorize_values, set()

    def spy(values, kernel):
        names.add(threading.current_thread().name)
        return factorize(values, kernel)

    monkeypatch.setattr(pricers, "factorize_values", spy)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(pricers, "_cpu_count", lambda: cpus)
        names.clear()
        res = price(contract, model, method, default_grid(contract, model, M))
        runs.append((res, set(names)))
    return runs


def _assert_same_result(serial, pooled):
    for field in ("price", "avg_iterations", "max_iter_hit", "imag_residual"):
        assert getattr(pooled, field) == getattr(serial, field), field


@pytest.mark.parametrize("method", ["fgm", "fgm-f"])
@pytest.mark.parametrize("N", [4, 52, 504])
@pytest.mark.parametrize("shape", ["double", "down"])
@pytest.mark.parametrize("model_name", ["kou", "nig", "vg"])
def test_pooled_contour_prices_bit_identical(model_name, shape, N, method, all_models, monkeypatch):
    monkeypatch.setattr(pricers, "PARALLEL_MIN_M", 1024)
    model, contract = all_models[model_name], SHAPES[shape](N)
    (serial, on_serial), (pooled, on_pool) = _serial_and_pooled(
        monkeypatch, contract, model, method, 1024
    )
    assert on_serial == {threading.main_thread().name}
    assert threading.main_thread().name not in on_pool
    _assert_same_result(serial, pooled)


@pytest.mark.parametrize("model_name, shape, N, method",
                         [("kou", "double", 52, "fgm-f"), ("nig", "down", 504, "fgm")])
def test_pooled_contour_at_the_threshold(model_name, shape, N, method, all_models, monkeypatch):
    model, contract = all_models[model_name], SHAPES[shape](N)
    (serial, _), (pooled, on_pool) = _serial_and_pooled(
        monkeypatch, contract, model, method, pricers.PARALLEL_MIN_M
    )
    assert threading.main_thread().name not in on_pool
    _assert_same_result(serial, pooled)


def test_pooled_contour_raises_the_first_failing_point(kou, monkeypatch):
    c = double_barrier(52)
    n, factorize = c.N - 2, pricers.factorize_values

    def failing(values, kernel):
        # values = 1 - q Psi, and Psi is real and positive at xi = 0, so the
        # phase there is that of q_j = rho e^{i pi j / n}
        j = round(np.angle(1.0 - values[len(values) // 2]) * n / np.pi)
        if j in (5, 20):
            raise BranchFailureError(f"contour point {j}")
        return factorize(values, kernel)

    monkeypatch.setattr(pricers, "factorize_values", failing)
    monkeypatch.setattr(pricers, "PARALLEL_MIN_M", 1024)
    for cpus in (1, 2):
        monkeypatch.setattr(pricers, "_cpu_count", lambda: cpus)
        with pytest.raises(BranchFailureError, match=r"^contour point 5$"):
            price(c, kou, "fgm-f", default_grid(c, kou, 1024))


def test_solver_closures_hold_only_read_only_arrays(kou):
    # solve runs on two threads at once on large grids, so no array it
    # reads may be writeable, inputs handed to the solver included
    c = double_barrier(52)
    g = default_grid(c, kou, 256)
    kernel = hilbert_kernel(g)
    psi = kou.char_function(g.xi, c.dt)
    sigma = filter_profile(EXP, g)
    l, u = c.clipped_barriers(g.x_max)
    solvers = [
        pricers._down_out_solver(psi.copy(), psi.copy(), kernel, l, None),
        pricers._down_out_solver(psi.copy(), psi.copy(), kernel, l, sigma.copy()),
        pricers._band_solver(psi.copy(), psi.copy(), kernel, l, u, None, False),
        pricers._band_solver(psi.copy(), psi.copy(), kernel, l, u, sigma.copy(), True),
    ]
    for solve in solvers:
        arrays = [cell.cell_contents for cell in solve.__closure__
                  if isinstance(cell.cell_contents, np.ndarray)]
        assert arrays
        assert not any(array.flags.writeable for array in arrays)


def _price_in_child(conn, contract, model, method, grid):
    conn.send(price(contract, model, method, grid).price)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_forked_child_prices_on_its_own_pool(kou, monkeypatch):
    monkeypatch.setattr(pricers, "_cpu_count", lambda: 2)
    c = double_barrier(52)
    g = default_grid(c, kou, 2**12)
    expected = price(c, kou, "fgm-f", g).price
    assert pricers._pool is not None  # the child inherits a pool without workers
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_price_in_child, args=(send, c, kou, "fgm-f", g))
    child.start()
    arrived = recv.poll(60)
    child.join(10)
    if child.is_alive():
        child.kill()
        child.join()
    assert arrived, "forked child hung on the inherited pool"
    assert recv.recv() == expected
    assert child.exitcode == 0


def test_contour_pool_threads():
    # a fresh process: no earlier test has started the pool
    code = """
import threading
from levybarrier import default_grid, pricers, price
from levybarrier.cases import MODELS, double_barrier
c, kou = double_barrier(52), MODELS["kou"]
counts = [threading.active_count()]
price(c, kou, "fgm", default_grid(c, kou, 1024))
counts.append(threading.active_count())
cpu_count, pricers._cpu_count, pricers._pool = pricers._cpu_count, lambda: 1, None
price(c, kou, "fgm", default_grid(c, kou, 2**12))
counts.append(threading.active_count())
pricers._cpu_count = cpu_count
price(c, kou, "fgm", default_grid(c, kou, 2**12))
counts.append(threading.active_count())
print(*counts, cpu_count())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(levybarrier.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    after_import, small, one_cpu, pooled, cpus = map(int, out.stdout.split())
    assert (after_import, small, one_cpu) == (1, 1, 1)
    assert pooled <= 1 + pricers.MAX_CONTOUR_WORKERS
    if cpus >= 2:
        assert pooled > 1
