import math

import numpy as np
import pytest
from scipy.integrate import quad

from levybarrier import OptionContract, damped_payoff_fourier
from levybarrier.grid import build_grid, inverse_dft


def quad_transform(contract, grid, xi, alpha=0.0):
    """Direct quadrature of the damped payoff transform at one frequency."""
    b_lim, a_lim = sorted(contract.support(grid.x_max))

    def integrand_re(x):
        intrinsic = contract.theta * (contract.S0 * math.exp(x) - contract.K)
        return math.exp(alpha * x) * max(intrinsic, 0.0) * math.cos(xi * x)

    def integrand_im(x):
        intrinsic = contract.theta * (contract.S0 * math.exp(x) - contract.K)
        return math.exp(alpha * x) * max(intrinsic, 0.0) * math.sin(xi * x)

    re = quad(integrand_re, b_lim, a_lim, limit=400)[0]
    im = quad(integrand_im, b_lim, a_lim, limit=400)[0]
    return re + 1j * im


def test_contract_validation():
    with pytest.raises(ValueError):
        OptionContract(S0=-1.0, K=1.1, T=1.0, N=4)
    with pytest.raises(ValueError):
        OptionContract(S0=1.0, K=1.1, T=0.0, N=4)
    with pytest.raises(ValueError):
        OptionContract(S0=1.0, K=1.1, T=1.0, N=0)
    with pytest.raises(ValueError):
        OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=1.2, U=0.8)
    with pytest.raises(ValueError):
        OptionContract(S0=1.0, K=1.1, T=1.0, N=4, kind="straddle")


@pytest.mark.parametrize(
    "field, value, message",
    [
        *((f, v, f"{f} must be finite") for f in ("S0", "K", "T", "r", "q_div")
          for v in (math.nan, math.inf)),
        ("L", math.nan, "must not be NaN"),
        ("U", math.nan, "must not be NaN"),
    ],
)
def test_non_finite_contract_term_rejected_by_name(field, value, message):
    """A NaN spot used to fail only when a grid was sized for it."""
    terms = dict(S0=1.0, K=1.1, T=1.0, N=4, L=0.8, U=1.2)
    with pytest.raises(ValueError, match=message):
        OptionContract(**{**terms, field: value})


def test_derived_fields():
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
    assert c.log_strike == pytest.approx(math.log(1.1))
    assert c.log_lower == pytest.approx(math.log(0.85))
    assert c.log_upper == pytest.approx(math.log(1.15))
    assert c.dt == pytest.approx(0.25)
    assert c.theta == 1
    assert OptionContract(S0=1.0, K=1.1, T=1.0, N=4, kind="put").theta == -1


def test_empty_support_gives_zero_spectrum():
    g = build_grid(256, 2.0)
    c = OptionContract(S0=1.0, K=1.3, T=1.0, N=4, L=0.85, U=1.2)  # strike above band
    spec = damped_payoff_fourier(c, g, 0.0)
    assert np.all(spec == 0)
    p = OptionContract(S0=1.0, K=0.7, T=1.0, N=4, L=0.8, U=1.2, kind="put")
    assert np.all(damped_payoff_fourier(p, g, 0.0) == 0)


def test_zero_frequency_is_payoff_integral():
    g = build_grid(512, 2.0)
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
    spec = damped_payoff_fourier(c, g, 0.0)
    assert complex(spec[256]) == pytest.approx(quad_transform(c, g, 0.0), abs=1e-12)


@pytest.mark.parametrize("kind", ["call", "put"])
def test_transform_matches_quadrature(kind):
    g = build_grid(512, 2.0)
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15, kind=kind)
    spec = damped_payoff_fourier(c, g, 0.0)
    for k in (256, 300, 380, 150):
        assert complex(spec[k]) == pytest.approx(
            quad_transform(c, g, g.xi[k]), abs=1e-10
        )


def test_damped_variant_matches_quadrature():
    g = build_grid(512, 2.0)
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
    spec = damped_payoff_fourier(c, g, -2.0)
    for k in (256, 330):
        assert complex(spec[k]) == pytest.approx(
            quad_transform(c, g, g.xi[k], alpha=-2.0), abs=1e-10
        )
    # the tilt is the argument: alpha = 0 gives the undamped transform
    spec2 = damped_payoff_fourier(c, g, 0.0)
    for k in (256, 330):
        assert complex(spec2[k]) == pytest.approx(quad_transform(c, g, g.xi[k]), abs=1e-10)


def test_hermitian_symmetry():
    g = build_grid(512, 2.0)
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
    v = damped_payoff_fourier(c, g, 0.0)
    assert np.max(np.abs(v[1:] - np.conj(v[1:][::-1]))) < 1e-13


def test_singular_nodes_take_limits():
    g = build_grid(256, 2.0)  # xi = 0 on-grid
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
    v0 = damped_payoff_fourier(c, g, 0.0)
    assert np.all(np.isfinite(v0))
    vm1 = damped_payoff_fourier(c, g, -1.0)
    assert np.all(np.isfinite(vm1))
    assert complex(vm1[128]) == pytest.approx(quad_transform(c, g, 0.0, alpha=-1.0), abs=1e-12)


def test_inverse_transform_recovers_payoff_away_from_kinks():
    # the banded call jumps at the upper barrier, so recovery carries
    # 1/M ringing; at a fixed standoff it passes 1e-4 by M = 2^12 and
    # halves per doubling
    def recovery_error(M):
        g = build_grid(M, 2.0)
        c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
        dens = inverse_dft(damped_payoff_fourier(c, g, 0.0), g).real
        x = g.x
        payoff = np.where(
            (x >= c.log_lower) & (x <= c.log_upper),
            np.maximum(np.exp(x) - 1.1, 0.0),
            0.0,
        )
        mask = np.ones_like(x, dtype=bool)
        for kink in (c.log_strike, c.log_lower, c.log_upper):
            mask &= np.abs(x - kink) > 0.05
        return np.max(np.abs(dens - payoff)[mask])

    e12 = recovery_error(2**12)
    assert e12 < 1e-4
    assert recovery_error(2**13) < 0.7 * e12


def test_homogeneous_of_degree_one_in_spot():
    g = build_grid(256, 2.0)
    base = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85, U=1.15)
    scaled = OptionContract(S0=100.0, K=110.0, T=1.0, N=4, L=85.0, U=115.0)
    vb = damped_payoff_fourier(base, g, 0.0)
    vs = damped_payoff_fourier(scaled, g, 0.0)
    assert np.max(np.abs(vs - 100.0 * vb)) < 1e-12 * np.max(np.abs(vs))


def test_infinite_upper_barrier_truncates_at_grid_edge():
    g = build_grid(256, 1.5)
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=4, L=0.85)
    a, b = c.support(g.x_max)
    assert a == pytest.approx(1.5)
    assert b == pytest.approx(math.log(1.1))
