import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier.grid import build_grid, forward_dft, inverse_at_zero, inverse_dft


def test_basic_lattice_relations():
    g = build_grid(8, 4.0)
    assert g.dx == pytest.approx(1.0)
    assert g.dxi == pytest.approx(math.pi / 4.0)
    assert g.xi_max == pytest.approx(math.pi)
    assert g.dx * g.dxi == pytest.approx(2.0 * math.pi / g.M)
    assert g.dxi * g.x_max == pytest.approx(math.pi)


def test_index_ranges():
    g = build_grid(1024, 2.0)
    assert g.x[0] == pytest.approx(-512 * g.dx)
    assert g.x[-1] == pytest.approx(511 * g.dx)
    assert g.xi[0] == pytest.approx(-512 * g.dxi)
    assert g.eta[0] == -1.0
    assert g.eta[-1] == pytest.approx(1.0 - 2.0 / g.M)


@pytest.mark.parametrize(
    "M,x_max", [(7, 1.0), (4, 1.0), (16, 0.0), (16, -2.0), (1024, math.inf), (1024, 1e308)]
)
def test_invalid_grid_rejected(M, x_max):
    with pytest.raises(ValueError):
        build_grid(M, x_max)


def test_sample_length_checked():
    g = build_grid(16, 1.0)
    for transform in (forward_dft, inverse_dft, inverse_at_zero):
        with pytest.raises(ValueError):
            transform(np.ones(15), g)


def test_delta_transforms_to_one():
    g = build_grid(64, 2.0)
    vals = np.zeros(64, dtype=complex)
    vals[32] = 1.0 / g.dx  # discrete delta at x = 0
    spec = forward_dft(vals, g)
    assert np.max(np.abs(spec - 1.0)) < 1e-12


def test_gaussian_forward_matches_closed_form():
    sigma, mu = 0.2, 0.03
    g = build_grid(4096, 8.0)
    dens = np.exp(-((g.x - mu) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    spec = forward_dft(dens.astype(complex), g)
    exact = np.exp(-(sigma**2) * g.xi**2 / 2 + 1j * mu * g.xi)
    assert np.max(np.abs(spec - exact)) < 1e-10


def test_flat_spectrum_is_delta():
    g = build_grid(256, 3.0)
    dens = inverse_dft(np.ones(256, dtype=complex), g)
    peak = dens[128]
    assert peak.real == pytest.approx(1.0 / g.dx, rel=1e-12)
    assert abs(dens[0]) < 1e-10 / g.dx


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_identity(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(128, 2.5)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    back = inverse_dft(forward_dft(f, g), g)
    assert np.max(np.abs(back - f)) < 1e-13 * max(1.0, np.max(np.abs(f)))
    spec = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    back2 = forward_dft(inverse_dft(spec, g), g)
    assert np.max(np.abs(back2 - spec)) < 1e-13 * max(1.0, np.max(np.abs(spec)))


def test_parseval():
    g = build_grid(2048, 6.0)
    f = np.exp(-g.x**2) * (1.0 + 0.5 * np.cos(3 * g.x))
    spec = forward_dft(f.astype(complex), g)
    lhs = g.dx * np.sum(np.abs(f) ** 2)
    rhs = g.dxi / (2 * math.pi) * np.sum(np.abs(spec) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_inverse_at_zero():
    g = build_grid(512, 4.0)
    flat = np.ones(512, dtype=complex)
    assert inverse_at_zero(flat, g) == pytest.approx(512 * g.dxi / (2 * math.pi))
    rng = np.random.default_rng(3)
    spec = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    direct = inverse_dft(spec, g)[256]
    assert inverse_at_zero(spec, g) == pytest.approx(direct, abs=1e-14 * np.max(np.abs(spec)))


def test_inverse_at_zero_of_a_stack_sums_each_row():
    g = build_grid(512, 4.0)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 512)) + 1j * rng.standard_normal((3, 512))
    values = inverse_at_zero(stack, g)
    assert values.shape == (3,)
    assert [complex(v) for v in values] == [inverse_at_zero(row, g) for row in stack]
    with pytest.raises(ValueError):
        inverse_at_zero(stack[:, 1:], g)


def test_inverse_at_zero_gaussian_density():
    sigma = 0.2
    g = build_grid(4096, 8.0)
    spec = np.exp(-(sigma**2) * g.xi**2 / 2).astype(complex)
    assert inverse_at_zero(spec, g).real == pytest.approx(
        1.0 / (sigma * math.sqrt(2 * math.pi)), abs=1e-10
    )


def test_pulse_recovery_gibbs_behaviour():
    # spectrum sin(xi/2)/(xi/2) belongs to the unit pulse on [-1/2, 1/2];
    # the recovered jump node sits at the one-sided mean and the interior
    # error decays like 1/M
    from levybarrier.cli import pulse_recovery

    interior = {}
    for M in (256, 512, 1024):
        res = pulse_recovery(M)
        assert abs(res["jump_value"] - 0.5) < 1e-3 + 2.0 / M
        interior[M] = res["interior_error"]
    assert 1.6 < interior[256] / interior[512] < 2.4
    assert 1.6 < interior[512] / interior[1024] < 2.4
