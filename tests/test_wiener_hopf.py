import numpy as np
import pytest

from levybarrier.grid import build_grid, inverse_dft
from levybarrier.hilbert import BarrierProjections, above_values, below_values, hilbert_kernel
from levybarrier.wiener_hopf import BranchFailureError, SingularInputError, factorize_values
from levybarrier.ztransform import rho


def contour(n=50, count=5):
    j = np.linspace(0, n, count).round().astype(int)
    return rho(n) * np.exp(1j * np.pi * j / n)


def test_unit_input_gives_unit_factors():
    g = build_grid(256, 2.0)
    plus, minus = factorize_values(np.ones(256, dtype=complex), hilbert_kernel(g))
    assert np.max(np.abs(plus - 1.0)) < 1e-15
    assert np.max(np.abs(minus - 1.0)) < 1e-15


def test_product_identity_all_models(all_models):
    g = build_grid(2**12, 1.5)
    kern = hilbert_kernel(g)
    dt = 1.0 / 52.0
    for model in all_models.values():
        psi = model.char_function(g.xi, dt)
        for q in contour():
            phi = 1.0 - q * psi
            assert np.min(np.abs(phi)) >= 1.0 - abs(q) - 1e-12
            plus, minus = factorize_values(phi, kern)
            prod = plus * minus
            mask = np.abs(phi) > 1e-10
            rel = np.abs(prod - phi)[mask] / np.abs(phi)[mask]
            assert np.max(rel) < 1e-12


def test_factor_tails_flatten(kou):
    # the factors level off toward 1 at the band edges, but only at a
    # 1/xi rate: much slower than the near-Gaussian decay of the input
    g = build_grid(2**12, 1.5)
    kern = hilbert_kernel(g)
    q = rho(50)
    phi = 1.0 - q * kou.char_function(g.xi, 1.0 / 52.0)
    edge = np.abs(g.eta) > 0.95
    centre = np.abs(g.eta) < 0.05
    for factor in factorize_values(phi, kern):
        edge_dev = np.max(np.abs(factor[edge] - 1.0))
        assert edge_dev < 2e-2
        assert edge_dev < 0.2 * np.max(np.abs(factor[centre] - 1.0))
        # far slower than the input's own tail decay
        assert edge_dev > 100 * np.max(np.abs(phi[edge] - 1.0))


def test_plus_factor_log_supported_on_positive_axis(kou):
    # inverse transform of log(plus factor) lives on x >= 0 up to ringing
    # from the value at the origin; the oscillation carries no signed mass
    g = build_grid(2**12, 1.5)
    kern = hilbert_kernel(g)
    q = rho(50)
    phi = 1.0 - q * kou.char_function(g.xi, 1.0 / 52.0)
    plus, _ = factorize_values(phi, kern)
    dens = inverse_dft(np.log(plus), g)
    total = np.sum(np.abs(dens))
    left = g.x < -10 * g.dx
    assert abs(np.sum(dens[left])) / total < 1e-3
    # and the signed leakage shrinks with distance from the origin
    far = g.x < -200 * g.dx
    assert abs(np.sum(dens[far])) < abs(np.sum(dens[left]))


def test_additive_split():
    g = build_grid(512, 4.0)
    zero = np.zeros(512, dtype=complex)
    plus = above_values(zero, BarrierProjections(g, l=0.0))
    minus = below_values(zero, BarrierProjections(g, u=0.0))
    assert np.all(plus == 0) and np.all(minus == 0)

    rng = np.random.default_rng(5)
    f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    plus = above_values(f, BarrierProjections(g, l=0.0))
    minus = below_values(f, BarrierProjections(g, u=0.0))
    assert np.max(np.abs(plus + minus - f)) < 1e-15 * np.max(np.abs(f))


def test_additive_split_of_right_supported_function():
    # spectrum of a Gaussian bump centred at +3: the minus part carries
    # only ringing-level mass
    g = build_grid(2**12, 10.0)
    sigma = 0.5
    spec = np.exp(3j * g.xi - sigma**2 * g.xi**2 / 2)
    minus = below_values(spec, BarrierProjections(g, u=0.0))
    dens = inverse_dft(minus, g).real
    assert np.max(np.abs(dens)) < 1e-6


def test_singular_input_rejected():
    g = build_grid(64, 1.0)
    vals = np.ones(64, dtype=complex)
    vals[10] = 0.0
    with pytest.raises(SingularInputError):
        factorize_values(vals, hilbert_kernel(g))


def test_phase_winding_detected():
    g = build_grid(256, 1.0)
    # phase sweeps through +-pi across the lattice: a continuous principal
    # branch does not exist
    winding = np.exp(1j * 2.0 * np.pi * g.eta)
    with pytest.raises(BranchFailureError):
        factorize_values(winding.astype(complex), hilbert_kernel(g))


def test_a_stack_factorises_as_its_rows(kou):
    g = build_grid(1024, 1.5)
    kern = hilbert_kernel(g)
    phi = 1.0 - contour()[:, None] * kou.char_function(g.xi, 1.0 / 52.0)
    plus, minus = factorize_values(phi, kern)
    for row, row_plus, row_minus in zip(phi, plus, minus):
        one_plus, one_minus = factorize_values(row, kern)
        assert row_plus.tobytes() == one_plus.tobytes()
        assert row_minus.tobytes() == one_minus.tobytes()


def test_a_stack_raises_its_first_failing_row():
    g = build_grid(256, 1.0)
    kern = hilbert_kernel(g)
    rows = np.ones((4, 256), dtype=complex)
    rows[1, 10], rows[2, 20] = 3e-15, 1e-15  # both singular, each its own minimum
    rows[3] = np.exp(1j * 2.0 * np.pi * g.eta)  # winding, after them
    with pytest.raises(SingularInputError) as one_row:
        factorize_values(rows[1], kern)
    with pytest.raises(SingularInputError) as stack:
        factorize_values(rows, kern)
    assert str(stack.value) == str(one_row.value)
    assert "3.000e-15" in str(stack.value)
    # a winding row ahead of the singular ones raises first
    with pytest.raises(BranchFailureError):
        factorize_values(rows[[0, 3, 1]], kern)
