import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levybarrier import ExponentialFilter, PlanckTaper
from levybarrier.filters import EXP_STRENGTH, filter_profile
from levybarrier.grid import build_grid

EXP = ExponentialFilter()
PLANCK = PlanckTaper(0.25)


def test_unit_value_at_centre():
    for taper in (EXP, PLANCK):
        assert taper(0.0) == 1.0


def test_exponential_band_edge_is_machine_small():
    assert EXP(1.0) == pytest.approx(math.exp(-EXP_STRENGTH))
    assert EXP(1.0) < 1.1e-16


def test_planck_flat_band_and_edges():
    assert PLANCK(0.5) == 1.0
    assert PLANCK(-0.75) == 1.0
    assert PLANCK(0.75) == 1.0
    assert PLANCK(1.0) == 0.0
    assert PLANCK(-1.0) == 0.0
    assert 0.0 < PLANCK(0.9) < 1.0


def test_out_of_band_rejected():
    with pytest.raises(ValueError):
        EXP(1.5)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ExponentialFilter(p=7)
    with pytest.raises(ValueError):
        PlanckTaper(0.6)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_even_symmetry(eta):
    for taper in (EXP, PLANCK):
        assert taper(eta) == pytest.approx(taper(-eta), abs=1e-15)


def test_monotone_nonincreasing_in_abs_eta():
    eta = np.linspace(0.0, 1.0, 2001)
    for taper in (EXP, PLANCK):
        vals = np.asarray(taper(eta))
        assert np.all(np.diff(vals) <= 1e-15)


def test_flat_to_high_order_at_centre():
    # sigma(eta) = 1 - EXP_STRENGTH eta^p + ...: derivatives below order p vanish
    h = 1e-2
    assert abs(EXP(h) - 1.0) <= 1.01 * EXP_STRENGTH * h**EXP.p
    stencil = np.array(EXP(np.array([-2 * h, -h, 0.0, h, 2 * h])))
    d1 = (stencil[3] - stencil[1]) / (2 * h)
    d2 = (stencil[3] - 2 * stencil[2] + stencil[1]) / h**2
    d3 = (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * h**3)
    for fd in (d1, d2, d3):
        assert abs(fd) < 1e-6


def test_apply_exponential_order_two():
    g = build_grid(128, 1.0)
    f = np.ones(128, dtype=complex)
    out = filter_profile(ExponentialFilter(p=2), g) * f
    assert np.max(np.abs(out - np.exp(-EXP_STRENGTH * g.eta**2))) < 1e-15


def test_filtered_vg_tail_is_restored(vg):
    # the slowly decaying characteristic function drops below 1e-14 at the
    # outer one percent of the band once tapered
    g = build_grid(1024, 1.0)
    psi = vg.char_function(g.xi, 1.0 / 52.0)
    filtered = filter_profile(EXP, g) * psi
    outer = np.abs(g.eta) > 0.99
    assert np.max(np.abs(psi[outer])) > 1e-2  # genuinely slow before
    assert np.max(np.abs(filtered[outer])) < 1e-14


def test_profile_hits_left_endpoint_exactly():
    g = build_grid(256, 2.0)
    prof = filter_profile(EXP, g)
    assert prof[0] == pytest.approx(math.exp(-EXP_STRENGTH))
    assert g.eta[0] == -1.0
