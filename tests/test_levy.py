import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from levybarrier import LevyModel
from levybarrier.cases import MODELS

XI = np.linspace(-400.0, 400.0, 801)


def test_normalisation_at_zero(all_models):
    for model in all_models.values():
        assert model.char_function(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert model.char_function(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("t", [1.0 / 252.0, 1.0 / 52.0, 1.0])
def test_martingale_identity(all_models, t):
    # risk-neutral drift forces Psi(-i, t) = exp((r - q) t)
    for model in all_models.values():
        value = complex(model.char_function(-1j, t))
        assert value * math.exp(-(model.r - model.q_div) * t) == pytest.approx(1.0, rel=1e-12)


def test_char_function_bounded_on_real_axis(all_models):
    for model in all_models.values():
        psi = model.char_function(XI, 0.7)
        assert np.all(np.abs(psi) <= 1.0 + 1e-12)


def test_semigroup(all_models):
    xi = np.linspace(-60.0, 60.0, 241)  # keep |Psi| well above underflow
    for model in all_models.values():
        a = model.char_function(xi, 0.3)
        b = model.char_function(xi, 0.45)
        c = model.char_function(xi, 0.75)
        assert np.max(np.abs(a * b - c) / np.abs(c)) < 1e-12


def test_hermitian_symmetry(all_models):
    for model in all_models.values():
        psi = model.char_function(XI, 0.5)
        assert np.max(np.abs(psi[::-1] - np.conj(psi))) < 1e-14


def test_vg_polynomial_tail_slope(vg):
    # log|Psi| against log xi approaches slope -2 t / nu in the far tail
    t = 0.25
    xi1, xi2 = 1e5, 1e6
    v1 = abs(complex(vg.char_function(xi1, t)))
    v2 = abs(complex(vg.char_function(xi2, t)))
    slope = (math.log(v2) - math.log(v1)) / (math.log(xi2) - math.log(xi1))
    assert slope == pytest.approx(-2.0 * t / vg.law.nu, rel=1e-3)


def test_decay_classification(all_models):
    assert not all_models["kou"].law.polynomial_decay
    assert not all_models["nig"].law.polynomial_decay
    assert not all_models["gaussian"].law.polynomial_decay
    assert all_models["vg"].law.polynomial_decay


def test_strip_of_regularity(kou, nig, vg, gaussian):
    assert kou.law.strip == (-40.0, 12.0)
    assert nig.law.strip == (-20.0, 10.0)
    lo, hi = vg.law.strip
    assert lo == pytest.approx(-12.0, rel=1e-12)
    assert hi == pytest.approx(18.0, rel=1e-12)
    assert gaussian.law.strip == (-math.inf, math.inf)


def test_damped_argument_outside_strip_rejected(kou):
    with pytest.raises(ValueError, match="strip"):
        kou.char_function(XI + 13.0j, 0.5)  # above the upper pole
    with pytest.raises(ValueError, match="strip"):
        kou.char_function(-41.0j, 0.5)
    # inside the strip is fine
    kou.char_function(XI - 2.0j, 0.5)


def test_negative_time_rejected(kou):
    with pytest.raises(ValueError):
        kou.char_function(0.0, -0.1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LevyModel.kou(sigma=0.1, lam=3.0, p=1.5, eta1=40.0, eta2=12.0)
    with pytest.raises(ValueError):
        LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=0.9, eta2=12.0)
    with pytest.raises(ValueError):
        LevyModel.nig(alpha=15.0, beta=-16.0, delta=0.5)
    with pytest.raises(ValueError):
        LevyModel.nig(alpha=2.0, beta=1.5, delta=0.5)  # forward moment blows up
    with pytest.raises(ValueError):
        LevyModel.vg(theta=4.0, sigma=0.2, nu=1.0)  # forward not integrable
    with pytest.raises(ValueError):
        LevyModel.gaussian(sigma=-0.2)


# (model, field) for every parameter of every law, and the rates
_MODEL_FIELDS = [
    (name, field) for name, model in MODELS.items()
    for field in (*(f.name for f in fields(model.law)), "r", "q_div")
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, field", _MODEL_FIELDS)
def test_non_finite_parameter_rejected_by_name(name, field, value):
    """A NaN or infinite input used to give a model with drift nan, which
    priced as nan on an explicit grid."""
    model = MODELS[name]
    params, rates = asdict(model.law), {"r": model.r, "q_div": model.q_div}
    (rates if field in rates else params)[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LevyModel(type(model.law)(**params), **rates)


def test_variance_matches_sampled_moments(kou):
    # second cumulant against a numerical second derivative of psi
    h = 1e-4
    t = 1.0
    vals = np.log(kou.char_function(np.array([-h, 0.0, h]), t))
    second = (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
    assert -second.real == pytest.approx(kou.variance(t), rel=1e-6)
