"""Exact gaussian barrier prices for one and two monitoring dates, with no
transform: N = 1 is a band of normal CDFs, N = 2 one quadrature of the
N = 1 value over the log-price at the first date."""

import math

import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from levybarrier import default_grid, price
from levybarrier.cases import MODELS, SHAPES

GAUSSIAN = MODELS["gaussian"]

# two quadrature settings; the N = 2 price is converged when they agree
TIGHT = {"epsabs": 0.0, "epsrel": 1e-13}
LOOSE = {"epsabs": 0.0, "epsrel": 1e-10}


def _one_date(y, mean, sd, contract):
    """Undiscounted E[payoff(y + Z); l < y + Z < u] for Z ~ N(mean, sd^2):
    the payoff is theta (S0 e^x - K) on the band where it is positive, and
    the e^x term integrates against the normal law shifted by sd^2."""
    k, l, u = contract.log_strike, contract.log_lower, contract.log_upper
    lo, hi = (max(k, l), u) if contract.theta > 0 else (l, min(k, u))
    if lo >= hi:
        return 0.0

    def mass(shift):
        return ndtr((hi - y - mean - shift) / sd) - ndtr((lo - y - mean - shift) / sd)

    share = contract.S0 * math.exp(y + mean + sd * sd / 2.0) * mass(sd * sd)
    return contract.theta * (share - contract.K * mass(0.0))


def exact_price(contract, quad_settings=TIGHT):
    """The gaussian price for N <= 2; ``quad_settings`` go to the N = 2
    integral over X_{T/2}, cut 40 standard deviations from its mean."""
    dt = contract.dt
    mean, sd = GAUSSIAN.drift * dt, GAUSSIAN.law.sigma * math.sqrt(dt)
    disc = math.exp(-contract.r * contract.T)
    if contract.N == 1:
        return disc * _one_date(0.0, mean, sd, contract)
    assert contract.N == 2
    lo = max(contract.log_lower, mean - 40.0 * sd)
    hi = min(contract.log_upper, mean + 40.0 * sd)

    def integrand(y):
        density = math.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        return density * _one_date(y, mean, sd, contract)

    value, _ = quad(integrand, lo, hi, **quad_settings)
    return disc * value


CASES = [(kind, shape, N) for kind in ("call", "put") for shape in sorted(SHAPES) for N in (1, 2)]


def test_exact_down_and_out_call_is_pinned():
    assert exact_price(SHAPES["down"](2)) == pytest.approx(0.0518696057184434, abs=1e-15)


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_two_date_quadrature_has_converged(shape, kind):
    contract = SHAPES[shape](2, kind=kind)
    assert abs(exact_price(contract, TIGHT) - exact_price(contract, LOOSE)) < 1e-15


@pytest.mark.parametrize("M", [2**8, 2**10, 2**12])
@pytest.mark.parametrize("method", ["fl", "fl-f"])
@pytest.mark.parametrize("kind, shape, N", CASES)
def test_backward_induction_matches_the_exact_price(kind, shape, N, method, M):
    contract = SHAPES[shape](N, kind=kind)
    got = price(contract, GAUSSIAN, method, default_grid(contract, GAUSSIAN, M)).price
    assert abs(got - exact_price(contract)) < 5e-14
