"""Exact gaussian barrier prices for one to three monitoring dates, with no
transform: N = 1 is a band of normal CDFs, N = 2 one quadrature of the
N = 1 value over the log-price at the first date, and N = 3 one quadrature
of it over the log-price at the second date, whose first date is
integrated in closed form (the gaussian bridge)."""

import functools
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
    """The gaussian price for N <= 3; ``quad_settings`` go to the integral
    over y = X_{(N-1) dt}, cut 40 standard deviations from its mean.  At
    N = 3, X_dt given X_{2 dt} = y is normal with mean y/2 and variance
    sd^2/2, so the density of y on paths inside the band at the first
    date is that of y times the band mass of this bridge."""
    dt = contract.dt
    mean, sd = GAUSSIAN.drift * dt, GAUSSIAN.law.sigma * math.sqrt(dt)
    disc = math.exp(-contract.r * contract.T)
    if contract.N == 1:
        return disc * _one_date(0.0, mean, sd, contract)
    assert contract.N in (2, 3)
    steps = contract.N - 1
    centre, spread = steps * mean, sd * math.sqrt(steps)
    lo = max(contract.log_lower, centre - 40.0 * spread)
    hi = min(contract.log_upper, centre + 40.0 * spread)
    bridge_sd = sd / math.sqrt(2.0)

    def integrand(y):
        density = math.exp(-0.5 * ((y - centre) / spread) ** 2) / (spread * math.sqrt(2.0 * math.pi))
        if steps == 2:
            density *= (ndtr((contract.log_upper - y / 2.0) / bridge_sd)
                        - ndtr((contract.log_lower - y / 2.0) / bridge_sd))
        return density * _one_date(y, mean, sd, contract)

    value, _ = quad(integrand, lo, hi, **quad_settings)
    return disc * value


CASES = [(kind, shape, N) for kind in ("call", "put") for shape in sorted(SHAPES)
         for N in (1, 2, 3)]

# Cases that miss their bound on today's code, with the measured error
# (price minus exact): the filtered methods at 2^8, and unfiltered fgm on
# the double barrier, which converges only algebraically in M (the Gibbs
# phenomenon the filters are for).
KNOWN_MISSES = {
    ("call", "up", 3, "fl-f", 2**8): -9.70e-14,
    ("put", "down", 3, "fl-f", 2**8): -3.31e-13,
    ("call", "double", 3, "fgm", 2**8): +1.90e-7,
    ("call", "double", 3, "fgm", 2**10): -2.22e-8,
    ("call", "double", 3, "fgm", 2**12): -1.44e-9,
    ("call", "double", 3, "fgm-f", 2**8): -7.87e-11,
    ("put", "double", 3, "fgm", 2**8): +3.43e-6,
    ("put", "double", 3, "fgm", 2**10): -3.03e-7,
    ("put", "double", 3, "fgm", 2**12): -1.82e-8,
    ("put", "double", 3, "fgm-f", 2**8): -1.12e-9,
}


@functools.cache
def _exact(kind, shape, N, quad_settings="tight"):
    contract = SHAPES[shape](N, kind=kind)
    return exact_price(contract, {"tight": TIGHT, "loose": LOOSE}[quad_settings])


def _check(request, kind, shape, N, method, M, bound):
    known = KNOWN_MISSES.get((kind, shape, N, method, M))
    if known is not None:
        request.applymarker(pytest.mark.xfail(strict=True, reason=f"error {known:+.2e}"))
    contract = SHAPES[shape](N, kind=kind)
    got = price(contract, GAUSSIAN, method, default_grid(contract, GAUSSIAN, M)).price
    assert abs(got - _exact(kind, shape, N)) < bound


def test_exact_down_and_out_call_is_pinned():
    assert exact_price(SHAPES["down"](2)) == pytest.approx(0.0518696057184434, abs=1e-15)
    assert exact_price(SHAPES["down"](3)) == pytest.approx(0.0518558214202110, abs=1e-15)


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_two_date_quadrature_has_converged(shape, kind):
    contract = SHAPES[shape](2, kind=kind)
    assert abs(exact_price(contract, TIGHT) - exact_price(contract, LOOSE)) < 1e-15


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_three_date_quadrature_has_converged(shape, kind):
    assert abs(_exact(kind, shape, 3) - _exact(kind, shape, 3, "loose")) < 1e-15


@pytest.mark.parametrize("M", [2**8, 2**10, 2**12])
@pytest.mark.parametrize("method", ["fl", "fl-f"])
@pytest.mark.parametrize("kind, shape, N", CASES)
def test_backward_induction_matches_the_exact_price(kind, shape, N, method, M, request):
    _check(request, kind, shape, N, method, M, 5e-14)


@pytest.mark.parametrize("M", [2**8, 2**10, 2**12])
@pytest.mark.parametrize("method", ["fgm", "fgm-f"])
@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_z_domain_matches_the_exact_price(shape, kind, method, M, request):
    # fgm prices N >= 3 only; 6e-11 is three times its inversion floor at
    # n = N - 2 = 1, the smallest contour (ROADMAP direction 18)
    _check(request, kind, shape, 3, method, M, 6e-11)
