import math

import pytest

from levybarrier import LevyModel, OptionContract

RATE = 0.05
DIVIDEND = 0.02


@pytest.fixture(scope="session")
def kou():
    return LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=40.0, eta2=12.0, r=RATE, q_div=DIVIDEND)


@pytest.fixture(scope="session")
def nig():
    return LevyModel.nig(alpha=15.0, beta=-5.0, delta=0.5, r=RATE, q_div=DIVIDEND)


@pytest.fixture(scope="session")
def vg():
    return LevyModel.vg(theta=1.0 / 9.0, sigma=1.0 / (3.0 * math.sqrt(3.0)), nu=0.25, r=RATE, q_div=DIVIDEND)


@pytest.fixture(scope="session")
def gaussian():
    return LevyModel.gaussian(sigma=0.2, r=RATE, q_div=DIVIDEND)


@pytest.fixture(scope="session")
def all_models(kou, nig, vg, gaussian):
    return {"kou": kou, "nig": nig, "vg": vg, "gaussian": gaussian}


def double_barrier(N: int, **kw) -> OptionContract:
    """Benchmark double-barrier call used throughout the suite."""
    args = dict(S0=1.0, K=1.1, T=1.0, N=N, r=RATE, q_div=DIVIDEND, L=0.8, U=1.2)
    args.update(kw)
    return OptionContract(**args)


def down_and_out(N: int, **kw) -> OptionContract:
    args = dict(S0=1.0, K=1.1, T=1.0, N=N, r=RATE, q_div=DIVIDEND, L=0.8)
    args.update(kw)
    return OptionContract(**args)


def up_and_out(N: int, **kw) -> OptionContract:
    args = dict(S0=1.0, K=1.1, T=1.0, N=N, r=RATE, q_div=DIVIDEND, U=1.2)
    args.update(kw)
    return OptionContract(**args)


def european(N: int = 1, **kw) -> OptionContract:
    args = dict(S0=1.0, K=1.1, T=1.0, N=N, r=RATE, q_div=DIVIDEND)
    args.update(kw)
    return OptionContract(**args)
