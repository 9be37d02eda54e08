"""The paper's cases in one table: the kou, nig and vg models of the
double-barrier tables of Feng & Linetsky (2008) and Fusai, Germano &
Marazzina (2016) with a gaussian baseline, the benchmark calls (S0 = 1,
K = 1.1, T = 1, barriers L = 0.8 and U = 1.2), the published table prices
and the convergence-study cases.  Tests and scripts read it; the package
does not import it, and the benchmark keeps its own copy."""

from __future__ import annotations

import math

from .levy import LevyModel
from .payoff import OptionContract

__all__ = [
    "MODELS", "european", "double_barrier", "down_and_out", "up_and_out", "SHAPES",
    "TABLE_PRICES", "NIG_252_CONVERGED", "CONVERGENCE_CASES",
]

RATE = 0.05
DIVIDEND = 0.02

MODELS = {
    "kou": LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=40.0, eta2=12.0, r=RATE, q_div=DIVIDEND),
    "nig": LevyModel.nig(alpha=15.0, beta=-5.0, delta=0.5, r=RATE, q_div=DIVIDEND),
    "vg": LevyModel.vg(theta=1 / 9, sigma=1 / (3 * math.sqrt(3)), nu=0.25, r=RATE, q_div=DIVIDEND),
    "gaussian": LevyModel.gaussian(sigma=0.2, r=RATE, q_div=DIVIDEND),
}


def european(N: int = 1, **kw) -> OptionContract:
    """The benchmark call without barriers; keywords override its terms."""
    terms = dict(S0=1.0, K=1.1, T=1.0, N=N, r=RATE, q_div=DIVIDEND)
    return OptionContract(**{**terms, **kw})


def double_barrier(N: int, **kw) -> OptionContract:
    return european(N, **{"L": 0.8, "U": 1.2, **kw})


def down_and_out(N: int, **kw) -> OptionContract:
    return european(N, **{"L": 0.8, **kw})


def up_and_out(N: int, **kw) -> OptionContract:
    return european(N, **{"U": 1.2, **kw})


# barrier geometry name -> contract builder
SHAPES = {"double": double_barrier, "down": down_and_out, "up": up_and_out}


# published double-barrier prices: model -> monitoring dates N -> price
TABLE_PRICES = {
    "kou": {
        4: 0.00721968941,
        52: 0.00518403635,
        104: 0.00490517113,
        252: 0.00465711572,
        504: 0.00452396360,
    },
    "nig": {
        4: 0.00545479385,
        52: 0.00359559460,
        104: 0.00341651334,
        252: 0.00328484367,
    },
}

# The nig N=252 table price is 3.13e-7 above the converged value: fl is
# flat at this value over M = 2^14, 2^15 and 2^16, and quad_price at 2^15,
# 2^16 and 2^17 points, Richardson-extrapolated with p = 2, gives
# 0.0032845313475 independently.
NIG_252_CONVERGED = 0.0032845305112

# case name -> (model name, contract)
CONVERGENCE_CASES = {
    "kou_double_n52": ("kou", double_barrier(52)),
    "nig_double_n52": ("nig", double_barrier(52)),
    "vg_double_n52": ("vg", double_barrier(52)),
    "vg_single_n52": ("vg", down_and_out(52)),
}
