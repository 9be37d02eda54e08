#!/usr/bin/env python3
"""Reproduce the benchmark price tables for the double-barrier contract.

Runs the filtered z-domain pricer at M = 1024 for the Kou and NIG models
across monitoring frequencies and reports price, deviation from the
stored reference values, average fixed-point iterations and timing.
"""

import math

from levybarrier import FilterSpec, LevyModel, OptionContract, default_grid, price_fgm

REFERENCES = {
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

MODELS = {
    "kou": LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=40.0, eta2=12.0, r=0.05, q_div=0.02),
    "nig": LevyModel.nig(alpha=15.0, beta=-5.0, delta=0.5, r=0.05, q_div=0.02),
}


def contract(N):
    return OptionContract(S0=1.0, K=1.1, T=1.0, N=N, r=0.05, q_div=0.02, L=0.8, U=1.2)


def main():
    filt = FilterSpec.exponential()
    for name, model in MODELS.items():
        print(f"\n{name} double-barrier call, M=1024, filtered (p=12)")
        print(f"{'N':>5} {'price':>16} {'abs dev':>10} {'iters':>7} {'cpu (s)':>9}")
        for N, ref in REFERENCES[name].items():
            c = contract(N)
            res = price_fgm(c, model, default_grid(c, model, 1024), filt)
            print(
                f"{N:>5} {res.price:>16.11f} {abs(res.price - ref):>10.2e} "
                f"{res.avg_iterations:>7.3f} {res.cpu_seconds:>9.4f}"
            )


if __name__ == "__main__":
    main()
