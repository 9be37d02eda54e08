#!/usr/bin/env python3
"""Reproduce the double-barrier price tables: the filtered z-domain
pricer at M = 1024 for each table price of ``levybarrier.cases``, with
its deviation from the table, average fixed-point iterations and timing."""

from levybarrier import FilterSpec, default_grid, price_fgm
from levybarrier.cases import MODELS, TABLE_PRICES, double_barrier


def main():
    filt = FilterSpec.exponential()
    for name, table in TABLE_PRICES.items():
        model = MODELS[name]
        print(f"\n{name} double-barrier call, M=1024, filtered (p=12)")
        print(f"{'N':>5} {'price':>16} {'abs dev':>10} {'iters':>7} {'cpu (s)':>9}")
        for N, ref in table.items():
            c = double_barrier(N)
            res = price_fgm(c, model, default_grid(c, model, 1024), filt)
            print(
                f"{N:>5} {res.price:>16.11f} {abs(res.price - ref):>10.2e} "
                f"{res.avg_iterations:>7.3f} {res.cpu_seconds:>9.4f}"
            )


if __name__ == "__main__":
    main()
