#!/usr/bin/env python3
"""Error-versus-grid-size study for all four pricing methods.

For each configured case, prices at M = 2^8 .. 2^13 are compared against
a large-grid backward-induction reference and written to one CSV per
case (columns M, price, abs_error, cpu_seconds, avg_iterations, method,
filter).  Fitted log2 error slopes are printed per method.
"""

import argparse
import math
from pathlib import Path

from levybarrier import (
    LevyModel,
    Method,
    OptionContract,
    default_grid,
    price,
    reference_price,
)
from levybarrier.cli import REFERENCE_M, fit_slope

MODELS = {
    "kou": LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=40.0, eta2=12.0, r=0.05, q_div=0.02),
    "nig": LevyModel.nig(alpha=15.0, beta=-5.0, delta=0.5, r=0.05, q_div=0.02),
    "vg": LevyModel.vg(theta=1 / 9, sigma=1 / (3 * math.sqrt(3)), nu=0.25, r=0.05, q_div=0.02),
}

CASES = [
    ("kou_double_n52", "kou", dict(L=0.8, U=1.2), 52),
    ("nig_double_n52", "nig", dict(L=0.8, U=1.2), 52),
    ("vg_double_n52", "vg", dict(L=0.8, U=1.2), 52),
    ("vg_single_n52", "vg", dict(L=0.8), 52),
]

METHODS = [Method.FGM, Method.FGM_F, Method.FL, Method.FL_F]


def run_case(name, model_name, barriers, N, out_dir, m_list):
    model = MODELS[model_name]
    c = OptionContract(S0=1.0, K=1.1, T=1.0, N=N, r=0.05, q_div=0.02, **barriers)
    reference = reference_price(c, model, default_grid(c, model, REFERENCE_M))
    rows = ["M,price,abs_error,cpu_seconds,avg_iterations,method,filter"]
    print(f"\n{name}: reference = {reference:.12e}")
    for method in METHODS:
        if method is Method.FGM and "U" not in barriers and N < 3:
            continue
        errors = []
        for M in m_list:
            res = price(c, model, method, default_grid(c, model, M))
            err = abs(res.price - reference)
            errors.append(err)
            iters = "" if res.avg_iterations is None else f"{res.avg_iterations:.12e}"
            rows.append(
                f"{M},{res.price:.12e},{err:.12e},{res.cpu_seconds:.12e},"
                f"{iters},{res.method.value},{res.filter.label()}"
            )
        slope = fit_slope(m_list, errors)
        if not math.isnan(slope):
            print(f"  {method.value:6s} slope = {slope:+.2f}   err@max-M = {errors[-1]:.2e}")
    path = Path(out_dir) / f"{name}.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"  wrote {path}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--mmin", type=int, default=8)
    parser.add_argument("--mmax", type=int, default=13)
    args = parser.parse_args()
    Path(args.out).mkdir(parents=True, exist_ok=True)
    m_list = [2**k for k in range(args.mmin, args.mmax + 1)]
    for case in CASES:
        run_case(*case, out_dir=args.out, m_list=m_list)


if __name__ == "__main__":
    main()
