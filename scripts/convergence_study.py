#!/usr/bin/env python3
"""Error-versus-grid-size study: ``levybarrier converge`` with all four
methods at M = 2^mmin .. 2^mmax on each case of
``levybarrier.cases.CONVERGENCE_CASES``, one CSV per case in --out."""

import argparse
from pathlib import Path

from levybarrier import Method
from levybarrier.cases import CONVERGENCE_CASES, MODELS
from levybarrier.cli import RunConfig, cmd_converge


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--mmin", type=int, default=8)
    parser.add_argument("--mmax", type=int, default=13)
    args = parser.parse_args()
    Path(args.out).mkdir(parents=True, exist_ok=True)
    m_list = [2**k for k in range(args.mmin, args.mmax + 1)]
    for name, (model_name, contract) in CONVERGENCE_CASES.items():
        path = Path(args.out) / f"{name}.csv"
        print(f"\n{name}")
        cfg = RunConfig(MODELS[model_name], contract, list(Method), m_list, csv_path=str(path))
        cmd_converge(cfg)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
