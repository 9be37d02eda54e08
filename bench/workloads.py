"""The three benchmark workloads as books of pricing calls.

A book is the list of calls one pass makes.  Its composition is fixed by
the workload; the seed draws the strike and barrier levels of the book
contracts and, in ``run.py``, the order of the calls in each pass.  The
pricers see only the generated contracts, models and grids.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from levybarrier import LevyModel, OptionContract

RATE = 0.05
DIVIDEND = 0.02

# the parameter sets of tests/conftest.py
MODELS = {
    "kou": LevyModel.kou(sigma=0.1, lam=3.0, p=0.3, eta1=40.0, eta2=12.0, r=RATE, q_div=DIVIDEND),
    "nig": LevyModel.nig(alpha=15.0, beta=-5.0, delta=0.5, r=RATE, q_div=DIVIDEND),
    "vg": LevyModel.vg(
        theta=1.0 / 9.0, sigma=1.0 / (3.0 * math.sqrt(3.0)), nu=0.25, r=RATE, q_div=DIVIDEND
    ),
}

BOOK_N = (4, 52, 252, 504)
BOOK_M = (2**10, 2**12)
# bands around the test contract K=1.1, L=0.8, U=1.2
STRIKE_BAND = (1.05, 1.15)
LOWER_BAND = (0.75, 0.85)
UPPER_BAND = (1.15, 1.25)
GEOMETRIES = ("double", "down_out", "up_out")

# paper-table contracts (fgm-f, M=1024) with the criterion-1/2 tolerances
# of tests/test_acceptance.py
ANCHORS = [
    ("kou", 4, 0.00721968941, 1e-9),
    ("kou", 52, 0.00518403635, 1e-9),
    ("kou", 104, 0.00490517113, 1e-9),
    ("kou", 252, 0.00465711572, 1e-9),
    ("nig", 4, 0.00545479385, 1e-9),
    ("nig", 52, 0.00359559460, 1e-9),
    ("nig", 252, 0.00328484367, 5e-7),
]

# the four cases of scripts/convergence_study.py
SWEEP_CASES = [
    ("kou_double", "kou", dict(L=0.8, U=1.2)),
    ("nig_double", "nig", dict(L=0.8, U=1.2)),
    ("vg_double", "vg", dict(L=0.8, U=1.2)),
    ("vg_down_out", "vg", dict(L=0.8)),
]
SWEEP_N = 52
SWEEP_M = tuple(2**k for k in range(8, 14))
REFERENCE_M = 2**16
TOLERANCE = 1e-6


@dataclass
class Call:
    """One timed call: a transform pricer when ``method`` is set,
    otherwise the quadrature oracle with ``quad_points`` points."""

    id: int
    label: str
    model: str
    contract: OptionContract
    M: int
    method: str | None = None
    quad_points: int = 0
    anchor: tuple[float, float] | None = None  # (table price, tolerance)
    case: str | None = None
    reference: bool = False  # the case's M=2^16 reference
    grid: object = None  # filled in during set-up


def _contract(N: int, K: float, **barriers) -> OptionContract:
    return OptionContract(S0=1.0, K=K, T=1.0, N=N, r=RATE, q_div=DIVIDEND, **barriers)


def _draw_contracts(seed: int) -> list[tuple[str, str, OptionContract]]:
    """One contract per model x N x geometry, levels drawn from the bands."""
    rng = random.Random(seed)
    out = []
    for model in MODELS:
        for N in BOOK_N:
            for geometry in GEOMETRIES:
                K = rng.uniform(*STRIKE_BAND)
                L = rng.uniform(*LOWER_BAND)
                U = rng.uniform(*UPPER_BAND)
                barriers = {
                    "double": dict(L=L, U=U),
                    "down_out": dict(L=L),
                    "up_out": dict(U=U),
                }[geometry]
                out.append((model, geometry, _contract(N, K, **barriers)))
    return out


def _book_calls(seed: int, geometries, methods) -> list[Call]:
    calls = []
    for model, geometry, c in _draw_contracts(seed):
        if geometry not in geometries:
            continue
        for M in BOOK_M:
            for method in methods:
                label = f"{method}/{model}/{geometry}/N{c.N}/M{M}"
                calls.append(Call(len(calls), label, model, c, M, method))
    return calls


def zdomain_book(seed: int) -> list[Call]:
    calls = _book_calls(seed, ("double", "down_out"), ("fgm", "fgm-f"))
    for model, N, target, tol in ANCHORS:
        c = _contract(N, 1.1, L=0.8, U=1.2)
        label = f"fgm-f/{model}/anchor/N{N}/M1024"
        calls.append(Call(len(calls), label, model, c, 1024, "fgm-f", anchor=(target, tol)))
    return calls


def induction_book(seed: int) -> list[Call]:
    return _book_calls(seed, GEOMETRIES, ("fl", "fl-f"))


def convergence_sweep(seed: int) -> list[Call]:
    """Fixed cases; the seed only orders the calls (in ``run.py``)."""
    calls = []

    def add(**kw):
        calls.append(Call(len(calls), **kw))

    for case, model, barriers in SWEEP_CASES:
        c = _contract(SWEEP_N, 1.1, **barriers)
        for method in ("fgm", "fgm-f", "fl", "fl-f"):
            for M in SWEEP_M:
                add(label=f"{method}/{case}/M{M}", model=model, contract=c, M=M,
                    method=method, case=case)
        # same-family reference as in convergence_study.py: filtered for
        # the polynomially decaying vg characteristic function
        ref_method = "fl-f" if model == "vg" else "fl"
        add(label=f"{ref_method}/{case}/M{REFERENCE_M}", model=model, contract=c,
            M=REFERENCE_M, method=ref_method, case=case, reference=True)
        quad_points = 2**17 if case == "vg_down_out" else 2**15
        add(label=f"quad/{case}/P{quad_points}", model=model, contract=c, M=0,
            quad_points=quad_points, case=case)
    return calls


WORKLOADS = {
    "zdomain_book": zdomain_book,
    "induction_book": induction_book,
    "convergence_sweep": convergence_sweep,
}
