"""Prices pinned to the values recorded before the per-call phase
hoisting and the stacked window FFT; a change to the numerics of the
pricers shows up here, not only in a benchmark diff.  The fl-f entries
were recorded before ``price()`` took over the filter defaulting and
the result assembly of the two method functions.  The reference
entries were recorded before backward induction ran on the live band
of Psi only, the first pins on a grid where that band is narrower than
the requested one.  The down-and-out entries of kou fgm and fgm-f and of
every vg method were recorded after the pricer began damping a call with
no upper barrier by e^{-2x}; each moved toward its reference.  The
down-and-out entries of kou fgm and fgm-f and of vg fgm-f were re-pinned
when the z-domain pricer began solving a lone barrier as one half-sweep
of the double-barrier iteration: the same identity in another order of
operations, so each moved by about 1e-12, the rounding floor of the
z-inversion, and none by more than 1.5e-12.

Unfiltered fgm on the vg double barrier prices outside [0, S0] (the
known truncation failure the filters exist to fix); that value is pinned
as it is.
"""

import pytest

from levybarrier import default_grid, price
from levybarrier.cases import SHAPES
from levybarrier.pricers import reference_price

TOL = 1e-12

# (model, method, contract shape) -> price at N = 52, M = 1024
GOLDEN = {
    ("kou", "fl", "double"): 0.005184036348995553,
    ("kou", "fl", "down"): 0.04321098452843257,
    ("kou", "fl", "up"): 0.0051945301645401395,
    ("kou", "fgm", "double"): 0.005174336811575838,
    ("kou", "fgm", "down"): 0.04321098452765184,
    ("kou", "fgm-f", "double"): 0.005184036349268212,
    ("kou", "fgm-f", "down"): 0.04321098452469129,
    ("kou", "fl-f", "double"): 0.005184036342185908,
    ("kou", "fl-f", "down"): 0.04321098452787417,
    ("kou", "fl-f", "up"): 0.005194530037281416,
    ("vg", "fl", "double"): 0.0024766402607923873,
    ("vg", "fl", "down"): 0.05350797871387437,
    ("vg", "fl", "up"): 0.002520935988748862,
    ("vg", "fgm", "double"): -0.014276742133279384,
    ("vg", "fgm", "down"): 0.05298350815410849,
    ("vg", "fgm-f", "double"): 0.002483460381227276,
    ("vg", "fgm-f", "down"): 0.053507584228294054,
    ("vg", "fl-f", "double"): 0.0024789186910750952,
    ("vg", "fl-f", "down"): 0.053508652176029646,
    ("vg", "fl-f", "up"): 0.0025185125387920163,
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_golden_price(case, all_models):
    model_name, method, shape = case
    model = all_models[model_name]
    contract = SHAPES[shape](52)
    grid = default_grid(contract, model, 1024)
    assert price(contract, model, method, grid).price == pytest.approx(GOLDEN[case], abs=TOL)


# (model, contract shape) -> reference_price at N = 52 (fl, M = 2^16)
REFERENCE_GOLDEN = {
    ("kou", "double"): 0.005184036348995574,
    ("kou", "down"): 0.04321098452842206,
    ("nig", "double"): 0.0035955945959685815,
    ("nig", "down"): 0.047759015237297885,
}


@pytest.mark.parametrize("case", sorted(REFERENCE_GOLDEN), ids="/".join)
def test_golden_reference_price(case, all_models):
    model_name, shape = case
    ref = reference_price(SHAPES[shape](52), all_models[model_name])
    assert ref == pytest.approx(REFERENCE_GOLDEN[case], abs=TOL)
