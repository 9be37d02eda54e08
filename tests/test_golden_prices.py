"""Prices pinned to the values recorded before the per-call phase
hoisting and the stacked window FFT; a change to the numerics of the
pricers shows up here, not only in a benchmark diff.  The fl-f entries
were recorded before ``price()`` took over the filter defaulting and
the result assembly of the two method functions.

Unfiltered fgm on vg prices outside [0, S0] (the known truncation
failure the filters exist to fix); those values are pinned as they are.
"""

import pytest

from levybarrier import default_grid, price
from levybarrier.cases import double_barrier, down_and_out, up_and_out

TOL = 1e-12
SHAPES = {"double": double_barrier, "down": down_and_out, "up": up_and_out}

# (model, method, contract shape) -> price at N = 52, M = 1024
GOLDEN = {
    ("kou", "fl", "double"): 0.005184036348995553,
    ("kou", "fl", "down"): 0.04321098452843257,
    ("kou", "fl", "up"): 0.0051945301645401395,
    ("kou", "fgm", "double"): 0.005174336811575838,
    ("kou", "fgm", "down"): 0.04321098503314274,
    ("kou", "fgm-f", "double"): 0.005184036349268212,
    ("kou", "fgm-f", "down"): 0.04321098518544028,
    ("kou", "fl-f", "double"): 0.005184036342185908,
    ("kou", "fl-f", "down"): 0.04321098452787417,
    ("kou", "fl-f", "up"): 0.005194530037281416,
    ("vg", "fl", "double"): 0.0024766402607923873,
    ("vg", "fl", "down"): 0.05356869200384705,
    ("vg", "fl", "up"): 0.002520935988748862,
    ("vg", "fgm", "double"): -0.014276742133279384,
    ("vg", "fgm", "down"): -0.0774827976068436,
    ("vg", "fgm-f", "double"): 0.002483460381227276,
    ("vg", "fgm-f", "down"): 0.05420757286896215,
    ("vg", "fl-f", "double"): 0.0024789186910750952,
    ("vg", "fl-f", "down"): 0.05352901045582499,
    ("vg", "fl-f", "up"): 0.0025185125387920163,
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_golden_price(case, all_models):
    model_name, method, shape = case
    model = all_models[model_name]
    contract = SHAPES[shape](52)
    grid = default_grid(contract, model, 1024)
    assert price(contract, model, method, grid).price == pytest.approx(GOLDEN[case], abs=TOL)
