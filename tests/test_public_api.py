"""Exports and the library names the benchmark uses from outside.

``bench/tracing.py`` rebinds module globals of ``levybarrier.pricers``
and wraps ``HilbertKernel.for_grid`` as a classmethod; a refactor that
renames or inlines those would silently untrace ``bench/run.py --trace 1``.
``bench/run.py`` and ``bench/workloads.py`` call the names in
``test_bench_names_resolve``; dropping one fails every benchmark run.
"""

import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

import pytest

import levybarrier
from levybarrier.cases import double_barrier, down_and_out
from levybarrier import hilbert, pricers
from levybarrier.hilbert import HilbertKernel

MODULES = sorted(
    f"levybarrier.{m.name}" for m in pkgutil.iter_modules(levybarrier.__path__)
    if not m.name.startswith("__")
)


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["levybarrier"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_traced_names_are_pricer_globals():
    imports = _tracing_module().PRICER_IMPORTS
    missing = [attr for attr in imports if attr not in vars(pricers)]
    assert not missing, f"bench/tracing.py patches names absent from pricers: {missing}"


def test_bench_names_resolve():
    for name in ("price", "quad_price", "default_grid", "OracleConfig", "__version__",
                 "LevyModel", "OptionContract"):
        assert hasattr(levybarrier, name), f"levybarrier.{name} is gone"
    for name in ("kou", "nig", "vg"):
        assert callable(getattr(levybarrier.LevyModel, name, None)), f"LevyModel.{name} is gone"
    assert callable(getattr(hilbert.hilbert_kernel, "cache_info", None))


def test_kernel_builder_is_a_classmethod():
    assert isinstance(HilbertKernel.__dict__["for_grid"], classmethod)


def test_tracer_keeps_prices_and_fires_spans(all_models):
    # one call per traced projection path: the z-domain loop, the band
    # window and the half-line projection of backward induction
    cases = [
        ("kou", "fgm-f", double_barrier(52)),
        ("kou", "fl", double_barrier(52)),
        ("vg", "fl", down_and_out(52)),
    ]
    ops = types.SimpleNamespace(
        price=levybarrier.price,
        quad_price=levybarrier.quad_price,
        default_grid=levybarrier.default_grid,
    )

    def run():
        prices = []
        for name, method, contract in cases:
            model = all_models[name]
            grid = ops.default_grid(contract, model, 1024)
            prices.append(ops.price(contract, model, method, grid).price)
        return prices

    plain = run()
    tracer = _tracing_module().Tracer()
    with tracer.patched(ops):
        traced = run()
    assert traced == plain
    fired = {span[0] for span in tracer.spans}
    for name in (
        "grid.inverse_at_zero",
        "payoff.damped_payoff_fourier",
        "hilbert.window_values",
        "hilbert.above_values",
        "hilbert.apply",
        "filters.filter_profile",
    ):
        assert name in fired, f"span {name} did not fire"
    # the backward-induction projections run through the one traced apply
    parents = {tracer.spans[span[3]][0] for span in tracer.spans
               if span[0] == "hilbert.apply" and span[3] >= 0}
    assert {"hilbert.window_values", "hilbert.above_values"} <= parents
    notes = [span[5] for span in tracer.spans if span[0] == "ztransform.contour_points"]
    assert notes == [33]
