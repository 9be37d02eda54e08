"""Exports and the names the benchmark's tracer patches from outside.

``bench/tracing.py`` rebinds module globals of ``levybarrier.pricers``
and wraps ``HilbertKernel.for_grid`` as a classmethod; a refactor that
renames or inlines those would silently untrace ``bench/run.py --trace 1``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import levybarrier
from levybarrier import pricers
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


def test_kernel_builder_is_a_classmethod():
    assert isinstance(HilbertKernel.__dict__["for_grid"], classmethod)
