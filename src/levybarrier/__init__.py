"""Fourier/Hilbert-transform pricing of discretely monitored barrier
options under Levy processes, with spectral filtering."""

from .filters import ExponentialFilter, PlanckTaper
from .grid import GridSpec, build_grid
from .hilbert import HilbertKernel, hilbert_kernel
from .levy import LevyModel
from .oracle import OracleConfig, mc_price, quad_price
from .payoff import OptionContract, damped_payoff_fourier
from .pricers import (
    Method,
    PricingResult,
    default_grid,
    price,
    reference_price,
)

__version__ = "0.1.0"

__all__ = [
    "ExponentialFilter",
    "GridSpec",
    "HilbertKernel",
    "LevyModel",
    "Method",
    "OptionContract",
    "OracleConfig",
    "PlanckTaper",
    "PricingResult",
    "build_grid",
    "damped_payoff_fourier",
    "default_grid",
    "hilbert_kernel",
    "mc_price",
    "price",
    "quad_price",
    "reference_price",
]
