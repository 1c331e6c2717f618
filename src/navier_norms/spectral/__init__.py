"""Periodic pseudo-spectral solver and the norm diagnostics built on it."""

from .diagnostics import (
    EnergyReport,
    NormTrajectory,
    mixed_norm,
    weighted_singular_integral,
)
from .field import (
    SpectralField,
    biot_savart,
    divergence_error,
    init_taylor_green,
    lebesgue_norm,
    random_solenoidal,
    vorticity,
)
from .solver import SolverConfig, simulate, step

__all__ = [
    "EnergyReport",
    "NormTrajectory",
    "SolverConfig",
    "SpectralField",
    "biot_savart",
    "divergence_error",
    "init_taylor_green",
    "lebesgue_norm",
    "mixed_norm",
    "random_solenoidal",
    "simulate",
    "step",
    "vorticity",
    "weighted_singular_integral",
]
