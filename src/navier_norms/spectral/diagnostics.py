"""Norm trajectories and the derived time diagnostics: mixed space-time
Lebesgue norms, weighted singular time integrals and energy-inequality
residuals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..errors import MissingSamples, NonIntegrable
from ..kernels import cell_moments

__all__ = [
    "NormTrajectory",
    "EnergyReport",
    "build_energy_report",
    "mixed_norm",
    "weighted_singular_integral",
]


@dataclass
class NormTrajectory:
    """Sampled spatial norms: times plus {(k, r): values} series."""

    times: np.ndarray
    samples: dict

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for pair, vals in self.samples.items():
            if len(vals) != len(self.times):
                raise ValueError(f"series {pair} length mismatch")
            if np.any(np.asarray(vals) < 0):
                raise ValueError(f"series {pair} has negative values")

    def series(self, k: int, r: float) -> np.ndarray:
        key = (int(k), float(r))
        if key not in self.samples:
            raise MissingSamples(f"no samples for (k, r) = {key}")
        return np.asarray(self.samples[key])

    def records(self):
        """Flat (t, k, r, value) rows, for serialization."""
        for (k, r), vals in sorted(self.samples.items()):
            for t, v in zip(self.times, vals):
                yield (float(t), k, r, float(v))


@dataclass
class EnergyReport:
    times: np.ndarray = dc_field(repr=False)
    energy: np.ndarray = dc_field(repr=False)
    dissipation: np.ndarray = dc_field(repr=False)
    leray_residuals: tuple[float, float] = (0.0, 0.0)
    energy_balance_residual: float = 0.0

    def __post_init__(self):
        if np.any(self.energy < 0) or np.any(self.dissipation < 0):
            raise ValueError("energy and dissipation must be non-negative")


def build_energy_report(
    times: np.ndarray,
    energy: np.ndarray,
    dissipation: np.ndarray,
    nu: float,
) -> EnergyReport:
    """Assemble the report from per-step series of the unforced flow.

    leray_residuals holds the worst-case margins of the two a-priori
    inequalities (non-negative margins mean the inequality holds):
    the L^2 bound |u(t)| <= |u_0|, and the dissipation bound
    int_0^t |grad u|^2 <= |u_0|^2 / nu.
    """
    u_l2 = np.sqrt(2.0 * energy)
    margin_l2 = float(np.min(u_l2[0] - u_l2))
    grad_sq = dissipation / nu
    # running trapezoid integral of |grad u|^2, 0 at t = 0
    cum_grad = np.concatenate(
        ([0.0], np.cumsum(np.diff(times) * (grad_sq[1:] + grad_sq[:-1]) / 2.0))
    )
    margin_diss = float(np.min(u_l2[0] ** 2 / nu - cum_grad))
    balance = abs(energy[-1] - energy[0] + np.trapezoid(dissipation, times))
    scale = max(energy[0], np.finfo(float).tiny)
    return EnergyReport(
        times=times,
        energy=energy,
        dissipation=dissipation,
        leray_residuals=(margin_l2, margin_diss),
        energy_balance_residual=balance / scale,
    )


def mixed_norm(traj: NormTrajectory, k: int, r: float, r_tilde: float) -> float:
    """Time norm of the sampled series: (int value^r_tilde dt)^(1/r_tilde)
    by trapezoid over the sample times, sup for r_tilde = inf."""
    vals = traj.series(k, r)
    if r_tilde == math.inf:
        return float(np.max(vals))
    if r_tilde < 1:
        raise ValueError(f"r_tilde={r_tilde} must be >= 1 or inf")
    return float(np.trapezoid(vals**r_tilde, traj.times)) ** (1.0 / r_tilde)


def weighted_singular_integral(traj: NormTrajectory, k: int, r: float, theta: float, T: float | None = None) -> float:
    """int_0^T (T-t)^(-theta) value(t) dt for theta < 1.

    The sampled series is interpolated linearly and each piece is
    integrated exactly against the singular weight, so the endpoint
    singularity needs no special grading.  T is the last sample time (the
    default, to 1e-12): the series says nothing past it.
    """
    if theta >= 1.0:
        raise NonIntegrable(f"theta={theta} >= 1")
    if theta < 0.0:
        raise ValueError(f"theta={theta} must be non-negative")
    vals = traj.series(k, r)
    times = traj.times
    if T is None:
        T = float(times[-1])
    if abs(T - times[-1]) > 1e-12:
        raise ValueError(f"T={T} must be the last sample time {float(times[-1])!r}")
    i0, i1 = cell_moments(
        T - times[:-1], np.maximum(T - times[1:], 0.0), np.diff(times), 1.0 - theta
    )
    return float(np.sum(vals[:-1] * (i0 - i1) + vals[1:] * i1))

