"""Pseudo-spectral time stepping for the unforced incompressible equations
on the periodic box, with integrating-factor RK4 and 2/3-rule dealiasing.

The advanced form is d/dt uhat = -P[i k . F(u (x) u)] - nu |k|^2 uhat,
with the viscous factor exp(-nu |k|^2 t) treated exactly.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from ..errors import CFLViolation, NonFinite
from . import field as sf
from .diagnostics import NormTrajectory, build_energy_report

__all__ = ["SolverConfig", "nonlinear_term", "step", "simulate"]

log = logging.getLogger(__name__)

DEFAULT_NORM_PAIRS = ((0, 6.0), (1, 3.0), (1, 2.0), (0, 2.0), (2, 2.0))
INITIAL_CONDITIONS = ("taylor_green", "random")


@dataclass
class SolverConfig:
    N: int = 32
    nu: float = 0.1
    dt: float = 1e-3
    T: float = 1.0
    initial_condition: str = "taylor_green"
    ic_params: dict = dc_field(default_factory=dict)
    sample_stride: int = 10
    norms: Sequence[tuple[int, float]] = DEFAULT_NORM_PAIRS

    def __post_init__(self):
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride={self.sample_stride} must be >= 1")
        if not 0.0 < self.nu < np.inf:
            raise ValueError(f"nu={self.nu} outside (0, inf)")
        if self.initial_condition not in INITIAL_CONDITIONS:
            raise ValueError(f"initial_condition {self.initial_condition!r} not in {INITIAL_CONDITIONS}")
        for k, r in self.norms:
            if k not in (0, 1, 2) or not r >= 1:
                raise ValueError(f"norm pair {k}:{r} needs k in 0, 1, 2 and r >= 1 or inf")
        if not (self.dt > 0 and self.T > 0 and np.isfinite(self.T / self.dt)):
            raise ValueError(f"dt={self.dt} and T={self.T} must be positive with T/dt finite")
        sf.check_grid_size(self.N)
        ratio = self.T / self.dt  # must be a whole step count, up to roundoff
        if self.n_steps < 1 or abs(ratio - self.n_steps) > 1e-9 * ratio:
            raise ValueError(
                f"T={self.T} is not a whole number of steps dt={self.dt} (T/dt = {ratio:.12g})"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def make_initial_field(self) -> sf.SpectralField:
        if self.initial_condition == "taylor_green":
            return sf.init_taylor_green(self.N, self.nu)
        rng = np.random.default_rng(int(self.ic_params.get("seed", 0)))
        return sf.random_solenoidal(self.N, self.nu, rng, decay=float(self.ic_params.get("decay", 2.0)))


@functools.lru_cache(maxsize=1)
def _products(N: int) -> np.ndarray:
    """The product array that every ``nonlinear_term`` call at this N
    writes into."""
    return np.empty((5, N, N, N))


def nonlinear_term(coeffs: np.ndarray, N: int) -> np.ndarray:
    """-P[i k_b F(u_a u_b)] on the modes the 2/3 rule keeps.

    Takes and returns coefficients of shape (3, M) on ``field.kept_modes(N)``;
    every other mode of the input and the output is zero, so the input is
    its own dealiasing.  The quadratic term is formed pseudo-spectrally,
    alias-free under the 2/3 rule, from the shifted stress u_a u_b -
    delta_ab u_z^2 (Basdevant, J. Comput. Phys. 50, 1983), whose zz entry is
    zero: five products are transformed, not six.  The shift adds
    -i k_a F(u_z^2), a gradient, which the Leray projection P removes
    exactly, so the result changes only in roundoff.  The transforms are
    the pruned pair ``to_physical_kept`` and ``to_spectral_kept``, which
    skip the lines the 2/3 rule leaves zero and give the full transforms'
    values bit for bit.

    The product array and the inverse transform's spectral layout are
    workspaces cached for the most recent N, so the function is not
    re-entrant: no two threads may step at once (the FFT workers only read
    them).  The returned array is fresh.
    """
    kept = sf.kept_modes(N)
    prod = _products(N)
    u = sf.to_physical_kept(coeffs, N)
    # rows xx, xy, xz, yy, yz; u_z^2 waits in the yz row
    np.multiply(u[2], u[2], out=prod[4])
    np.multiply(u[0], u[0], out=prod[0])
    np.subtract(prod[0], prod[4], out=prod[0])
    np.multiply(u[1], u[1], out=prod[3])
    np.subtract(prod[3], prod[4], out=prod[3])
    np.multiply(u[0], u[1], out=prod[1])
    np.multiply(u[0], u[2], out=prod[2])
    np.multiply(u[1], u[2], out=prod[4])
    # the result takes the freed velocity's memory before the forward
    # transform, so the stage results kept across calls fragment no block
    del u
    out = np.empty(coeffs.shape, dtype=complex)
    xx, xy, xz, yy, yz = sf.to_spectral_kept(prod)
    kx, ky, kz = kept.kx, kept.ky, kept.kz
    np.multiply(-1j, kx * xx + ky * xy + kz * xz, out=out[0])
    np.multiply(-1j, kx * xy + ky * yy + kz * yz, out=out[1])
    np.multiply(-1j, kx * xz + ky * yz, out=out[2])
    return sf.leray_project_in_place(out, kx, ky, kz, kept.k2_safe)


@functools.lru_cache(maxsize=8)
def _integrating_factors(N: int, nu: float, dt: float):
    """exp(-nu |k|^2 dt/2) and its square on the kept modes, and the square
    on every stored mode."""
    _, _, _, k2 = sf.wavenumbers(N)
    E = np.exp(-nu * k2 * (dt / 2.0))
    E2 = E * E
    return sf.gather_kept(E[None])[0], sf.gather_kept(E2[None])[0], E2


def step(state: sf.SpectralField, dt: float) -> sf.SpectralField:
    """One integrating-factor RK4 step (viscous term exact).

    The stages run on the kept modes only; every other mode is outside the
    nonlinear term's range and decays by the viscous factor alone.
    """
    N, nu = state.N, state.nu
    E, E2, E2_full = _integrating_factors(N, nu, dt)
    v = sf.gather_kept(state.coeffs)
    a = nonlinear_term(v, N)
    b = nonlinear_term(E * (v + (dt / 2.0) * a), N)
    c = nonlinear_term(E * v + (dt / 2.0) * b, N)
    d = nonlinear_term(E2 * v + dt * E * c, N)
    new = E2_full * state.coeffs
    sf.scatter_kept(E2 * v + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d), new)
    return sf.SpectralField(N=N, nu=nu, coeffs=new)


def simulate(config: SolverConfig, on_sample: Callable | None = None):
    """Advance the configured initial datum to T.

    Returns ([final state], NormTrajectory, EnergyReport).  Energy and
    dissipation are recorded at every step from the coefficients; the norm
    table is sampled every ``sample_stride`` steps, at t = 0 and at T, and
    ``on_sample(t, state)`` is called once per sample time.  The hook must
    not modify ``state``, and must copy it to keep it past the call.  Warns
    with CFLViolation when the initial advective CFL number exceeds 0.5,
    and raises NonFinite at the first non-finite coefficient.
    """
    state = config.make_initial_field()
    N, n_steps = config.N, config.n_steps

    umax = float(np.max(np.abs(sf.to_physical(state.coeffs, N))))
    cfl = umax * config.dt * N / (2.0 * np.pi)
    if cfl > 0.5:
        message = f"advective CFL number {cfl:.3f} > 0.5; step may be inaccurate"
        warnings.warn(message, CFLViolation, stacklevel=2)
        log.warning("CFL advisory: number %.3f exceeds 0.5", cfl)

    step_times, energy, dissipation = [], [], []
    pairs = list(dict.fromkeys((int(k), float(r)) for k, r in config.norms))
    sample_times, samples = [], {pair: [] for pair in pairs}

    def record_energy(t: float, f: sf.SpectralField) -> None:
        step_times.append(t)
        u_sq, grad_sq = sf.parseval_sums(f.coeffs, N, (0, 1))
        energy.append(0.5 * u_sq)
        dissipation.append(config.nu * grad_sq)

    def sample(t: float, f: sf.SpectralField) -> None:
        sample_times.append(t)
        for pair in pairs:
            samples[pair].append(sf.lebesgue_norm(f, *pair))
        if on_sample is not None:
            on_sample(t, f)

    record_energy(0.0, state)
    sample(0.0, state)
    for i in range(1, n_steps + 1):
        state = step(state, config.dt)
        t = i * config.dt
        if not np.all(np.isfinite(state.coeffs.view(np.float64))):
            raise NonFinite(time=t, step=i)
        record_energy(t, state)
        if i % config.sample_stride == 0 or i == n_steps:
            sample(t, state)

    traj = NormTrajectory(
        times=np.asarray(sample_times),
        samples={pair: np.asarray(vals) for pair, vals in samples.items()},
    )
    report = build_energy_report(
        times=np.asarray(step_times),
        energy=np.asarray(energy),
        dissipation=np.asarray(dissipation),
        nu=config.nu,
    )
    return [state], traj, report
