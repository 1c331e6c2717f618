"""Pseudo-spectral time stepping for the incompressible equations on the
periodic box, with integrating-factor RK4 and 2/3-rule dealiasing.

The advanced form is d/dt uhat = -P[i k . F(u (x) u)] - nu |k|^2 uhat + P fhat,
with the viscous factor exp(-nu |k|^2 t) treated exactly.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import CFLViolation, NonFinite
from . import field as sf
from .diagnostics import NormTrajectory, build_energy_report

__all__ = ["SolverConfig", "nonlinear_term", "step", "simulate"]

log = logging.getLogger(__name__)

# forcing: callable t -> spectral coefficient array (3, N, N, N//2+1), or None
Forcing = Optional[Callable[[float], np.ndarray]]

DEFAULT_NORM_PAIRS = ((0, 6.0), (1, 3.0), (1, 2.0), (0, 2.0), (2, 2.0))


@dataclass
class SolverConfig:
    N: int = 32
    nu: float = 0.1
    dt: float = 1e-3
    T: float = 1.0
    initial_condition: str = "taylor_green"
    ic_params: dict = dc_field(default_factory=dict)
    sample_stride: int = 10
    forcing: Forcing = None
    norms: Sequence[tuple[int, float]] = DEFAULT_NORM_PAIRS
    keep_fields: Optional[bool] = None  # None: keep when N <= 32

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if self.N < 8:
            raise ValueError(f"N={self.N} must be >= 8")

    def make_initial_field(self) -> sf.SpectralField:
        if self.initial_condition == "taylor_green":
            return sf.init_taylor_green(self.N, self.nu)
        if self.initial_condition == "random":
            rng = np.random.default_rng(int(self.ic_params.get("seed", 0)))
            return sf.random_solenoidal(
                self.N, self.nu, rng, decay=float(self.ic_params.get("decay", 2.0))
            )
        raise ValueError(f"unknown initial_condition {self.initial_condition!r}")


# the six independent entries of the symmetric tensor u_a u_b,
# and the flat index of (a, b) within them
_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYM_INDEX = {(a, b): i for i, (a, b) in enumerate(_SYM_PAIRS)}
_SYM_INDEX.update({(b, a): i for i, (a, b) in enumerate(_SYM_PAIRS)})


def nonlinear_term(coeffs: np.ndarray, N: int, forcing_hat: np.ndarray | None = None) -> np.ndarray:
    """-P[i k_b F(u_a u_b)] + P fhat, dealiased.

    The quadratic term is formed pseudo-spectrally from the dealiased
    velocity, so the product is alias-free under the 2/3 rule; only the six
    independent entries of the symmetric product tensor are transformed.
    """
    kx, ky, kz, _ = sf.wavenumbers(N)
    kvec = (kx, ky, kz)
    u = sf.to_physical(sf.dealias(coeffs, N), N)
    prod_hat = sf.to_spectral(np.stack([u[a] * u[b] for a, b in _SYM_PAIRS]))
    out = np.empty_like(coeffs)
    for a in range(3):
        out[a] = -1j * (
            kvec[0] * prod_hat[_SYM_INDEX[a, 0]]
            + kvec[1] * prod_hat[_SYM_INDEX[a, 1]]
            + kvec[2] * prod_hat[_SYM_INDEX[a, 2]]
        )
    if forcing_hat is not None:
        out += forcing_hat
    return sf.dealias(sf.leray_project_coeffs(out, N), N)


def _cfl_number(coeffs: np.ndarray, N: int, dt: float) -> float:
    u = sf.to_physical(coeffs, N)
    umax = float(np.max(np.abs(u)))
    return umax * dt * N / (2.0 * np.pi)


def step(
    state: sf.SpectralField,
    dt: float,
    forcing_hat: np.ndarray | None = None,
    disable_nonlinear: bool = False,
    check_cfl: bool = False,
) -> sf.SpectralField:
    """One integrating-factor RK4 step (viscous term exact)."""
    N, nu = state.N, state.nu
    _, _, _, k2 = sf.wavenumbers(N)
    E = np.exp(-nu * k2 * (dt / 2.0))
    E2 = E * E
    v = state.coeffs

    if check_cfl:
        cfl = _cfl_number(v, N, dt)
        if cfl > 0.5:
            warnings.warn(
                f"advective CFL number {cfl:.3f} > 0.5; step may be inaccurate",
                CFLViolation,
                stacklevel=2,
            )
            log.warning("CFL advisory: number %.3f exceeds 0.5", cfl)

    if disable_nonlinear:
        if forcing_hat is None:
            def nl(c):
                return np.zeros_like(c)
        else:
            f_proj = sf.dealias(sf.leray_project_coeffs(forcing_hat, N), N)

            def nl(c):
                return f_proj
    else:
        def nl(c):
            return nonlinear_term(c, N, forcing_hat)

    a = nl(v)
    b = nl(E * (v + (dt / 2.0) * a))
    c = nl(E * v + (dt / 2.0) * b)
    d = nl(E2 * v + dt * E * c)
    new = E2 * v + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
    return sf.SpectralField(N=N, nu=nu, coeffs=new)


def _inner_product(a: np.ndarray, b: np.ndarray, N: int) -> float:
    """(2pi)^3 sum_k Re(ahat conj(bhat)) over the full lattice."""
    w = sf.hermitian_weights(N)
    return float(sf.BOX_VOLUME * np.sum(w * (a * np.conj(b)).real))


def simulate(config: SolverConfig):
    """Advance the configured initial datum to T.

    Returns (sampled fields, NormTrajectory, EnergyReport).  Energy and
    dissipation are accumulated at every step from the coefficients; the
    norm table is sampled every ``sample_stride`` steps.  Raises NonFinite
    at the first non-finite coefficient.
    """
    state = config.make_initial_field()
    n_steps = int(round(config.T / config.dt))
    keep = config.keep_fields if config.keep_fields is not None else config.N <= 32

    step_times = [0.0]
    energy = [0.5 * sf.spectral_l2_sq(state.coeffs, config.N)]
    dissipation = [config.nu * sf.spectral_gradient_l2_sq(state.coeffs, config.N)]
    f0 = config.forcing(0.0) if config.forcing is not None else None
    forcing_work = [_inner_product(f0, state.coeffs, config.N) if f0 is not None else 0.0]
    forcing_l2 = [np.sqrt(sf.spectral_l2_sq(f0, config.N)) if f0 is not None else 0.0]

    pairs = [(int(k), float(r)) for k, r in config.norms]
    sample_times = [0.0]
    samples = {pair: [sf.lebesgue_norm(state, *pair)] for pair in pairs}
    fields = [state.copy()] if keep else []

    for i in range(n_steps):
        t = i * config.dt
        fhat = config.forcing(t) if config.forcing is not None else None
        state = step(state, config.dt, forcing_hat=fhat, check_cfl=(i == 0))
        t_next = (i + 1) * config.dt
        if not np.all(np.isfinite(state.coeffs.view(np.float64))):
            raise NonFinite(time=t_next, step=i + 1)
        step_times.append(t_next)
        energy.append(0.5 * sf.spectral_l2_sq(state.coeffs, config.N))
        dissipation.append(config.nu * sf.spectral_gradient_l2_sq(state.coeffs, config.N))
        f_next = config.forcing(t_next) if config.forcing is not None else None
        forcing_work.append(
            _inner_product(f_next, state.coeffs, config.N) if f_next is not None else 0.0
        )
        forcing_l2.append(
            np.sqrt(sf.spectral_l2_sq(f_next, config.N)) if f_next is not None else 0.0
        )
        if (i + 1) % config.sample_stride == 0 or i + 1 == n_steps:
            if sample_times[-1] != t_next:
                sample_times.append(t_next)
                for pair in pairs:
                    samples[pair].append(sf.lebesgue_norm(state, *pair))
                if keep:
                    fields.append(state.copy())

    traj = NormTrajectory(
        times=np.asarray(sample_times),
        samples={pair: np.asarray(vals) for pair, vals in samples.items()},
    )
    report = build_energy_report(
        times=np.asarray(step_times),
        energy=np.asarray(energy),
        dissipation=np.asarray(dissipation),
        forcing_work=np.asarray(forcing_work),
        forcing_l2=np.asarray(forcing_l2),
        nu=config.nu,
    )
    return fields, traj, report
