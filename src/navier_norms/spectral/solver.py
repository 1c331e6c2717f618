"""Pseudo-spectral time stepping for the unforced incompressible equations
on the periodic box, with integrating-factor RK4 and 2/3-rule dealiasing.

The advanced form is d/dt uhat = -P[i k . F(u (x) u)] - nu |k|^2 uhat,
with the viscous factor exp(-nu |k|^2 t) treated exactly.
"""

from __future__ import annotations

import contextvars
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
def _pool():
    """The threads that run every part of a split pass but the first, and
    the overlapped norm sampler; created at first use, so importing the
    package starts no thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=sf.cpu_count() - 1, thread_name_prefix="navier-norms")


def _in_parts(kernel: Callable[[slice], None], length: int, N: int) -> None:
    """Call ``kernel(part)`` for contiguous slices ``part`` that cover
    ``range(length)``, one per ``field.fft_workers(N)``, in parallel.

    The first part runs on the calling thread and the others on one thread
    pool, each in a copy of the caller's ``contextvars`` context, so numpy's
    ``errstate`` holds in every part.  Every part ends before this returns
    or raises; the caller's exception comes first, then the pool's in part
    order.  A kernel must be pointwise: each part writes only its own slice
    of arrays the calling thread allocated (its scratch too), allocates no
    array and calls no traced or cached function.  So every value is the
    same for any number of parts.  The pool's threads only write disjoint
    slices; no two callers may step at once.

    Below N = 64 ``fft_workers(N)`` is 1: the kernel is called once on the
    whole range and the pool is left to the norm sampler (see
    ``simulate``).  On 2 cores, with RK4 steps alternated in one process
    with the split on and off, a step took 52-54 ms split against 62-65 ms
    serial at N = 64 (68 of 80 steps won, CPU time per step not higher),
    but 11.4-12.5 ms against 9.9-11.3 ms at N = 32 (30 of 200 won), where a
    part is too short to repay the hand-off.
    """
    parts = sf.fft_workers(N)
    bounds = [length * i // parts for i in range(parts + 1)]
    first, *rest = (slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    futures = [_pool().submit(contextvars.copy_context().run, kernel, part) for part in rest]
    try:
        kernel(first)
    finally:
        errors = [future.exception() for future in futures]  # waits for each part
    for error in errors:
        if error is not None:
            raise error


@functools.lru_cache(maxsize=1)
def _products(N: int) -> np.ndarray:
    """The product array that every ``nonlinear_term`` call at this N
    writes into."""
    return np.empty((5, N, N, N))


def _minus_i_dot(out: np.ndarray, terms, scratch: np.ndarray) -> None:
    """out = -1j (k_1 f_1 + k_2 f_2 + ...) for the (k, f) in ``terms``,
    added in order; ``scratch`` is overwritten and may be f_1."""
    (k, f), *rest = terms
    np.multiply(k, f, out=out)
    for k, f in rest:
        np.multiply(k, f, out=scratch)
        np.add(out, scratch, out=out)
    np.multiply(-1j, out, out=out)


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
    values bit for bit.  The products (along x) and the derivative and
    projection (along the kept modes) run in parts through ``_in_parts``.

    The product array and the inverse transform's spectral layout are
    workspaces cached for the most recent N, so the function is not
    re-entrant: no two callers may step at once.  The FFT workers only read
    them, and the parts' threads only write disjoint slices of them.  The
    returned array is fresh.
    """
    kept = sf.kept_modes(N)
    prod = _products(N)
    u = sf.to_physical_kept(coeffs, N)

    def products(x: slice) -> None:
        ux, uy, uz = u[:, x]
        xx, xy, xz, yy, yz = prod[:, x]
        # u_z^2 waits in the yz row
        np.multiply(uz, uz, out=yz)
        np.multiply(ux, ux, out=xx)
        np.subtract(xx, yz, out=xx)
        np.multiply(uy, uy, out=yy)
        np.subtract(yy, yz, out=yy)
        np.multiply(ux, uy, out=xy)
        np.multiply(ux, uz, out=xz)
        np.multiply(uy, uz, out=yz)

    _in_parts(products, N, N)
    # the result takes the freed velocity's memory before the forward
    # transform, so the stage results kept across calls fragment no block
    del u
    out = np.empty(coeffs.shape, dtype=complex)
    spec = sf.to_spectral_kept(prod)

    def derivative_and_projection(m: slice) -> None:
        xx, xy, xz, yy, yz = spec[:, m]
        kx, ky, kz = kept.kx[m], kept.ky[m], kept.kz[m]
        o = out[:, m]
        # the rows of spec are scratch once read for the last time: xx
        # after its product, xy after the second component
        _minus_i_dot(o[0], ((kx, xx), (ky, xy), (kz, xz)), xx)
        _minus_i_dot(o[1], ((kx, xy), (ky, yy), (kz, yz)), xx)
        _minus_i_dot(o[2], ((kx, xz), (ky, yz)), xx)
        sf.leray_project_in_place(o, kx, ky, kz, kept.k2_safe[m], (xx, xy))

    _in_parts(derivative_and_projection, out.shape[1], N)
    return out


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
    nonlinear term's range and decays by the viscous factor alone.  Each
    stage combination, and the viscous decay of the full layout, runs in
    parts through ``_in_parts``, with the operations of

        b = N(E (v + dt/2 a)),  c = N(E v + dt/2 b),  d = N(E2 v + (dt E) c),
        new = E2 v + dt/6 (E2 a + (2 E) (b + c) + d)

    in that order, so the step is the same for any number of parts.
    """
    N, nu = state.N, state.nu
    E, E2, E2_full = _integrating_factors(N, nu, dt)
    dtE, twoE = dt * E, 2.0 * E
    half, sixth = dt / 2.0, dt / 6.0
    v = sf.gather_kept(state.coeffs)
    M = v.shape[1]

    def into_b(m: slice) -> None:  # arg = E (v + dt/2 a)
        am = arg[:, m]
        np.multiply(half, a[:, m], out=am)
        np.add(v[:, m], am, out=am)
        np.multiply(E[m], am, out=am)

    def into_c(m: slice) -> None:  # arg = E v + dt/2 b
        am, tm = arg[:, m], tmp[:, m]
        np.multiply(E[m], v[:, m], out=am)
        np.multiply(half, b[:, m], out=tm)
        np.add(am, tm, out=am)

    def into_d(m: slice) -> None:  # arg = E2 v + (dt E) c
        am, tm = arg[:, m], tmp[:, m]
        np.multiply(E2[m], v[:, m], out=am)
        np.multiply(dtE[m], c[:, m], out=tm)
        np.add(am, tm, out=am)

    def into_new(m: slice) -> None:  # arg = E2 v + dt/6 (E2 a + (2 E) (b + c) + d)
        am, tm = arg[:, m], tmp[:, m]
        np.add(b[:, m], c[:, m], out=tm)
        np.multiply(twoE[m], tm, out=tm)
        np.multiply(E2[m], a[:, m], out=am)
        np.add(am, tm, out=am)
        np.add(am, d[:, m], out=am)
        np.multiply(sixth, am, out=am)
        np.multiply(E2[m], v[:, m], out=tm)
        np.add(tm, am, out=am)

    def decay(x: slice) -> None:  # new = E2_full coeffs on every stored mode
        np.multiply(E2_full[x], state.coeffs[:, x], out=new[:, x])

    # arg is the argument of each nonlinear_term call, then the new kept
    # modes; the scratch tmp lives through one combination only, as an
    # expression's temporaries would (held across the transforms, it
    # fragments the heap and raises the peak memory by about 2 MB at N = 64)
    a = nonlinear_term(v, N)
    arg = np.empty_like(v)
    _in_parts(into_b, M, N)
    b = nonlinear_term(arg, N)
    tmp = np.empty_like(v)
    _in_parts(into_c, M, N)
    del tmp
    c = nonlinear_term(arg, N)
    tmp = np.empty_like(v)
    _in_parts(into_d, M, N)
    del tmp
    d = nonlinear_term(arg, N)
    new = np.empty_like(state.coeffs)
    _in_parts(decay, N, N)
    tmp = np.empty_like(v)
    _in_parts(into_new, M, N)
    sf.scatter_kept(arg, new)
    return sf.SpectralField(N=N, nu=nu, coeffs=new)


def simulate(config: SolverConfig, on_sample: Callable | None = None):
    """Advance the configured initial datum to T.

    Returns ([final state], NormTrajectory, EnergyReport).  Energy and
    dissipation are recorded at every step from the coefficients; the norm
    table is sampled every ``sample_stride`` steps, at t = 0 and at T, and
    ``on_sample(t, state)`` is called once per sample time, in time order,
    on the calling thread.  The hook must not modify ``state``, and must
    copy it to keep it past the call.  Warns with CFLViolation when the
    initial advective CFL number exceeds 0.5, and raises NonFinite at the
    first non-finite coefficient.

    Below N = 64 the transforms and the step's passes run on one thread
    (``field.fft_workers(N)``), and a second thread, where there is one,
    computes each sample's norms on ``_pool()`` while the next steps run.
    At most one sample is in flight: it is collected before the next one is
    handed over and before the trajectory is built, and it runs in a copy
    of the caller's ``contextvars`` context, as ``_in_parts`` parts do.
    Every exit waits for it, and its exception is raised here.  The sampler
    transforms with ``to_physical``, which holds no workspace, and must
    never call ``to_physical_kept``, whose layout the step owns; the states
    it reads are fresh arrays that no step writes.  So every figure is the
    same, bit for bit, inline or overlapped.  On 2 cores, a simulate of
    random data at N = 32 with a sample after each of 50 steps took 0.44 s
    overlapped against 0.61 s inline, both with one-thread transforms, and
    0.79 s with two-thread transforms and inline sampling (medians of 12
    alternated runs; CPU time 0.70, 0.61 and 0.82 s).  Where the transforms
    use every thread, from N = 64 or with one, sampling runs inline.
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
    # a thread that the transforms leave idle takes the sampler
    overlap = sf.fft_workers(N) < sf.fft_workers()
    in_flight = None  # the future of the sample on the pool

    def record_energy(t: float, f: sf.SpectralField) -> None:
        step_times.append(t)
        u_sq, grad_sq = sf.parseval_sums(f.coeffs, N, (0, 1))
        energy.append(0.5 * u_sq)
        dissipation.append(config.nu * grad_sq)

    def norms(f: sf.SpectralField) -> list[float]:
        return [sf.lebesgue_norm(f, *pair) for pair in pairs]

    def record_norms(values: list[float]) -> None:
        for pair, value in zip(pairs, values):
            samples[pair].append(value)

    def collect() -> None:
        nonlocal in_flight
        if in_flight is not None:
            future, in_flight = in_flight, None
            record_norms(future.result())

    def sample(t: float, f: sf.SpectralField) -> None:
        nonlocal in_flight
        sample_times.append(t)
        collect()
        if overlap:
            in_flight = _pool().submit(contextvars.copy_context().run, norms, f)
        else:
            record_norms(norms(f))
        if on_sample is not None:
            on_sample(t, f)

    try:
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
        collect()
    finally:
        if in_flight is not None:
            in_flight.exception()  # waits; the exception on the way out wins

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
