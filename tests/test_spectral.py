import math
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid

from navier_norms.errors import CFLViolation, MissingSamples, NonFinite, NonIntegrable
from navier_norms.spectral import (
    NormTrajectory,
    SolverConfig,
    SpectralField,
    biot_savart,
    divergence_error,
    init_taylor_green,
    mixed_norm,
    random_solenoidal,
    simulate,
    step,
    vorticity,
    weighted_singular_integral,
)
from navier_norms.spectral import io as spio
from navier_norms.spectral import field, solver
from navier_norms.spectral.field import (
    BOX_VOLUME,
    dealias,
    dealias_mask,
    kept_modes,
    lebesgue_norm,
    leray_project_coeffs,
    parseval_sq,
    to_physical,
    to_physical_kept,
    to_spectral,
    to_spectral_kept,
    wavenumbers,
)
from navier_norms.spectral.solver import nonlinear_term

N = 16


def random_coeffs(rng, n=N):
    shape = (3, n, n, n // 2 + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def kept_index(n):
    """The flat index of every mode the 2/3 rule keeps, in C order: the
    order of the kept-mode arrays, stated here independently of them."""
    return np.flatnonzero(dealias_mask(n))


# -- projection ---------------------------------------------------------------


def test_projection_idempotent_and_divergence_free():
    rng = np.random.default_rng(0)
    c = random_coeffs(rng)
    p = leray_project_coeffs(c, N)
    assert np.allclose(leray_project_coeffs(p, N), p, atol=1e-14)
    kx, ky, kz, _ = wavenumbers(N)
    div = kx * p[0] + ky * p[1] + kz * p[2]
    assert np.max(np.abs(div)) < 1e-12


def test_projection_kills_gradients():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((N, N, N // 2 + 1)) + 1j * rng.standard_normal(
        (N, N, N // 2 + 1)
    )
    kx, ky, kz, _ = wavenumbers(N)
    grad = np.stack([1j * kx * phi, 1j * ky * phi, 1j * kz * phi])
    grad[:, 0, 0, 0] = 0.0
    assert np.max(np.abs(leray_project_coeffs(grad, N))) < 1e-12


def test_projection_is_orthogonal():
    rng = np.random.default_rng(2)
    c = random_coeffs(rng)
    p = leray_project_coeffs(c, N)
    inner = np.sum((p * np.conj(c - p)).real)
    assert abs(inner) < 1e-10 * np.sum(np.abs(c) ** 2)


# -- initial data and differential operators ----------------------------------


def test_taylor_green_structure():
    f = init_taylor_green(N, nu=0.1)
    kx, ky, kz, _ = wavenumbers(N)
    high = (np.abs(kx) > 1) | (np.abs(ky) > 1) | (np.abs(kz) > 1)
    assert np.max(np.abs(f.coeffs[:, high])) < 1e-14
    assert divergence_error(f) < 1e-13
    assert parseval_sq(f.coeffs, N, 0) == pytest.approx(2.0 * math.pi**3, rel=1e-12)
    assert lebesgue_norm(f, 0, 2.0) ** 2 == pytest.approx(2.0 * math.pi**3, rel=1e-12)


def test_random_solenoidal_is_divergence_free():
    f = random_solenoidal(N, 0.1, np.random.default_rng(3))
    assert divergence_error(f) < 1e-12
    assert abs(f.coeffs[0, 0, 0, 0]) == 0.0


def test_vorticity_of_gradient_vanishes():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((N, N, N // 2 + 1)) * (1.0 + 0.0j)
    kx, ky, kz, _ = wavenumbers(N)
    grad = np.stack([1j * kx * phi, 1j * ky * phi, 1j * kz * phi])
    f = SpectralField(N=N, nu=1.0, coeffs=grad)
    assert np.max(np.abs(vorticity(f).coeffs)) < 1e-12


def test_vorticity_is_solenoidal():
    f = random_solenoidal(N, 0.1, np.random.default_rng(5))
    w = vorticity(f)
    kx, ky, kz, _ = wavenumbers(N)
    div = kx * w.coeffs[0] + ky * w.coeffs[1] + kz * w.coeffs[2]
    assert np.max(np.abs(div)) < 1e-11


def test_biot_savart_inverts_vorticity():
    f = random_solenoidal(N, 0.1, np.random.default_rng(6))
    g = biot_savart(vorticity(f))
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


# -- norms --------------------------------------------------------------------


def _grid_l2_sq(f, k):
    """|grad^k u|^2 in L^2 by quadrature on the collocation grid, summed over
    every one of the 3^(k+1) derivative components."""
    kvec = wavenumbers(f.N)[:3]
    comps = list(f.coeffs)
    for _ in range(k):
        comps = [1j * kb * c for c in comps for kb in kvec]
    return float(np.mean(np.sum(to_physical(np.stack(comps), f.N) ** 2, axis=0)) * BOX_VOLUME)


def _parseval_case(n, case):
    if case == "taylor_green":
        return init_taylor_green(n, 0.1)
    decay = 1.0 if case == "decay_1" else 2.0
    f = random_solenoidal(n, 0.05, np.random.default_rng(7), decay=decay)
    if case == "stepped":
        for _ in range(3):
            f = step(f, 2e-3)
    return f


def test_plancherel_identity():
    for n in (16, 32):
        for case in ("taylor_green", "decay_2", "decay_1", "stepped"):
            f = _parseval_case(n, case)
            for k in (0, 1, 2):
                assert parseval_sq(f.coeffs, n, k) == pytest.approx(_grid_l2_sq(f, k), rel=1e-14)


def test_parseval_exact_on_raw_grid_data():
    # undealiased real data fill the Nyquist planes; for k = 0 the grid sum
    # and the coefficient sum are still equal, by discrete Parseval
    u = np.random.default_rng(13).standard_normal((3, N, N, N))
    grid = float(np.mean(np.sum(u**2, axis=0)) * BOX_VOLUME)
    assert parseval_sq(to_spectral(u), N, 0) == pytest.approx(grid, rel=1e-14)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, math.inf])
def test_constant_field_norms(r):
    c = np.zeros((3, N, N, N // 2 + 1), dtype=complex)
    c[0, 0, 0, 0] = 3.0
    c[1, 0, 0, 0] = 4.0
    f = SpectralField(N=N, nu=1.0, coeffs=c)
    expected = 5.0 if r == math.inf else 5.0 * BOX_VOLUME ** (1.0 / r)
    assert lebesgue_norm(f, 0, r) == pytest.approx(expected, rel=1e-12)
    assert lebesgue_norm(f, 1, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_lebesgue_norm_rejects_small_r():
    f = init_taylor_green(N, 0.1)
    with pytest.raises(ValueError):
        lebesgue_norm(f, 0, 0.5)
    with pytest.raises(ValueError):
        lebesgue_norm(f, 0, math.nan)
    for r in (2.0, 3.0):
        with pytest.raises(ValueError, match="k=3"):
            lebesgue_norm(f, 3, r)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("ic", ["taylor_green", "random"])
def test_second_derivative_norm_matches_dense_27_components(n, ic):
    # the k = 2 norm transforms the 18 distinct d_b d_c u_a; summing all 27
    # squares in (a, b, c) order must reproduce the dense form bit for bit
    f = init_taylor_green(n, 0.1) if ic == "taylor_green" else random_solenoidal(n, 0.1, np.random.default_rng(5))
    kvec = wavenumbers(n)[:3]
    dense = np.stack([-kb * kc * f.coeffs[a] for a in range(3) for kb in kvec for kc in kvec])
    mag = np.sqrt(np.sum(to_physical(dense, n) ** 2, axis=0))
    for r in (1.0, 2.0, 3.0, 6.0, math.inf):
        expected = float(mag.max()) if r == math.inf else float(np.mean(mag**r) * BOX_VOLUME) ** (1.0 / r)
        assert lebesgue_norm(f, 2, r) == expected


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("ic", ["taylor_green", "random"])
def test_gradient_norm_matches_dense_9_components(n, ic):
    # the k = 1 norm transforms the derivatives of one u_a at a time; summing
    # the 9 squares in (a, b) order must reproduce the dense form bit for bit
    f = init_taylor_green(n, 0.1) if ic == "taylor_green" else random_solenoidal(n, 0.1, np.random.default_rng(5))
    kvec = wavenumbers(n)[:3]
    dense = np.stack([1j * kb * f.coeffs[a] for a in range(3) for kb in kvec])
    mag = np.sqrt(np.sum(to_physical(dense, n) ** 2, axis=0))
    for r in (1.0, 3.0, 6.0, math.inf):
        expected = float(mag.max()) if r == math.inf else float(np.mean(mag**r) * BOX_VOLUME) ** (1.0 / r)
        assert lebesgue_norm(f, 1, r) == expected


def test_traced_peak_memory_of_step_and_sampler():
    # traced peak, in N^3 float64 grids at N = 32, of a repeated
    # nonlinear_term call (its workspace cached) and of k = 1 and k = 2
    # quadrature samples: 9.1, 7.2 and 13.5 grids streamed, against 20.4,
    # 19.1 and 45.0 with per-call arrays and whole derivative stacks
    n = 32
    f = random_solenoidal(n, 0.1, np.random.default_rng(6))
    v = f.coeffs.reshape(3, -1)[:, kept_index(n)]
    nonlinear_term(v, n)

    def peak_grids(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / (n**3 * 8)
        finally:
            tracemalloc.stop()

    assert peak_grids(lambda: nonlinear_term(v, n)) < 10.5
    assert peak_grids(lambda: lebesgue_norm(f, 1, 3.0)) < 9.0
    assert peak_grids(lambda: lebesgue_norm(f, 2, 3.0)) < 16.5


def test_divergence_error_zero_field():
    f = SpectralField(N=N, nu=1.0, coeffs=np.zeros((3, N, N, N // 2 + 1), dtype=complex))
    assert divergence_error(f) == 0.0


def test_field_validation():
    with pytest.raises(ValueError):
        SpectralField(N=12, nu=1.0, coeffs=np.zeros((3, 12, 12, 7), dtype=complex))
    for nu in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SpectralField(N=16, nu=nu, coeffs=np.zeros((3, 16, 16, 9), dtype=complex))
    with pytest.raises(ValueError):
        SpectralField(N=16, nu=1.0, coeffs=np.zeros((3, 16, 16, 8), dtype=complex))


# -- time stepping ------------------------------------------------------------


def test_single_mode_viscous_decay():
    nu, dt = 0.3, 0.01
    c = np.zeros((3, N, N, N // 2 + 1), dtype=complex)
    # k = (0, 0, 1), velocity along x: a divergence-free shear flow, whose
    # nonlinear term u.grad u vanishes exactly
    c[0, 0, 0, 1] = 1.0
    f = SpectralField(N=N, nu=nu, coeffs=c)
    for _ in range(5):
        f = step(f, dt)
    expected = math.exp(-nu * 1.0 * 5 * dt)
    assert abs(f.coeffs[0, 0, 0, 1] - expected) < 1e-10
    other = f.coeffs.copy()
    other[0, 0, 0, 1] = 0.0
    assert np.max(np.abs(other)) < 1e-14


def test_zero_field_stays_zero():
    f = SpectralField(N=N, nu=0.1, coeffs=np.zeros((3, N, N, N // 2 + 1), dtype=complex))
    g = step(f, 0.01)
    assert np.max(np.abs(g.coeffs)) == 0.0


def test_step_convergence_order():
    # difference between one step of size dt and two of size dt/2 is O(dt^5)
    f0 = random_solenoidal(N, 0.05, np.random.default_rng(8))

    def gap(dt):
        one = step(f0, dt)
        two = step(step(f0, dt / 2.0), dt / 2.0)
        return float(np.max(np.abs(one.coeffs - two.coeffs)))

    g1, g2 = gap(0.1), gap(0.05)
    assert g2 < g1 / 8.0


def _galilean_boost_error(dt, steps, U=(1.0, -2.0, 0.5)):
    """Largest mode error, relative to the largest mode, of the run started
    from the datum with mean mode U against the unboosted run translated by
    U t: u_U(x, t) = U + u(x - U t, t), i.e. uhat(k, t) exp(-i k.U t)."""
    f = random_solenoidal(N, 0.1, np.random.default_rng(12))
    g = f.copy()
    g.coeffs[:, 0, 0, 0] = U
    for _ in range(steps):
        f, g = step(f, dt), step(g, dt)
    kx, ky, kz, _ = wavenumbers(N)
    expected = f.coeffs * np.exp(-1j * (kx * U[0] + ky * U[1] + kz * U[2]) * (steps * dt))
    expected[:, 0, 0, 0] = U
    return np.max(np.abs(g.coeffs - expected)) / np.max(np.abs(f.coeffs))


def test_galilean_boost_commutes_with_the_step():
    # Taylor-Green is its own translate under u -> -u, so it cannot see the
    # sign of the advection; a boost can.  Both runs end at T = 0.02, so
    # halving dt divides RK4's global error by about 2^4 = 16.
    coarse, fine = _galilean_boost_error(2e-3, 10), _galilean_boost_error(1e-3, 20)
    assert fine < 1e-9
    assert 10.0 < coarse / fine < 22.0


def _scale_up(f):
    """u -> 2 u(2x) on the grid of twice the size: mode k becomes mode 2k."""
    n = f.N
    coeffs = np.zeros((3, 2 * n, 2 * n, n + 1), dtype=complex)
    coeffs[:, ::2, ::2, ::2] = 2.0 * f.coeffs
    return SpectralField(N=2 * n, nu=f.nu, coeffs=coeffs)


def test_navier_stokes_scaling_commutes_with_the_step():
    # u_2(x, t) = 2 u(2x, 4t) solves the same equations on the same torus, and
    # the 2/3 rule and the aliasing map onto each other: a run at N with step
    # dt equals a run at 2N with step dt/4, to roundoff.  |grad^k u_2| in L^r
    # is 2^(1+k) times that of u for every r, the energy 4 times and the
    # dissipation 16 times, which pins the powers of |k| in the norms.
    f = random_solenoidal(N, 0.1, np.random.default_rng(14))
    g = _scale_up(f)
    for _ in range(5):
        f, g = step(f, 2e-3), step(g, 5e-4)
    expected = _scale_up(f).coeffs
    assert np.max(np.abs(g.coeffs - expected)) < 1e-14 * np.max(np.abs(expected))
    for k in (0, 1, 2):
        for r in (2.0, 3.0, 6.0, math.inf):
            assert lebesgue_norm(g, k, r) == pytest.approx(2.0 ** (1 + k) * lebesgue_norm(f, k, r), rel=1e-13)
    assert parseval_sq(g.coeffs, 2 * N, 0) == pytest.approx(4.0 * parseval_sq(f.coeffs, N, 0), rel=1e-14)
    assert parseval_sq(g.coeffs, 2 * N, 1) == pytest.approx(16.0 * parseval_sq(f.coeffs, N, 1), rel=1e-14)


def _swap_xy(coeffs):
    """The x <-> y swap, in the components and in the layout."""
    return coeffs[[1, 0, 2]].transpose(0, 2, 1, 3)


def test_axis_permutation_commutes_with_the_step():
    f = random_solenoidal(N, 0.1, np.random.default_rng(15))
    g = SpectralField(N=N, nu=f.nu, coeffs=_swap_xy(f.coeffs))
    for _ in range(10):
        f, g = step(f, 2e-3), step(g, 2e-3)
    expected = _swap_xy(f.coeffs)
    assert np.max(np.abs(g.coeffs - expected)) < 1e-14 * np.max(np.abs(expected))
    for k in (0, 1, 2):
        for r in (2.0, 3.0, math.inf):
            assert lebesgue_norm(g, k, r) == pytest.approx(lebesgue_norm(f, k, r), rel=1e-13)


def test_nonlinear_term_is_divergence_free_and_dealiased():
    f = random_solenoidal(N, 0.1, np.random.default_rng(9))
    index = kept_index(N)
    out = np.zeros_like(f.coeffs)
    out.reshape(3, -1)[:, index] = nonlinear_term(f.coeffs.reshape(3, -1)[:, index], N)
    kx, ky, kz, _ = wavenumbers(N)
    div = kx * out[0] + ky * out[1] + kz * out[2]
    assert np.max(np.abs(div)) < 1e-12
    high = (np.abs(kx) > N / 3.0) | (np.abs(ky) > N / 3.0) | (np.abs(kz) > N / 3.0)
    assert np.max(np.abs(np.broadcast_to(high, out[0].shape) * out)) == 0.0


def _full_array_step(state, dt):
    """The RK4 step with every stage on the whole half-spectrum: dealias,
    the five products of the shifted stress u_a u_b - delta_ab u_z^2,
    derivative and Leray projection as separate full passes."""
    n, nu = state.N, state.nu
    kx, ky, kz, k2 = wavenumbers(n)

    def nonlinear(coeffs):
        u = to_physical(dealias(coeffs, n), n)
        zz = u[2] * u[2]
        tau = np.stack([u[0] * u[0] - zz, u[0] * u[1], u[0] * u[2], u[1] * u[1] - zz, u[1] * u[2]])
        xx, xy, xz, yy, yz = to_spectral(tau)
        out = np.empty_like(coeffs)
        out[0] = -1j * (kx * xx + ky * xy + kz * xz)
        out[1] = -1j * (kx * xy + ky * yy + kz * yz)
        out[2] = -1j * (kx * xz + ky * yz)
        factor = (kx * out[0] + ky * out[1] + kz * out[2]) / np.where(k2 == 0, 1.0, k2)
        out[0] -= kx * factor
        out[1] -= ky * factor
        out[2] -= kz * factor
        return dealias(out, n)

    E = np.exp(-nu * k2 * (dt / 2.0))
    E2 = E * E
    v = state.coeffs
    a = nonlinear(v)
    b = nonlinear(E * (v + (dt / 2.0) * a))
    c = nonlinear(E * v + (dt / 2.0) * b)
    d = nonlinear(E2 * v + dt * E * c)
    return SpectralField(N=n, nu=nu, coeffs=E2 * v + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("ic", ["taylor_green", "random"])
def test_step_matches_full_array_step(n, ic):
    f = init_taylor_green(n, 0.1) if ic == "taylor_green" else random_solenoidal(n, 0.05, np.random.default_rng(12))
    g = f
    for _ in range(3):
        f = step(f, 2e-3)
        g = _full_array_step(g, 2e-3)
    assert np.array_equal(f.coeffs, g.coeffs)


def test_nonlinear_term_workspace_carries_no_state():
    # each call overwrites the cached full and product arrays; a call on
    # non-finite data, interleaved grid sizes and a caller mutating the
    # returned array must leave the next call's result unchanged
    rng = np.random.default_rng(21)
    inputs = {}
    for n in (16, 32):
        a = random_solenoidal(n, 0.1, rng).coeffs.reshape(3, -1)[:, kept_index(n)]
        b = a.copy()
        b[0, 1], b[1, 2], b[2, -1] = np.nan, np.inf, -np.inf
        inputs[n] = (a, b)
    first = {n: nonlinear_term(a, n) for n, (a, _) in inputs.items()}
    with np.errstate(invalid="ignore", over="ignore"):
        for n, (_, b) in inputs.items():
            nonlinear_term(b, n)[...] = np.nan
    previous = first[32]
    for n in (32, 16, 16, 32):
        again = nonlinear_term(inputs[n][0], n)
        assert np.array_equal(again, first[n])
        assert not np.shares_memory(again, previous)
        again[...] = np.nan
        previous = again


@pytest.mark.parametrize("threads", [None, "1"])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_pruned_transforms_match_full_transforms(monkeypatch, n, threads):
    # random data on every kept mode, the |kx| = K, |ky| = K and kz = K
    # edges included: the pruned pair gives the full transforms' bits
    if threads is None:
        monkeypatch.delenv("NAVIER_NORMS_THREADS", raising=False)
    else:
        monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
    rng = np.random.default_rng(n)
    kept, index = kept_modes(n), kept_index(n)
    K = n // 3
    assert len(index) == len(kept.kx) == (2 * K + 1) ** 2 * (K + 1)
    assert {-K, K} <= set(kept.kx) and {-K, K} <= set(kept.ky) and max(kept.kz) == K
    kx, ky, kz, k2 = (np.broadcast_to(k, (n, n, n // 2 + 1)).ravel()[index] for k in wavenumbers(n))
    assert all(np.array_equal(a, b) for a, b in zip(kept, (kx, ky, kz, np.where(k2 == 0, 1.0, k2))))
    coeffs = rng.standard_normal((3, len(index))) + 1j * rng.standard_normal((3, len(index)))
    assert np.all(coeffs != 0)
    full = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
    full.reshape(3, -1)[:, index] = coeffs
    for _ in range(2):  # the second call reuses the cached layout
        assert np.array_equal(to_physical_kept(coeffs, n), to_physical(full, n))
    u = rng.standard_normal((6, n, n, n))
    assert np.array_equal(to_spectral_kept(u), to_spectral(u).reshape(6, -1)[:, index])


def _truncated(f):
    """The field with every mode outside the 2/3 rule set to zero."""
    return SpectralField(N=f.N, nu=f.nu, coeffs=dealias(f.coeffs, f.N))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("ic", ["taylor_green", "random"])
def test_nonlinear_term_equals_rotational_form(n, ic):
    # On 2/3-truncated data both u (x) u and u x omega are alias-free on the
    # kept modes, and -div(u (x) u) = u x omega - grad(|u|^2 / 2) for
    # solenoidal u, so P[u x omega] is the nonlinear term.  It is built here
    # from the full transforms, the curl and the full-layout projection, and
    # shares no product layout, row table or pruned transform with it.  The
    # random case is needed: Taylor-Green has u_z = 0, so a stress diagonal
    # left unshifted by u_z^2 reads as 0 there and about 0.5 on random data.
    f = init_taylor_green(n, 0.1) if ic == "taylor_green" else random_solenoidal(n, 0.1, np.random.default_rng(16), decay=1.0)
    f = _truncated(f)
    u = to_physical(f.coeffs, n)
    w = to_physical(vorticity(f).coeffs, n)
    cross = np.stack([u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]])
    expected = dealias(leray_project_coeffs(to_spectral(cross), n), n)
    index = kept_index(n)
    got = np.zeros_like(f.coeffs)
    got.reshape(3, -1)[:, index] = nonlinear_term(f.coeffs.reshape(3, -1)[:, index], n)
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def _abc_flow(n, nu, A=1.0, B=0.7, C=0.4):
    """The Arnold-Beltrami-Childress field, whose curl is itself."""
    x = np.arange(n) * (2.0 * np.pi / n)
    X, Y, Z = x[:, None, None], x[None, :, None], x[None, None, :]
    u = np.empty((3, n, n, n))
    u[0] = A * np.sin(Z) + C * np.cos(Y)
    u[1] = B * np.sin(X) + A * np.cos(Z)
    u[2] = C * np.sin(Y) + B * np.cos(X)
    return SpectralField(N=n, nu=nu, coeffs=to_spectral(u))


@pytest.mark.parametrize("n, steps", [(16, 10), (32, 200)])
def test_abc_flow_decays_exactly(n, steps):
    """The ABC flow has omega = u, so its advection (u.grad)u = grad(|u|^2/2)
    is a gradient that the projection removes, and u(t) = exp(-nu t) u0.

    The test catches a dropped projection or swapped derivative rows, but
    not a flipped advection sign (nor a wrong stage factor): the nonlinear
    term is zero here whatever its sign."""
    nu, dt = 0.1, 2e-3
    f0 = _truncated(_abc_flow(n, nu))
    f = f0
    for _ in range(steps):
        f = step(f, dt)
    expected = np.exp(-nu * steps * dt) * f0.coeffs
    assert np.linalg.norm(f.coeffs - expected) <= 1e-13 * np.linalg.norm(expected)


def test_simulate_after_blow_up_matches_one_before():
    config = SolverConfig(
        N=16, nu=0.05, dt=5e-3, T=0.02, sample_stride=1,
        initial_condition="random", ic_params={"seed": 4},
    )
    before = simulate(config)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(NonFinite):
            simulate(SolverConfig(N=16, nu=1e-4, dt=10.0, T=100.0, sample_stride=1))
    after = simulate(config)
    assert np.array_equal(after[0][-1].coeffs, before[0][-1].coeffs)
    for pair, values in before[1].samples.items():
        assert np.array_equal(after[1].samples[pair], values)
    assert np.array_equal(after[2].energy, before[2].energy)
    assert np.array_equal(after[2].dissipation, before[2].dissipation)


def test_cfl_advisory_warning():
    # Taylor-Green at N=16 with dt=0.25 has advective CFL number 0.64
    config = SolverConfig(N=16, nu=0.1, dt=0.25, T=0.25, sample_stride=1)
    with pytest.warns(CFLViolation):
        simulate(config)


def test_simulate_is_deterministic():
    config = SolverConfig(N=16, nu=0.1, dt=5e-3, T=0.05, sample_stride=2)
    _, t1, r1 = simulate(config)
    _, t2, r2 = simulate(config)
    for pair in t1.samples:
        assert np.array_equal(t1.samples[pair], t2.samples[pair])
    assert np.array_equal(r1.energy, r2.energy)


def test_on_sample_hook_sees_every_sample_once():
    # 9 steps at stride 2: samples at steps 0, 2, 4, 6, 8 and the short final 9
    config = SolverConfig(N=16, nu=0.1, dt=0.005, T=0.045, sample_stride=2)
    seen = []
    fields, traj, _ = simulate(config, on_sample=lambda t, state: seen.append((t, state)))
    times = [t for t, _ in seen]
    assert times == list(traj.times)
    assert times[0] == 0.0 and len(set(times)) == len(times) == 6
    assert times[-1] == pytest.approx(config.T, rel=1e-12)
    assert len(fields) == 1 and np.array_equal(fields[0].coeffs, seen[-1][1].coeffs)


def test_unforced_energy_decays():
    config = SolverConfig(N=16, nu=0.2, dt=5e-3, T=0.1, sample_stride=4)
    _, _, report = simulate(config)
    assert np.all(np.diff(report.energy) < 0)
    assert report.leray_residuals[0] >= -1e-12
    assert report.leray_residuals[1] >= -1e-12


def test_blowup_raises_nonfinite():
    config = SolverConfig(N=8, nu=1e-4, dt=10.0, T=100.0, sample_stride=1)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(NonFinite):
            simulate(config)


def test_split_step_independent_of_thread_count(monkeypatch):
    # N = 64 is at the split crossover, so on 2 or more cores every
    # pointwise pass of the step runs in two parts with 2 threads; the
    # results must not move a bit
    assert field._SPLIT_MIN_N <= 64
    config = SolverConfig(
        N=64, nu=0.05, dt=2e-3, T=4e-3, sample_stride=1, norms=((0, 6.0), (1, 2.0)),
        initial_condition="random", ic_params={"seed": 7},
    )
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
        states = []
        _, traj, report = simulate(config, on_sample=lambda t, f: states.append(f.coeffs.copy()))
        runs.append((states, traj, report))
    (s1, t1, r1), (s2, t2, r2) = runs
    assert len(s1) == len(s2) == 3
    assert all(a.tobytes() == b.tobytes() for a, b in zip(s1, s2))
    assert r1.energy.tobytes() == r2.energy.tobytes()
    assert r1.dissipation.tobytes() == r2.dissipation.tobytes()
    assert t1.samples.keys() == t2.samples.keys()
    for pair in t1.samples:
        assert t1.samples[pair].tobytes() == t2.samples[pair].tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_split_step_raises_floating_point_error(monkeypatch, threads):
    # the errstate of the caller holds in every part of the split passes
    monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
    rng = np.random.default_rng(2)
    huge = SpectralField(N=64, nu=0.1, coeffs=1e200 * random_coeffs(rng, 64))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        step(huge, 1e-3)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_in_parts_raises_in_the_caller_context(monkeypatch, threads):
    # the last part overflows: with 2 threads it runs on the pool
    monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
    big, out = np.full(64, 1e200), np.empty(64)

    def kernel(part):
        if part.stop == 64:
            np.multiply(big[part], big[part], out=out[part])

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        solver._in_parts(kernel, 64, 64)
    with np.errstate(over="ignore"):
        solver._in_parts(kernel, 64, 64)
    assert np.isinf(out[-1])


def test_in_parts_raises_after_every_part(monkeypatch):
    monkeypatch.setenv("NAVIER_NORMS_THREADS", "2")
    finished = []

    def kernel(part):
        if part.start == 0:
            raise ValueError("first part failed")
        time.sleep(0.2)
        finished.append(part)

    with pytest.raises(ValueError, match="first part failed"):
        solver._in_parts(kernel, 64, 64)
    assert finished == [slice(32, 64)]


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("ic", ["taylor_green", "random"])
def test_results_independent_of_fft_threads(monkeypatch, n, ic):
    # below N = 64, one thread samples inline and two overlap each sample
    # with the next steps on the pool: every figure must be the same
    config = SolverConfig(
        N=n, nu=0.05, dt=5e-3, T=0.02, sample_stride=1,
        initial_condition=ic, ic_params={"seed": 4},
    )
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
        fields, traj, report = simulate(config)
        runs.append((fields[-1], traj, report))
    (f1, t1, r1), (f2, t2, r2) = runs
    assert f1.coeffs.tobytes() == f2.coeffs.tobytes()
    assert r1.energy.tobytes() == r2.energy.tobytes()
    assert r1.dissipation.tobytes() == r2.dissipation.tobytes()
    assert t1.times.tobytes() == t2.times.tobytes()
    assert t1.samples.keys() == t2.samples.keys()
    for pair in t1.samples:
        assert t1.samples[pair].tobytes() == t2.samples[pair].tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sample_error_reaches_caller_after_the_sample_ends(monkeypatch, threads):
    # the 3rd sample fails after the others have run; with 2 threads it runs
    # on the pool while the next step does, and simulate raises only once
    # no sample is running
    monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
    config = SolverConfig(N=16, nu=0.05, dt=5e-3, T=0.03, sample_stride=1, norms=((0, 6.0), (1, 3.0)))
    real, running, calls = field.lebesgue_norm, [], []

    def failing(f, k, r):
        running.append(1)
        try:
            calls.append(threading.get_ident())
            time.sleep(0.02)
            if len(calls) == 2 * 3:
                raise ValueError("third sample failed")
            return real(f, k, r)
        finally:
            running.pop()

    monkeypatch.setattr(field, "lebesgue_norm", failing)
    with pytest.raises(ValueError, match="third sample failed"):
        simulate(config)
    assert not running and len(calls) == 2 * 3
    overlapped = threads == "2" and field.cpu_count() > 1
    assert (threading.get_ident() in calls) != overlapped
    monkeypatch.setattr(field, "lebesgue_norm", real)
    _, traj, _ = simulate(config)
    assert len(traj.times) == 7


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failing_hook_waits_for_the_sample_in_flight(monkeypatch, threads):
    monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
    config = SolverConfig(N=16, nu=0.05, dt=5e-3, T=0.03, sample_stride=1, norms=((0, 6.0),))
    real, ended = field.lebesgue_norm, []

    def slow(f, k, r):
        time.sleep(0.05)
        ended.append(f)
        return real(f, k, r)

    def hook(t, f):
        if t > 0:
            raise RuntimeError("hook failed")

    monkeypatch.setattr(field, "lebesgue_norm", slow)
    with pytest.raises(RuntimeError, match="hook failed"):
        simulate(config, on_sample=hook)
    assert len(ended) == 2  # the sample at t = dt ended before simulate raised


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sampler_raises_floating_point_error(monkeypatch, threads):
    # |u|^6 overflows in the (0, 6) norm, while a step of dt = 1e-60 leaves
    # the state finite: the caller's errstate holds in the sampler, inline
    # or on the pool
    monkeypatch.setenv("NAVIER_NORMS_THREADS", threads)
    config = SolverConfig(N=16, nu=0.1, dt=1e-60, T=1e-60, norms=((0, 6.0),))
    huge = 1e55 * random_solenoidal(16, 0.1, np.random.default_rng(3)).coeffs
    config.make_initial_field = lambda: SpectralField(N=16, nu=0.1, coeffs=huge)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        simulate(config)
    with np.errstate(over="ignore"):
        _, traj, _ = simulate(config)
    assert np.all(np.isinf(traj.samples[(0, 6.0)]))


def test_on_sample_sees_times_in_order_on_the_calling_thread(monkeypatch):
    monkeypatch.delenv("NAVIER_NORMS_THREADS", raising=False)
    config = SolverConfig(N=16, nu=0.05, dt=5e-3, T=0.04, sample_stride=3)
    seen = []
    _, traj, _ = simulate(config, on_sample=lambda t, f: seen.append((t, threading.get_ident())))
    assert [t for t, _ in seen] == list(traj.times) == sorted(traj.times)
    assert {ident for _, ident in seen} == {threading.get_ident()}


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(N=16, dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(N=4)
    with pytest.raises(ValueError, match="power of two"):
        SolverConfig(N=12)
    with pytest.raises(ValueError, match="whole number of steps"):
        SolverConfig(N=16, T=1.0, dt=0.3)
    with pytest.raises(ValueError):
        SolverConfig(N=16, T=math.inf)
    with pytest.raises(ValueError, match="sample_stride"):
        SolverConfig(N=8, dt=0.01, T=0.01, sample_stride=0)
    with pytest.raises(ValueError):
        SolverConfig(N=16, initial_condition="vortex").make_initial_field()
    for nu in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nu="):
            SolverConfig(N=16, nu=nu)
    with pytest.raises(ValueError, match="initial_condition"):
        SolverConfig(N=16, initial_condition="vortex")
    for pair in ((3, 2.0), (-1, 2.0), (0, 0.5), (0, math.nan)):
        with pytest.raises(ValueError, match="norm pair"):
            SolverConfig(N=16, norms=[pair])


# -- time diagnostics ---------------------------------------------------------


def flat_trajectory(value=2.0, T=1.0, n=11):
    times = np.linspace(0.0, T, n)
    return NormTrajectory(times=times, samples={(0, 2.0): np.full(n, value)})


def test_mixed_norm_constant_series():
    traj = flat_trajectory(value=2.0, T=3.0)
    assert mixed_norm(traj, 0, 2.0, 4.0) == pytest.approx(2.0 * 3.0**0.25, rel=1e-12)
    assert mixed_norm(traj, 0, 2.0, math.inf) == 2.0
    with pytest.raises(MissingSamples):
        mixed_norm(traj, 1, 3.0, 2.0)
    with pytest.raises(ValueError):
        mixed_norm(traj, 0, 2.0, 0.5)


def test_weighted_integral_constant_series():
    v, T, theta = 2.0, 1.0, 0.4
    traj = flat_trajectory(value=v, T=T)
    expected = v * T ** (1.0 - theta) / (1.0 - theta)
    assert weighted_singular_integral(traj, 0, 2.0, theta) == pytest.approx(
        expected, rel=1e-12
    )


def test_weighted_integral_theta_zero_is_plain_integral():
    rng = np.random.default_rng(10)
    times = np.linspace(0.0, 1.0, 40)
    vals = rng.uniform(0.5, 2.0, 40)
    traj = NormTrajectory(times=times, samples={(0, 2.0): vals})
    assert weighted_singular_integral(traj, 0, 2.0, 0.0) == pytest.approx(
        trapezoid(vals, times), rel=1e-12
    )


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.9])
def test_weighted_integral_linear_data_nonuniform_times(theta):
    # linear data are interpolated exactly, so with u = T - t
    # int_0^T u^(-theta) (c0 + c1 (T - u)) du is the closed form
    rng = np.random.default_rng(12)
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 19))))
    c0, c1, T = 0.7, 2.5, float(times[-1])
    traj = NormTrajectory(times=times, samples={(0, 2.0): c0 + c1 * times})
    g = 1.0 - theta
    expected = (c0 + c1 * T) * T**g / g - c1 * T ** (g + 1) / (g + 1)
    assert weighted_singular_integral(traj, 0, 2.0, theta) == pytest.approx(expected, rel=1e-12)


def test_weighted_integral_rejects_nonintegrable():
    traj = flat_trajectory()
    with pytest.raises(NonIntegrable):
        weighted_singular_integral(traj, 0, 2.0, 1.0)
    with pytest.raises(ValueError):
        weighted_singular_integral(traj, 0, 2.0, -0.2)
    with pytest.raises(ValueError):
        weighted_singular_integral(traj, 0, 2.0, 0.5, T=0.5)


def test_weighted_integral_refuses_T_past_last_sample():
    # the series ends at t = 1, so it says nothing about int_0^2
    traj = NormTrajectory(times=np.array([0.0, 0.5, 1.0]), samples={(0, 2.0): np.ones(3)})
    assert weighted_singular_integral(traj, 0, 2.0, 0.0) == 1.0
    assert weighted_singular_integral(traj, 0, 2.0, 0.0, T=1.0 + 1e-13) == pytest.approx(1.0, rel=1e-12)
    for T in (2.0, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="must be the last sample time"):
            weighted_singular_integral(traj, 0, 2.0, 0.0, T=T)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        NormTrajectory(times=np.array([0.0, 0.0]), samples={})
    with pytest.raises(ValueError):
        NormTrajectory(times=np.array([0.0, 1.0]), samples={(0, 2.0): np.ones(3)})


# -- serialization ------------------------------------------------------------


def test_norm_csv_roundtrip(tmp_path):
    traj = NormTrajectory(
        times=np.array([0.0, 0.5, 1.0]),
        samples={(0, 2.0): np.array([1.0, 2.0, 3.0]), (1, math.inf): np.ones(3)},
    )
    path = tmp_path / "norms.csv"
    spio.write_norm_csv(traj, path)
    back = spio.read_norm_csv(path)
    assert np.array_equal(back.times, traj.times)
    for pair in traj.samples:
        assert np.array_equal(back.samples[pair], traj.samples[pair])


def test_snapshot_roundtrip(tmp_path):
    f = random_solenoidal(N, 0.01, np.random.default_rng(11))
    path = tmp_path / "snap.bin"
    spio.write_snapshot(f, 0.25, path)
    g, t = spio.read_snapshot(path)
    assert t == 0.25
    assert g.nu == 0.01
    assert np.array_equal(g.coeffs, f.coeffs)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad.bin: not a snapshot file: bad magic"):
        spio.read_snapshot(bad)
    # the first format had no viscosity in its header
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(b"NAVNORM1" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match="predates the stored viscosity"):
        spio.read_snapshot(v1)
    # the viscosity follows magic, N, component count and time in the header
    nan_nu = tmp_path / "nan_nu.bin"
    raw = path.read_bytes()
    nan_nu.write_bytes(raw[:24] + struct.pack("<d", math.nan) + raw[32:])
    with pytest.raises(ValueError, match="nu=nan"):
        spio.read_snapshot(nan_nu)
    # a file that ends inside the header
    short = tmp_path / "short.bin"
    short.write_bytes(b"NAVNORM2" + b"\x00" * 10)
    with pytest.raises(ValueError, match="short.bin: truncated snapshot header"):
        spio.read_snapshot(short)


@pytest.mark.parametrize("cut, extra", [(16, b""), (3, b""), (0, b"\x00" * 16)])
def test_snapshot_payload_length_must_match_header(tmp_path, cut, extra):
    # 32 header bytes, then 3 * 8 * 8 * 5 coefficients of 16 bytes
    path = tmp_path / "snap.bin"
    spio.write_snapshot(random_solenoidal(8, 0.1, np.random.default_rng(2)), 0.5, path)
    raw = path.read_bytes()
    assert len(raw) == 32 + 15360
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[: len(raw) - cut] + extra)
    size = 15360 - cut + len(extra)
    with pytest.raises(ValueError, match=f"bad.bin: snapshot payload is {size} bytes, .* needs 15360"):
        spio.read_snapshot(bad)


def test_energy_json(tmp_path):
    config = SolverConfig(N=16, nu=0.1, dt=5e-3, T=0.02, sample_stride=2)
    _, _, report = simulate(config)
    path = tmp_path / "energy.json"
    spio.write_energy_json(report, path)
    import json

    payload = json.loads(path.read_text())
    assert payload["energy"][0] == pytest.approx(math.pi**3, rel=1e-12)
    assert len(payload["times"]) == len(payload["dissipation"])
