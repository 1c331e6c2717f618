"""Divergence-free periodic vector fields in spectral representation.

The domain is the torus [0, 2pi)^3, used as a computable surrogate for
whole space: every diagnostic downstream is a finiteness/stability check on
the torus, not a statement about the Cauchy problem on R^3.

Coefficients are stored in the real-transform layout of shape
(3, N, N, N//2 + 1) with the convention u(x) = sum_k uhat(k) exp(i k.x)
(forward-normalised transforms), so uhat(0) is the mean of u.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpectralField",
    "cpu_count",
    "fft_workers",
    "check_grid_size",
    "wavenumbers",
    "hermitian_weights",
    "dealias_mask",
    "KeptModes",
    "kept_modes",
    "to_physical",
    "to_spectral",
    "to_physical_kept",
    "to_spectral_kept",
    "gather_kept",
    "scatter_kept",
    "dealias",
    "leray_project_coeffs",
    "leray_project_in_place",
    "init_taylor_green",
    "random_solenoidal",
    "vorticity",
    "biot_savart",
    "divergence_error",
    "parseval_sq",
    "parseval_sums",
    "spectral_l2_sq",
    "spectral_gradient_l2_sq",
    "lebesgue_norm",
]

TWO_PI = 2.0 * np.pi
BOX_VOLUME = TWO_PI**3

# the six independent entries (b, c) of a symmetric 3x3 tensor, such as
# the second derivatives d_b d_c, and the flat index of every (b, c) within them
_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYM_INDEX = {(b, c): i for i, (b, c) in enumerate(_SYM_PAIRS)}
_SYM_INDEX.update({(c, b): i for i, (b, c) in enumerate(_SYM_PAIRS)})


# the smallest grid whose transforms and RK4 step passes use every thread;
# below it each transform runs on one thread, and ``solver.simulate`` gives
# a second thread to the norm sampler instead
_SPLIT_MIN_N = 64


@functools.lru_cache(maxsize=1)
def cpu_count() -> int:
    """``os.cpu_count()``, read once per process; it also sizes the
    solver's thread pool."""
    return os.cpu_count() or 1


def fft_workers(N: int | None = None) -> int:
    """Thread count for the transforms and for the parts that the RK4
    step's pointwise passes are split into at grid size N: all threads
    from N = 64, one below.  Without N, all threads.

    All threads are ``cpu_count()``, capped by NAVIER_NORMS_THREADS, which
    must be an integer >= 1 when set; the variable is read at every call.
    Below N = 64 a thread the transforms leave idle takes the overlapped
    norm sampler (``solver.simulate``).  On 2 cores at N = 32 a transform's
    two halves cost more than they save: a simulate of random data with a
    sample after each of 50 steps took 0.61 s with one-thread transforms
    against 0.79 s with two (medians of 12 alternated runs, all 12 won).
    """
    cap = os.environ.get("NAVIER_NORMS_THREADS")
    if cap is None:
        threads = cpu_count()
    elif not cap.strip().isdecimal() or int(cap) < 1:
        raise ValueError(f"NAVIER_NORMS_THREADS={cap!r} must be an integer >= 1")
    else:
        threads = min(cpu_count(), int(cap))
    return threads if N is None or N >= _SPLIT_MIN_N else 1


def check_grid_size(N: int) -> None:
    """Raise ValueError unless N is a power of two >= 8."""
    if N < 8 or N & (N - 1):
        raise ValueError(f"N={N} must be a power of two >= 8")


@functools.lru_cache(maxsize=8)
def wavenumbers(N: int):
    """Integer wavenumber components (kx, ky, kz) broadcastable over the
    spectral layout, plus |k|^2."""
    k_full = np.fft.fftfreq(N, d=1.0 / N)
    k_half = np.fft.rfftfreq(N, d=1.0 / N)
    kx = k_full[:, None, None]
    ky = k_full[None, :, None]
    kz = k_half[None, None, :]
    k2 = kx**2 + ky**2 + kz**2
    return kx, ky, kz, k2


@functools.lru_cache(maxsize=8)
def hermitian_weights(N: int) -> np.ndarray:
    """Multiplicity of each stored mode in the full lattice sum.

    The half-spectrum stores one of each conjugate pair except on the
    kz = 0 and kz = N/2 planes, which are self-conjugate.
    """
    w = np.full(N // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w[None, None, :]


@functools.lru_cache(maxsize=8)
def dealias_mask(N: int) -> np.ndarray:
    """True on modes kept by the 2/3 rule (|k_i| <= N/3 on every axis)."""
    kx, ky, kz, _ = wavenumbers(N)
    cut = N / 3.0
    return (np.abs(kx) <= cut) & (np.abs(ky) <= cut) & (np.abs(kz) <= cut)


class KeptModes(NamedTuple):
    """The modes the 2/3 rule keeps, in ``gather_kept``'s order: their
    wavenumber components, and |k|^2 with the zero mode set to 1 so that it
    can divide."""

    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray
    k2_safe: np.ndarray


@functools.lru_cache(maxsize=8)
def kept_modes(N: int) -> KeptModes:
    shape = (1, N, N, N // 2 + 1)
    kx, ky, kz, k2 = (gather_kept(np.broadcast_to(k, shape))[0] for k in wavenumbers(N))
    return KeptModes(kx, ky, kz, np.where(k2 == 0, 1.0, k2))


def _kept_runs(N: int):
    """The kept wavenumbers of a full axis as two runs, 0..K and -K..-1
    (K = N//3, which is N/3 rounded down for a power of two): each as its
    slice of the 2K+1 kept entries and its slice of the N stored ones."""
    K = N // 3
    return ((slice(0, K + 1), slice(0, K + 1)), (slice(K + 1, 2 * K + 1), slice(N - K, N)))


def gather_kept(a: np.ndarray) -> np.ndarray:
    """The modes the 2/3 rule keeps of ``a`` of shape (ncomp, N, N, L) with
    L > N//3, in the layout's C order, as a fresh array of shape (ncomp, M):
    the order of every kept-mode array.

    The kept set is a product set, so this is 4 block copies."""
    N = a.shape[1]
    K = N // 3
    blocks = np.empty((a.shape[0], 2 * K + 1, 2 * K + 1, K + 1), dtype=a.dtype)
    runs = _kept_runs(N)
    for bx, x in runs:
        for by, y in runs:
            blocks[:, bx, by] = a[:, x, y, : K + 1]
    return blocks.reshape(a.shape[0], -1)


def scatter_kept(kept: np.ndarray, a: np.ndarray) -> None:
    """Write ``kept``, of shape (ncomp, M) on ``kept_modes(N)``, into those
    modes of ``a`` of shape (ncomp, N, N, L) with L > N//3, as 4 block
    copies; every other mode of ``a`` is left as it is."""
    N = a.shape[1]
    K = N // 3
    blocks = kept.reshape(-1, 2 * K + 1, 2 * K + 1, K + 1)
    runs = _kept_runs(N)
    for bx, x in runs:
        for by, y in runs:
            a[:, x, y, : K + 1] = blocks[:, bx, by]


@functools.lru_cache(maxsize=1)
def _zeroed_layout(ncomp: int, N: int) -> np.ndarray:
    """The spectral layout that ``to_physical_kept`` fills; it is zero for
    kz > N//3 at every call, and each call re-zeroes the rest."""
    return np.zeros((ncomp, N, N, N // 2 + 1), dtype=complex)


def to_physical_kept(coeffs: np.ndarray, N: int) -> np.ndarray:
    """``to_physical`` of coefficients of shape (ncomp, M) on
    ``kept_modes(N)``, zero on every other mode, bit for bit.

    The coefficients are scattered into the layout, and the axes are
    transformed in irfftn's order, each line alone and in place, skipping
    the lines that are still zero: along x only the kept (ky, kz) lines,
    along y only the kz <= K lines, then the c2r transform along z.  The
    layout is cached for the most recent (ncomp, N), so the function is not
    re-entrant, and the layout belongs to the RK4 step: a norm sampler that
    ``solver.simulate`` overlaps with the step must never call this, only
    ``to_physical``.  The returned grid is fresh.
    """
    import scipy.fft

    K, workers = N // 3, fft_workers(N)
    full = _zeroed_layout(coeffs.shape[0], N)
    slab = full[..., : K + 1]
    slab[...] = 0.0
    scatter_kept(coeffs, slab)
    for _, y in _kept_runs(N):
        scipy.fft.ifft(slab[:, :, y], axis=1, norm="forward", overwrite_x=True, workers=workers)
    scipy.fft.ifft(slab, axis=2, norm="forward", overwrite_x=True, workers=workers)
    return scipy.fft.irfft(full, n=N, axis=-1, norm="forward", workers=workers)


def to_spectral_kept(u: np.ndarray) -> np.ndarray:
    """``to_spectral(u)`` on the modes ``kept_modes(N)`` lists, in its
    order, for u of shape (ncomp, N, N, N), bit for bit.

    The axes are transformed in rfftn's order: the r2c transform along z,
    then in place along x only the kz <= K lines, and along y only the
    lines of kept kx.  Each axis scales by 1/N; N is a power of two, so
    that is exactly rfftn's 1/N^3.
    """
    import scipy.fft

    N = u.shape[-1]
    K, workers = N // 3, fft_workers(N)
    slab = scipy.fft.rfft(u, axis=-1, norm="forward", workers=workers)[..., : K + 1]
    scipy.fft.fft(slab, axis=1, norm="forward", overwrite_x=True, workers=workers)
    for _, x in _kept_runs(N):
        scipy.fft.fft(slab[:, x], axis=2, norm="forward", overwrite_x=True, workers=workers)
    return gather_kept(slab)


@dataclass
class SpectralField:
    """Velocity field as forward-normalised real-transform coefficients."""

    N: int
    nu: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_grid_size(self.N)
        if not 0.0 < self.nu < np.inf:
            raise ValueError(f"nu={self.nu} outside (0, inf)")
        expected = (3, self.N, self.N, self.N // 2 + 1)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape}, expected {expected}")

    def copy(self) -> "SpectralField":
        return SpectralField(N=self.N, nu=self.nu, coeffs=self.coeffs.copy())


def to_physical(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Inverse transform to the N^3 collocation grid (any leading axes).

    It holds no cached array, so it may run on the sampler's thread while
    the RK4 step transforms on the calling one."""
    import scipy.fft  # here, so that importing the package loads no scipy

    return scipy.fft.irfftn(
        coeffs, s=(N, N, N), axes=(-3, -2, -1), norm="forward", workers=fft_workers(N)
    )


def to_spectral(u: np.ndarray) -> np.ndarray:
    """Forward transform from the collocation grid (any leading axes)."""
    import scipy.fft

    return scipy.fft.rfftn(u, axes=(-3, -2, -1), norm="forward", workers=fft_workers(u.shape[-1]))


def dealias(coeffs: np.ndarray, N: int) -> np.ndarray:
    return coeffs * dealias_mask(N)


def leray_project_coeffs(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Mode-wise orthogonal projection onto divergence-free fields,
    uhat - k (k.uhat)/|k|^2; the zero mode is untouched."""
    kx, ky, kz, k2 = wavenumbers(N)
    scratch = np.empty_like(coeffs[:2])
    return leray_project_in_place(coeffs.copy(), kx, ky, kz, np.where(k2 == 0, 1.0, k2), scratch)


def leray_project_in_place(coeffs: np.ndarray, kx, ky, kz, k2_safe, scratch) -> np.ndarray:
    """The Leray projection of ``coeffs`` written over it, for wavenumber
    components that broadcast against one component of it; ``k2_safe`` is
    |k|^2 with the zero mode set to 1 (k.uhat is 0 there).

    ``scratch`` is two arrays of one component's shape, overwritten; every
    pass writes into them or into ``coeffs``, so the function allocates
    nothing.  The operations are those of
    ``coeffs[a] -= k_a (kx c0 + ky c1 + kz c2) / k2_safe``, in that order."""
    factor, term = scratch
    np.multiply(kx, coeffs[0], out=factor)
    np.multiply(ky, coeffs[1], out=term)
    np.add(factor, term, out=factor)
    np.multiply(kz, coeffs[2], out=term)
    np.add(factor, term, out=factor)
    np.divide(factor, k2_safe, out=factor)
    for c, k in zip(coeffs, (kx, ky, kz)):
        np.multiply(k, factor, out=term)
        np.subtract(c, term, out=c)
    return coeffs


def init_taylor_green(N: int, nu: float) -> SpectralField:
    """Standard divergence-free benchmark datum
    u0 = (sin x cos y cos z, -cos x sin y cos z, 0)."""
    x = np.arange(N) * (TWO_PI / N)
    X = x[:, None, None]
    Y = x[None, :, None]
    Z = x[None, None, :]
    u = np.empty((3, N, N, N))
    u[0] = np.sin(X) * np.cos(Y) * np.cos(Z)
    u[1] = -np.cos(X) * np.sin(Y) * np.cos(Z)
    u[2] = 0.0
    return SpectralField(N=N, nu=nu, coeffs=to_spectral(u))


def random_solenoidal(N: int, nu: float, rng: np.random.Generator, decay: float = 2.0) -> SpectralField:
    """Random smooth divergence-free field with |uhat| ~ (1+|k|^2)^(-decay)."""
    u = rng.standard_normal((3, N, N, N))
    coeffs = to_spectral(u)
    _, _, _, k2 = wavenumbers(N)
    coeffs *= (1.0 + k2) ** (-decay)
    coeffs = dealias(leray_project_coeffs(coeffs, N), N)
    coeffs[:, 0, 0, 0] = 0.0
    return SpectralField(N=N, nu=nu, coeffs=coeffs)


def vorticity(f: SpectralField) -> SpectralField:
    """Curl in spectral space, omegahat = i k x uhat."""
    kx, ky, kz, _ = wavenumbers(f.N)
    u = f.coeffs
    w = np.empty_like(u)
    w[0] = 1j * (ky * u[2] - kz * u[1])
    w[1] = 1j * (kz * u[0] - kx * u[2])
    w[2] = 1j * (kx * u[1] - ky * u[0])
    return SpectralField(N=f.N, nu=f.nu, coeffs=w)


def biot_savart(omega: SpectralField) -> SpectralField:
    """Velocity from vorticity, uhat = i k x omegahat / |k|^2 (zero mean):
    the curl of omega divided by |k|^2."""
    _, _, _, k2 = wavenumbers(omega.N)
    u = vorticity(omega).coeffs / np.where(k2 == 0, 1.0, k2)
    u[:, 0, 0, 0] = 0.0
    return SpectralField(N=omega.N, nu=omega.nu, coeffs=u)


def divergence_error(f: SpectralField, rel_floor: float = 1e-6) -> float:
    """max over modes of |k.uhat| / (|k| |uhat|).

    Modes below ``rel_floor`` times the peak amplitude are skipped: their
    coefficients sit at the roundoff floor of the projection, where the
    mode-wise ratio measures cancellation noise rather than divergence.
    """
    kx, ky, kz, k2 = wavenumbers(f.N)
    u = f.coeffs
    kdotu = np.abs(kx * u[0] + ky * u[1] + kz * u[2])
    umag = np.sqrt(np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2 + np.abs(u[2]) ** 2)
    kmag = np.sqrt(k2)
    peak = float(umag.max())
    if peak == 0.0:
        return 0.0
    mask = (umag > rel_floor * peak) & (k2 > 0)
    if not np.any(mask):
        return 0.0
    return float(np.max(kdotu[mask] / (kmag[mask] * umag[mask])))


@functools.lru_cache(maxsize=8)
def _parseval_weights(N: int, m: int) -> np.ndarray:
    """hermitian_weights(N) * |k|^(2m); for m = 0 the weights alone, which
    multiply |uhat|^2 to the same values."""
    _, _, _, k2 = wavenumbers(N)
    return hermitian_weights(N) * k2**m if m else hermitian_weights(N)


def parseval_sums(coeffs: np.ndarray, N: int, orders: tuple[int, ...]) -> list[float]:
    """``parseval_sq(coeffs, N, m)`` for each m in ``orders``, from one
    |uhat|^2 pass, which the last order weighs in place."""
    sq = np.abs(coeffs)
    np.square(sq, out=sq)
    *first, last = orders
    sums = [float(BOX_VOLUME * np.sum(_parseval_weights(N, m) * sq)) for m in first]
    return sums + [float(BOX_VOLUME * np.sum(np.multiply(_parseval_weights(N, last), sq, out=sq)))]


def parseval_sq(coeffs: np.ndarray, N: int, m: int) -> float:
    """Parseval sum (2pi)^3 sum_k |k|^(2m) |uhat(k)|^2 over the full lattice:
    |grad^m u|^2 in L^2 for the Frobenius magnitude of the derivative
    tensor, since sum_{a,b,c} |k_b k_c uhat_a|^2 = |k|^4 |uhat|^2."""
    return parseval_sums(coeffs, N, (m,))[0]


def spectral_l2_sq(coeffs: np.ndarray, N: int) -> float:
    """|u|^2 in L^2, the m = 0 Parseval sum."""
    return parseval_sq(coeffs, N, 0)


def spectral_gradient_l2_sq(coeffs: np.ndarray, N: int) -> float:
    """|grad u|^2 in L^2, the m = 1 Parseval sum."""
    return parseval_sq(coeffs, N, 1)


def _grid_square_sum(f: SpectralField, k: int) -> np.ndarray:
    """|grad^k u|^2 on the grid, one u_a at a time, with all 3^(k+1) squares
    added in (a, b[, c]) order, the order in which np.sum over the whole
    stack adds them.  For k = 0 and 1 each u_a or d_b u_a is transformed
    and squared alone; for k = 2 the 6 distinct d_b d_c u_a ((b, c) in
    _SYM_PAIRS) are transformed together, and each square is added once for
    every (b, c) it stands for."""
    total = np.zeros((f.N,) * 3)

    def add_squares(spectra: np.ndarray, rows=(0,)) -> None:
        squares = to_physical(spectra, f.N)
        np.square(squares, out=squares)
        for i in rows:
            np.add(total, squares[i], out=total)

    kvec = wavenumbers(f.N)[:3]
    buf = np.empty((6 if k == 2 else 1, *f.coeffs.shape[1:]), dtype=complex)
    for a in range(3):
        if k == 0:
            add_squares(f.coeffs[a : a + 1])
        elif k == 1:
            for kb in kvec:
                np.multiply(1j * kb, f.coeffs[a], out=buf[0])
                add_squares(buf)
        else:
            for (b, c), out in zip(_SYM_PAIRS, buf):
                np.multiply(-kvec[b] * kvec[c], f.coeffs[a], out=out)
            add_squares(buf, [_SYM_INDEX[b, c] for b in range(3) for c in range(3)])
    return total


def lebesgue_norm(f: SpectralField, k: int, r: float) -> float:
    """Spatial L^r norm of |grad^k u| (Frobenius magnitude of the full
    derivative tensor) for k in 0..2; max for r = inf.

    r = 2 is the Parseval sum ``parseval_sq(f.coeffs, f.N, k) ** 0.5``, the
    exact integral of the trigonometric polynomial the coefficients hold.
    Every other r is by collocation-grid quadrature, one velocity component
    at a time (at most 6 derivative grids, not 18, are held; for k = 0
    and 1, one), with the root and the power taken in place in the sum's
    grid.  The two agree to roundoff unless the field has content on a
    Nyquist plane (|k_i| = N/2), which the 2/3 rule leaves empty.  There
    the grid is not the exact integral either: on the kz = 0 and kz = N/2
    planes it drops the sine half of a Nyquist mode's derivative.  For
    k = 0 the two are equal by discrete Parseval.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"derivative order k={k} outside 0..2")
    if not r >= 1:
        raise ValueError(f"r={r} must be >= 1 or inf")
    if r == 2.0:
        return parseval_sq(f.coeffs, f.N, k) ** 0.5
    mag = _grid_square_sum(f, k)
    np.sqrt(mag, out=mag)
    if r == np.inf:
        return float(mag.max())
    mag **= r  # in place, with the fast paths of mag**r
    return float(np.mean(mag) * BOX_VOLUME) ** (1.0 / r)
