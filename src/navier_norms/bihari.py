"""Singular integral inequality of Bihari-LaSalle type on the grid model.

The hypothesis is
    phi(t) < a(t) + int_0^t (t-s)^(gamma-1) psi(s) phi(s)^beta ds,
with a non-decreasing, beta in [0,1), gamma in (0,1], and the conclusion
compares the non-decreasing rearrangement of phi against that of the
explicit bound

    K_t(s~) = ( a(t)^(1-beta) + int_0^{s~} (t-s)^(gamma-1) psi(s) ds )^(1/(1-beta)).

All singular integrals against piecewise-constant data use the exact
per-cell antiderivative of (t-s)^(gamma-1), so the checks probe the
inequality itself, not a quadrature scheme.  The equality-case Volterra
solution is produced by Picard iteration with product integration: the
slowly-varying factor psi(s) phi(s)^beta is interpolated linearly between
the time nodes and integrated exactly against the singular kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ExponentInadmissible,
    HypothesisFailed,
    NoConvergence,
    SingularityAtEndpoint,
)
from .gridfn import GridFunction, lp_norm

__all__ = [
    "BihariInstance",
    "VerifyReport",
    "CorollaryReport",
    "bihari_bound",
    "volterra_oracle",
    "equality_case",
    "solve_cells",
    "bihari_verify",
    "corollary_norm_bound",
    "corollary_time_exponent",
    "random_instance",
]

PICARD_TOL = 1e-10
PICARD_MAXIT = 10_000


@dataclass(frozen=True)
class BihariInstance:
    """Data (a, psi, beta, gamma, T) of the singular integral inequality."""

    a: GridFunction
    psi: GridFunction
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.a.same_grid(self.psi):
            raise ValueError("a and psi must share the same grid")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta={self.beta} outside [0,1)")
        if not (0.0 < self.gamma <= 1.0):
            raise SingularityAtEndpoint(f"gamma={self.gamma} outside (0,1]")
        if np.any(np.diff(self.a.values) < 0):
            raise ValueError("a must be non-decreasing cell by cell")

    @property
    def T(self) -> float:
        return self.a.T

    @property
    def n(self) -> int:
        return self.a.n


def _node_values(f: GridFunction) -> np.ndarray:
    """Values of a cell function at the nodes 0, h, ..., T (left-limit at 0)."""
    return np.concatenate(([f.values[0]], f.values))


def _cell_value_at(f: GridFunction, t: float) -> float:
    """Value on the cell containing t, cells read as (jh, (j+1)h].

    The cell is found on the edges arange(n+1)*h that :func:`bihari_bound`
    integrates over, so a node time t = k*h maps to cell k-1 exactly; t/h
    can round past k.
    """
    idx = int(np.searchsorted(np.arange(f.n + 1) * f.cell_width, t)) - 1
    return float(f.values[min(max(idx, 0), f.n - 1)])


def _kernel_cell_integral(t: float, lo: np.ndarray, hi: np.ndarray, gamma: float) -> np.ndarray:
    """Exact integral of (t-s)^(gamma-1) over [lo, hi] (elementwise, hi <= t)."""
    return ((t - lo) ** gamma - (t - hi) ** gamma) / gamma


def bihari_bound(inst: BihariInstance, t: float, s_tilde: float) -> float:
    """Value of the explicit bound K_t(s_tilde).

    The singular integrand is integrated with the exact per-cell
    antiderivative of (t-s)^(gamma-1) against piecewise-constant psi.
    """
    if not (0.0 < t <= inst.T + 1e-12):
        raise ValueError(f"t={t} outside (0, T]")
    if not (0.0 <= s_tilde <= t + 1e-12):
        raise ValueError(f"s_tilde={s_tilde} outside [0, t]")
    h = inst.a.cell_width
    edges = np.arange(inst.n + 1) * h
    lo = edges[:-1]
    hi = np.minimum(edges[1:], s_tilde)
    mask = hi > lo
    integral = 0.0
    if np.any(mask):
        integral = float(
            np.sum(
                inst.psi.values[mask]
                * _kernel_cell_integral(t, lo[mask], hi[mask], inst.gamma)
            )
        )
    a_t = _cell_value_at(inst.a, t)
    if inst.beta == 0.0:
        return a_t + integral
    return (a_t ** (1.0 - inst.beta) + integral) ** (1.0 / (1.0 - inst.beta))


def _lag_weights(n: int, h: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-lag moments of the kernel (t-s)^(gamma-1) over one cell.

    For a node t_i and a cell [s_j, s_j + h] with lag m = i - j >= 1, the
    kernel integral depends on m alone (the inequality is a convolution):

        i0[m] = int_cell (t_i - s)^(gamma-1) ds,
        i1[m] = int_cell (t_i - s)^(gamma-1) (s - s_j)/h ds,

    with u = t_i - s running over [(m-1)h, mh].  Index 0 is lag 0 (the cell
    does not precede the node) and holds 0.  The lag times are the exact
    multiples arange(n+1)*h, so lag 1 starts at u = 0 exactly; a difference
    t - s_j - h would leave a roundoff residue there that a small gamma
    turns into an O(1) error.
    """
    u = np.arange(n + 1) * h
    u0, u1 = u[1:], u[:-1]
    diff = u0**gamma - u1**gamma
    i0 = np.concatenate(([0.0], diff / gamma))
    i1 = np.concatenate(
        ([0.0], (u0 * diff / gamma - (u0 ** (gamma + 1) - u1 ** (gamma + 1)) / (gamma + 1)) / h)
    )
    return i0, i1


def _lower_toeplitz(w: np.ndarray) -> np.ndarray:
    """(n+1) x n matrix with entry (i, j) = w[i - j] for i >= j, else 0."""
    rows, cols = w.size, w.size - 1
    lag = np.subtract.outer(np.arange(rows), np.arange(cols))
    return np.where(lag >= 0, w[lag], 0.0)


def _product_matrix(inst: BihariInstance) -> np.ndarray:
    """Product-integration matrix M over the nodes.

    Row i approximates int_0^{t_i} (t_i-s)^(gamma-1) psi(s) g(s) ds for a
    slowly-varying factor g given at the nodes: psi is kept cell-constant
    (exact) and g is interpolated linearly inside each cell, integrated
    exactly against the kernel.
    """
    n = inst.n
    i0, i1 = _lag_weights(n, inst.a.cell_width, inst.gamma)
    psi = inst.psi.values[None, :]
    M = np.zeros((n + 1, n + 1))
    M[:, :-1] += psi * _lower_toeplitz(i0 - i1)  # weight on the cell's left node
    M[:, 1:] += psi * _lower_toeplitz(i1)  # weight on the cell's right node
    return M


def _solve_nodes(inst: BihariInstance) -> tuple[np.ndarray, int, float]:
    M = _product_matrix(inst)
    a_nodes = _node_values(inst.a)
    phi, iterations, residual = kernels.picard_solve(
        M, a_nodes, float(inst.beta), PICARD_TOL, PICARD_MAXIT
    )
    if residual >= PICARD_TOL:
        raise NoConvergence(residual=residual, iterations=iterations)
    return phi, iterations, residual


def volterra_oracle(inst: BihariInstance) -> GridFunction:
    """Equality-case solution phi = a + int (t-s)^(gamma-1) psi phi^beta.

    Returned on the instance grid with cell values taken at the right node
    of each cell.
    """
    phi_nodes, _, _ = _solve_nodes(inst)
    return GridFunction(T=inst.T, values=phi_nodes[1:])


def _cell_matrix(inst: BihariInstance) -> np.ndarray:
    """Kernel integrals in the pure cell model: entry (i-1, j) is the exact
    integral of (t_i - s)^(gamma-1) psi(s) over cell j, for j < i."""
    i0, _ = _lag_weights(inst.n, inst.a.cell_width, inst.gamma)
    return _lower_toeplitz(i0)[1:] * inst.psi.values[None, :]


def equality_case(inst: BihariInstance) -> GridFunction:
    """Saturating candidate in the cell-constant quadrature model.

    Solves phi_i = a_i + sum_{j<=i} psi_j phi_j^beta I_ij with the same
    exact per-cell kernel integrals the hypothesis checker uses, so scaling
    the result by (1 - eps) satisfies the strict hypothesis for every
    eps > 0 with no discretization mismatch (unlike the interpolating
    :func:`volterra_oracle`, whose quadrature differs from the cell model
    wherever phi is non-monotone).
    """
    phi, _, _ = solve_cells(inst)
    return GridFunction(T=inst.T, values=phi)


def solve_cells(inst: BihariInstance) -> tuple[np.ndarray, int, float]:
    """Cell values of :func:`equality_case` with the Picard iteration count
    and final residual; raises NoConvergence if Picard does not converge."""
    M = _cell_matrix(inst)
    phi, iterations, residual = kernels.picard_solve(
        M, inst.a.values, float(inst.beta), PICARD_TOL, PICARD_MAXIT
    )
    if residual >= PICARD_TOL:
        raise NoConvergence(residual=residual, iterations=iterations)
    return phi, iterations, residual


@dataclass(frozen=True)
class VerifyReport:
    verified: bool
    conclusion_max_violation: float
    sorted_max_violation: float
    hypothesis_margins: np.ndarray
    phi_sorted: np.ndarray = field(repr=False, default=None)
    bound_sorted: np.ndarray = field(repr=False, default=None)


def _bound_at_nodes(inst: BihariInstance, cells: np.ndarray) -> np.ndarray:
    """t -> K_t(t) at the nodes h, 2h, ..., T, from the cell matrix."""
    integrals = cells.sum(axis=1)
    a_nodes = inst.a.values  # a(t_i) = value on the cell left of node i
    if inst.beta == 0.0:
        return a_nodes + integrals
    return (a_nodes ** (1.0 - inst.beta) + integrals) ** (1.0 / (1.0 - inst.beta))


def bihari_verify(
    inst: BihariInstance,
    phi: GridFunction,
    slack: float = 1e-6,
    check_hypothesis: bool = True,
) -> VerifyReport:
    """Check the rearranged conclusion of the inequality for a candidate phi.

    The conclusion compares the non-decreasing rearrangement of phi over
    the growing window [0, t], evaluated at the window endpoint t, against
    the same functional of the diagonal bound t -> K_t(t); at the endpoint
    the windowed rearrangement is the running maximum, which is exactly the
    quantity the comparison-with-the-equality-case argument controls.  The
    whole-interval sorted comparison (rearrangement over [0, T] compared
    node-wise) is also reported, as ``sorted_max_violation``; it is a
    strictly stronger statement and fails for genuinely admissible data
    (e.g. beta near 1 with small gamma and an oscillating psi), so it does
    not gate ``verified``.

    With ``check_hypothesis`` the strict hypothesis inequality is first
    verified at the nodes h, ..., T (raising HypothesisFailed at the first
    violating node); the integral there treats phi as the piecewise-constant
    function it is, so the check is quadrature-exact.  The conclusion allows
    ``slack`` relative margin.
    """
    if not phi.same_grid(inst.a):
        raise ValueError("phi must live on the instance grid")
    cells = _cell_matrix(inst)
    if check_hypothesis:
        rhs = inst.a.values + cells @ phi.values**inst.beta
        margins = rhs - phi.values
        bad = np.nonzero(margins <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise HypothesisFailed(node=i + 1, lhs=float(phi.values[i]), rhs=float(rhs[i]))
    else:
        margins = np.array([])
    bound_nodes = _bound_at_nodes(inst, cells)
    phi_runmax = np.maximum.accumulate(phi.values)
    bound_runmax = np.maximum.accumulate(bound_nodes)
    violation = float(
        np.max((phi_runmax - bound_runmax) / np.maximum(bound_runmax, np.finfo(float).tiny))
    )
    phi_sorted = np.sort(phi.values)
    bound_sorted = np.sort(bound_nodes)
    sorted_violation = float(
        np.max((phi_sorted - bound_sorted) / np.maximum(bound_sorted, np.finfo(float).tiny))
    )
    return VerifyReport(
        verified=violation <= slack,
        conclusion_max_violation=violation,
        sorted_max_violation=sorted_violation,
        hypothesis_margins=margins,
        phi_sorted=phi_sorted,
        bound_sorted=bound_sorted,
    )


def corollary_time_exponent(beta: float, gamma: float, r: float) -> float:
    """Exponent r_tilde with 1/r_tilde = (1 - beta - gamma r)/r.

    Raises ExponentInadmissible unless r_tilde >= 1 (inf allowed).
    """
    if r < 1.0 - beta:
        raise ExponentInadmissible(f"r={r} below 1-beta={1-beta}")
    inv = (1.0 - beta - gamma * r) / r
    if inv < 0.0:
        raise ExponentInadmissible(f"negative reciprocal exponent {inv}")
    if inv == 0.0:
        return math.inf
    r_tilde = 1.0 / inv
    if r_tilde < 1.0:
        raise ExponentInadmissible(f"r_tilde={r_tilde} < 1")
    return r_tilde


@dataclass(frozen=True)
class CorollaryReport:
    lhs: float
    rhs: float
    r_tilde: float
    ratio: float


def corollary_norm_bound(inst: BihariInstance, r: float) -> CorollaryReport:
    """L^r-norm consequence of the inequality, evaluated on the equality case.

    lhs = |phi|_r for the Volterra solution, rhs = |a|_r + |psi|_{r_tilde}^(1-beta)
    (the unknown constant is not asserted; the ratio lhs/rhs is reported for
    bounded-family checks).
    """
    r_tilde = corollary_time_exponent(inst.beta, inst.gamma, r)
    phi = volterra_oracle(inst)
    lhs = lp_norm(phi, r)
    rhs = lp_norm(inst.a, r) + lp_norm(inst.psi, r_tilde) ** (1.0 - inst.beta)
    return CorollaryReport(lhs=lhs, rhs=rhs, r_tilde=r_tilde, ratio=lhs / rhs)


def random_instance(
    rng: np.random.Generator,
    n: int = 256,
    T: float = 1.0,
    beta: float | None = None,
    gamma: float | None = None,
) -> BihariInstance:
    """Random instance: a from cumulative sums of non-negative draws
    (hence non-decreasing), psi uniform on [0, 1]."""
    if beta is None:
        beta = float(rng.uniform(0.0, 0.9))
    if gamma is None:
        gamma = float(rng.uniform(0.1, 1.0))
    base = float(rng.uniform(0.5, 1.5))
    a_vals = base + np.cumsum(rng.uniform(0.0, 1.0, n)) * (T / n)
    psi_vals = rng.uniform(0.0, 1.0, n)
    return BihariInstance(
        a=GridFunction(T=T, values=a_vals),
        psi=GridFunction(T=T, values=psi_vals),
        beta=beta,
        gamma=gamma,
    )
