"""Product-integration kernels: exact cell moments of the power kernel and
the Picard fixed-point solve of the Volterra equations."""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def cell_moments(u_far, u_near, h, gamma):
    """Exact moments i0 = int u^(gamma-1) du and i1 = int u^(gamma-1) (u_far - u)/h du
    over [u_near, u_far], elementwise.  For u = t - s over a cell of width h
    before t, a g linear on the cell integrates to g_left (i0 - i1) + g_right i1.
    """
    diff = u_far**gamma - u_near**gamma
    i0 = diff / gamma
    i1 = (u_far * diff / gamma - (u_far ** (gamma + 1) - u_near ** (gamma + 1)) / (gamma + 1)) / h
    return i0, i1


def picard_solve(apply, a, beta, tol, maxit):
    """Fixed point of phi = a + apply(phi**beta) by Picard iteration.

    apply is the (causal, linear) product-integration operator over the
    time nodes, a the inhomogeneity at the nodes.  Returns
    (phi, iterations, residual) where residual is the final sup-distance
    between successive iterates.  Raises NoConvergence unless that residual
    is below tol; the iteration stops at the first non-finite iterate.
    """
    a = np.asarray(a, dtype=np.float64)
    phi = a
    residual = np.inf
    iterations = 0
    for iterations in range(1, maxit + 1):
        nxt = a + apply(np.power(phi, beta))
        residual = float(np.max(np.abs(nxt - phi)))
        phi = nxt
        if residual < tol or not np.isfinite(residual):
            break
    if not residual < tol:
        raise NoConvergence(residual=residual, iterations=iterations)
    return phi, iterations, residual
