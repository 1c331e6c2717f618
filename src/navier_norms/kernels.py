"""Picard fixed-point kernel for the product-integration Volterra solves."""

from __future__ import annotations

import numpy as np


def picard_solve(M, a, beta, tol, maxit):
    """Fixed point of phi = a + M @ phi**beta by Picard iteration.

    M is the (dense, lower-triangular) product-integration matrix over the
    time nodes, a the inhomogeneity at the nodes.  Returns
    (phi, iterations, residual) where residual is the final sup-distance
    between successive iterates.
    """
    M = np.ascontiguousarray(M, dtype=np.float64)
    a = np.ascontiguousarray(a, dtype=np.float64)
    phi = a.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, maxit + 1):
        if beta == 0.0:
            nxt = a + M.sum(axis=1)
        else:
            nxt = a + M @ np.power(phi, beta)
        residual = float(np.max(np.abs(nxt - phi)))
        phi = nxt
        if residual < tol:
            break
    return phi, iterations, residual
