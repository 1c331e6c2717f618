"""Singular time convolutions with power-law kernels.

Two building blocks: the one-dimensional Riesz-type convolution
|t - s|^(-alpha) * f(s) of a grid function, and the exact two-power
integral int_s^T (T-u)^(-theta) (u-s)^(-beta) du together with the
elementary splitting bound used to control it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_function

from .errors import BoundViolated, NonIntegrable
from .gridfn import GridFunction

__all__ = [
    "riesz_convolution",
    "SingularIntegral",
    "singular_beta_integral",
]


def riesz_convolution(f: GridFunction, alpha: float) -> GridFunction:
    """Convolution (|.|^(-alpha) * f) evaluated at the cell midpoints.

    alpha must lie in (0, 1) for local integrability.  The kernel is
    integrated exactly over each source cell (piecewise-constant f), so the
    singularity at t = s needs no regularisation.
    """
    if not (0.0 < alpha < 1.0):
        raise NonIntegrable(f"alpha={alpha} outside (0,1)")
    n, h = f.n, f.cell_width
    m = np.arange(1 - n, n)  # lag i - j: cell j spans e = (m -/+ 1/2)h from midpoint i
    # antiderivative of |e|^(-alpha) in e: sign(e) |e|^(1-alpha) / (1-alpha)
    e0 = (m + 0.5) * h
    e1 = (m - 0.5) * h
    g0 = np.sign(e0) * np.abs(e0) ** (1.0 - alpha)
    g1 = np.sign(e1) * np.abs(e1) ** (1.0 - alpha)
    weights = (g0 - g1) / (1.0 - alpha)
    return f.with_values(np.convolve(weights, f.values)[n - 1 : 2 * n - 1])


@dataclass(frozen=True)
class SingularIntegral:
    value: float
    bound: float


def singular_beta_integral(T: float, s: float, theta: float, beta: float) -> SingularIntegral:
    """Exact value and splitting bound of int_s^T (T-u)^(-theta) (u-s)^(-beta) du.

    The value is (T-s)^(1-theta-beta) B(1-beta, 1-theta) with B the Euler
    beta function.  The bound splits the interval at the midpoint, keeping
    the non-singular factor at its maximum on each half:
    ((1-theta)^(-1) + (1-beta)^(-1)) ((T-s)/2)^(1-theta-beta).
    """
    if not all(map(math.isfinite, (T, s, theta, beta))):
        raise ValueError(f"non-finite argument: T={T}, s={s}, theta={theta}, beta={beta}")
    span = T - s
    if not 0.0 < span < math.inf:
        raise ValueError(f"need a finite span 0 < T - s, got T={T}, s={s}, span {span}")
    if theta >= 1.0 or beta >= 1.0:
        raise NonIntegrable(f"theta={theta}, beta={beta}: exponent >= 1")
    if theta < 0.0 or beta < 0.0:
        raise ValueError("theta and beta must be non-negative")
    power = 1.0 - theta - beta
    scale = span**power  # one shared factor keeps value <= bound under rounding
    value = scale * float(beta_function(1.0 - beta, 1.0 - theta))
    bound = scale * ((1.0 / (1.0 - theta) + 1.0 / (1.0 - beta)) * 0.5**power)
    if math.isnan(value) or value > bound * (1.0 + 1e-12):
        raise BoundViolated(f"value {value!r} exceeds the splitting bound {bound!r}")
    return SingularIntegral(value=value, bound=bound)
