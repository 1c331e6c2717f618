"""Exact exponent algebra: interpolation splits, mixed-norm exponents,
Riesz-convolution targets, heat-kernel norms, and the rational families
governing the admissible mixed-norm curves.

Everything here is a pure function of ExtRational inputs; identities such as
1/r = alpha/p + (1-alpha)/q hold exactly, not up to rounding.  Endpoint cases
with infinite exponents are evaluated through the reciprocal form, using
1/inf = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphaOutOfRange, Degenerate, OutOfRange, Pole, UnknownFamily
from .extrational import ExtRational, Q

__all__ = [
    "InterpolationSplit",
    "HlsTarget",
    "ThetaBound",
    "interp_alpha",
    "double_interp",
    "brezis_mironescu",
    "hls_target",
    "heat_kernel_lq_norm",
    "weighted_theta_bound",
    "f_family",
    "f_family_dp_sign",
    "F_FAMILIES",
]


@dataclass(frozen=True)
class InterpolationSplit:
    """The pair (alpha, 1-alpha) of a Lebesgue interpolation."""

    alpha: ExtRational
    one_minus_alpha: ExtRational

    def __post_init__(self):
        if self.alpha + self.one_minus_alpha != Q(1):
            raise ValueError("alpha + (1 - alpha) must equal 1")
        if not (Q(0) <= self.alpha <= Q(1)):
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class HlsTarget:
    """Target exponent of the Riesz-convolution inequality, with admissibility."""

    r_tilde: ExtRational
    admissible: bool
    reason: str = ""


@dataclass(frozen=True)
class ThetaBound:
    """Upper bound on the weight exponent of the singular time integral.

    ``theta_max`` is the raw value (3 - k r) / (2 r); ``effective`` caps it at
    the global integrability limit 1.  ``equality_allowed`` records the cases
    where theta may equal the bound instead of staying strictly below it.
    """

    theta_max: ExtRational
    effective: ExtRational
    equality_allowed: bool


def interp_alpha(p: ExtRational, r: ExtRational, q: ExtRational) -> InterpolationSplit:
    """Split exponent alpha with 1/r = alpha/p + (1-alpha)/q, exactly.

    Requires 1 <= p <= r <= q <= inf and p != q.
    """
    p, r, q = Q(p), Q(r), Q(q)
    if p == q:
        raise Degenerate(f"p = q = {p}")
    if not (Q(1) <= p <= q):
        raise OutOfRange(f"need 1 <= p <= q, got p={p}, q={q}")
    if not (p <= r <= q):
        raise OutOfRange(f"r={r} outside [{p}, {q}]")
    # reciprocal form handles q = inf (and r = inf when q = inf)
    alpha = (r.inv() - q.inv()) / (p.inv() - q.inv())
    return InterpolationSplit(alpha=alpha, one_minus_alpha=Q(1) - alpha)


def double_interp(
    p: ExtRational,
    p_t: ExtRational,
    q: ExtRational,
    q_t: ExtRational,
    r: ExtRational,
) -> ExtRational:
    """Time exponent of the mixed norm obtained by interpolating two mixed norms.

    Interpolating the spaces with spatial exponents p, q (time exponents p_t,
    q_t) at spatial exponent r gives the time exponent r_tilde with
    1/r_tilde = alpha/p_t + (1-alpha)/q_t.
    """
    p, p_t, q, q_t, r = Q(p), Q(p_t), Q(q), Q(q_t), Q(r)
    if p == q:
        raise Degenerate(f"p = q = {p}")
    if p > q:
        p, q = q, p
        p_t, q_t = q_t, p_t
    split = interp_alpha(p, r, q)
    inv_rt = split.alpha * p_t.inv() + split.one_minus_alpha * q_t.inv()
    return inv_rt.inv()


def brezis_mironescu(
    p: ExtRational, q: ExtRational, r: ExtRational
) -> tuple[ExtRational, ExtRational]:
    """Sobolev interpolation exponents (alpha, gamma) between L^p and W^{1,q}.

    The interpolated space W^{gamma,r} has 1/r = alpha/p + (1-alpha)/q and
    smoothness gamma = 1 - alpha.
    """
    p, q, r = Q(p), Q(q), Q(r)
    if p == q:
        raise Degenerate(f"p = q = {p}")
    if not (Q(1) <= p and Q(1) <= q):
        raise OutOfRange("p and q must be >= 1")
    lo, hi = (p, q) if p < q else (q, p)
    if not (lo <= r <= hi):
        raise OutOfRange(f"1/r must lie between 1/p and 1/q (r={r})")
    split = interp_alpha(lo, r, hi)
    if p < q:
        return split.alpha, split.one_minus_alpha
    return split.one_minus_alpha, split.alpha


def hls_target(alpha: ExtRational, r_prime: ExtRational) -> HlsTarget:
    """Output exponent r_tilde of convolution with |.|^(-alpha) from L^{r_prime}.

    Solves 1/r_prime + alpha = 1 + 1/r_tilde.  The result is flagged
    inadmissible when it falls outside [1, inf).
    """
    alpha, r_prime = Q(alpha), Q(r_prime)
    if not (Q(0) < alpha < Q(1)):
        raise AlphaOutOfRange(f"alpha={alpha} outside (0,1)")
    if r_prime < Q(1):
        raise OutOfRange(f"r_prime={r_prime} < 1")
    inv_rt = r_prime.inv() + alpha - Q(1)
    if inv_rt < Q(0):
        # negative reciprocal: no Lebesgue exponent at all
        return HlsTarget(r_tilde=inv_rt.inv(), admissible=False, reason="r_tilde < 0")
    r_tilde = inv_rt.inv()
    if r_tilde.is_infinite:
        return HlsTarget(r_tilde=r_tilde, admissible=False, reason="r_tilde = inf")
    if r_tilde < Q(1):
        return HlsTarget(r_tilde=r_tilde, admissible=False, reason="r_tilde < 1")
    return HlsTarget(r_tilde=r_tilde, admissible=True)


def heat_kernel_lq_norm(nu, t, q: ExtRational) -> float:
    """Spatial L^q norm of the 3-d heat kernel at time t, viscosity nu.

    Closed form q^(-3/(2q)) * (4 pi nu t)^(3(1-q)/(2q)); the exponents are
    exact rationals, the final value is a float.
    """
    q = Q(q)
    if not q.is_finite or q < Q(1):
        raise OutOfRange(f"q={q} must be finite and >= 1")
    if not (nu > 0 and t > 0):
        raise OutOfRange("nu and t must be positive")
    qf = q.as_fraction()
    e1 = Fraction(-3, 2) / qf
    e2 = Fraction(3, 2) * (1 - qf) / qf
    return float(qf) ** float(e1) * (4.0 * math.pi * float(nu) * float(t)) ** float(e2)


def weighted_theta_bound(k: int, r: ExtRational) -> ThetaBound:
    """Admissible weight exponent for the singular time integral of the L^r norm.

    Returns theta_max = (3 - k r) / (2 r) together with the global cap
    theta < 1.  Equality with the bound is allowed for k in {1, 2} and, for
    k = 0, when r >= 3.
    """
    if k not in (0, 1, 2):
        raise OutOfRange(f"k={k} outside {{0,1,2}}")
    r = Q(r)
    if k == 0:
        if not (Q(1) <= r) or r.is_infinite:
            raise OutOfRange(f"r={r} must be finite and >= 1")
    else:
        if not (Q(1) <= r < Q(3, k)):
            raise OutOfRange(f"r={r} outside [1, 3/{k})")
    theta_max = (Q(3) - Q(k) * r) / (Q(2) * r)
    effective = theta_max if theta_max < Q(1) else Q(1)
    equality_allowed = k in (1, 2) or (k == 0 and r >= Q(3))
    return ThetaBound(theta_max=theta_max, effective=effective, equality_allowed=equality_allowed)


# Rational families (r, p) -> r_tilde as (numerator, denominator) polynomial
# coefficient tables {(i, j): c} for c * r^i * p^j.

F_FAMILIES = {
    # 2r(5p-6) / (8rp - 9r - 18p + 18)
    "F1": (
        {(1, 1): 10, (1, 0): -12},
        {(1, 1): 8, (1, 0): -9, (0, 1): -18, (0, 0): 18},
    ),
    # ((3p-6)r^2 + (30-10p)r + 3p - 18) / (r(rp + 3r - 3p))
    "F2": (
        {(2, 1): 3, (2, 0): -6, (1, 1): -10, (1, 0): 30, (0, 1): 3, (0, 0): -18},
        {(2, 1): 1, (2, 0): 3, (1, 1): -3},
    ),
    # r(r-4)(pr + 3r - 3p) / (3(r-2)(3pr^2 - 6r^2 - 11pr + 27r + 6p - 18))
    "F3": (
        {(3, 1): 1, (3, 0): 3, (2, 1): -7, (2, 0): -12, (1, 1): 12},
        {
            (3, 1): 9,
            (3, 0): -18,
            (2, 1): -51,
            (2, 0): 117,
            (1, 1): 84,
            (1, 0): -216,
            (0, 1): -36,
            (0, 0): 108,
        },
    ),
    # 2r(3r-2p) / (21r^2 - 18r - 9rp + 6p)
    "F3tilde": (
        {(2, 0): 6, (1, 1): -4},
        {(2, 0): 21, (1, 0): -18, (1, 1): -9, (0, 1): 6},
    ),
}


def _poly_eval(coeffs: dict, r: Fraction, p: Fraction) -> Fraction:
    return sum((Fraction(c) * r**i * p**j for (i, j), c in coeffs.items()), Fraction(0))


def _family(which: str):
    """The (numerator, denominator) coefficients of a named family."""
    if which not in F_FAMILIES:
        raise UnknownFamily(f"unknown family {which!r}; choose from {sorted(F_FAMILIES)}")
    return F_FAMILIES[which]


def f_family(which: str, r: ExtRational, p: ExtRational) -> ExtRational:
    """Exact value of one of the named rational families at (r, p)."""
    num_c, den_c = _family(which)
    r, p = Q(r), Q(p)
    if not (r.is_finite and p.is_finite):
        raise OutOfRange("families are defined for finite (r, p)")
    rf, pf = r.as_fraction(), p.as_fraction()
    den = _poly_eval(den_c, rf, pf)
    if den == 0:
        raise Pole(f"{which} has a pole at (r={r}, p={p})")
    return ExtRational(_poly_eval(num_c, rf, pf) / den)


def f_family_dp_sign(which: str, r: ExtRational) -> str:
    """Sign of d/dp of the named family at fixed r (independent of p).

    Every family is linear in p, N(p)/D(p) = (N0 + p N1)/(D0 + p D1), so
    d/dp = (N1 D0 - N0 D1)/D(p)^2, and N1 D0 - N0 D1 = N(1) D(0) - N(0) D(1).
    The derivative is undefined where D vanishes for every p (F3 at r = 2).
    """
    r = Q(r)
    if not (r.is_finite and r > Q(1)):
        raise OutOfRange(f"r={r} must be finite and > 1")
    coeffs = _family(which)
    rf = r.as_fraction()
    num, den = ([_poly_eval(c, rf, Fraction(p)) for p in (0, 1)] for c in coeffs)
    if den == [0, 0]:
        raise Pole(f"{which} derivative undefined at r = {r}")
    dp_num = num[1] * den[0] - num[0] * den[1]
    return "positive" if dp_num > 0 else "negative" if dp_num < 0 else "zero"
