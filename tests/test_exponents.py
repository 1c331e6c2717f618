import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from navier_norms.errors import AlphaOutOfRange, Degenerate, OutOfRange, Pole, UnknownFamily
from navier_norms.exponents import (
    F_FAMILIES,
    brezis_mironescu,
    double_interp,
    f_family,
    f_family_dp_sign,
    heat_kernel_lq_norm,
    hls_target,
    interp_alpha,
    weighted_theta_bound,
)
from navier_norms.extrational import INF, Q

# independent symbolic forms of the rational families
_r, _p = sympy.symbols("r p", positive=True)
SYMPY_FAMILIES = {
    "F1": 2 * _r * (5 * _p - 6) / (8 * _r * _p - 9 * _r - 18 * _p + 18),
    "F2": ((3 * _p - 6) * _r**2 + (30 - 10 * _p) * _r + 3 * _p - 18)
    / (_r * (_r * _p + 3 * _r - 3 * _p)),
    "F3": _r * (_r - 4) * (_p * _r + 3 * _r - 3 * _p)
    / (3 * (_r - 2) * (3 * _p * _r**2 - 6 * _r**2 - 11 * _p * _r + 27 * _r + 6 * _p - 18)),
    "F3tilde": 2 * _r * (3 * _r - 2 * _p) / (21 * _r**2 - 18 * _r - 9 * _r * _p + 6 * _p),
}

rationals = st.fractions(min_value=Fraction(11, 10), max_value=Fraction(20), max_denominator=40)


# -- interpolation ------------------------------------------------------------


@given(
    p=st.fractions(min_value=1, max_value=10, max_denominator=20),
    q=st.fractions(min_value=1, max_value=10, max_denominator=20),
    w=st.fractions(min_value=0, max_value=1, max_denominator=20),
)
def test_interp_alpha_identity(p, q, w):
    if p == q:
        return
    p, q = sorted([p, q])
    # pick r between p and q through the reciprocal, where the identity lives
    inv_r = w / p + (1 - w) / q
    r = 1 / inv_r
    split = interp_alpha(Q(p), Q(r), Q(q))
    assert split.alpha.as_fraction() / p + split.one_minus_alpha.as_fraction() / q == inv_r


def test_interp_alpha_endpoints():
    assert interp_alpha(Q(2), Q(2), Q(6)).alpha == Q(1)
    assert interp_alpha(Q(2), Q(6), Q(6)).alpha == Q(0)


def test_interp_alpha_infinite_upper():
    split = interp_alpha(Q(2), Q(4), INF)
    # 1/4 = alpha/2 -> alpha = 1/2
    assert split.alpha == Q(1, 2)


def test_interp_alpha_rejects_degenerate():
    with pytest.raises(Degenerate):
        interp_alpha(Q(2), Q(2), Q(2))
    with pytest.raises(OutOfRange):
        interp_alpha(Q(2), Q(7), Q(6))


@pytest.mark.parametrize("r_num", range(2, 12))
def test_sobolev_split_between_l6_and_l2(r_num):
    # interpolating L^6 and the H^1 slot at exponent 2r gives
    # alpha = 3(r-1)/(2r)
    r = Fraction(r_num, 2) + Fraction(1, 2)  # assorted rationals > 1
    if r <= 1 or 2 * r > 6:
        return
    alpha, gamma = brezis_mironescu(Q(6), Q(2), Q(2 * r))
    assert alpha.as_fraction() == 3 * (r - 1) / (2 * r)
    assert gamma == Q(1) - alpha


@pytest.mark.parametrize("r", [Fraction(3, 2), 2, 3, 5, Fraction(7, 3)])
def test_sobolev_split_between_linf_and_l2(r):
    alpha, _ = brezis_mironescu(INF, Q(2), Q(2 * r))
    assert alpha.as_fraction() == (r - 1) / Fraction(r)


# -- mixed-norm reconstruction ------------------------------------------------


@pytest.mark.parametrize("r", [Fraction(3, 2) + Fraction(i, 40) for i in range(20)])
def test_double_interp_first_identity(r):
    rt = double_interp(Q(3, 2), Q(1), Q(2), Q(2, 3), Q(r))
    assert rt.as_fraction() == r / (3 * (r - 1))


@pytest.mark.parametrize("r", [2 + Fraction(i, 5) for i in range(1, 21)])
def test_double_interp_second_identity(r):
    rt = double_interp(Q(2), INF, Q(6), Q(2), Q(r))
    assert rt.as_fraction() == 4 * r / (3 * (r - 2))


def test_double_interp_order_insensitive():
    assert double_interp(Q(6), Q(2), Q(2), INF, Q(3)) == double_interp(
        Q(2), INF, Q(6), Q(2), Q(3)
    )


# -- convolution target -------------------------------------------------------


def test_hls_relation_exact():
    t = hls_target(Q(1, 2), Q(4, 3))
    assert t.admissible
    assert t.r_tilde == Q(4)
    # 1/r' + alpha = 1 + 1/r_tilde
    assert Q(3, 4) + Q(1, 2) == Q(1) + t.r_tilde.inv()


def test_hls_inadmissible_cases():
    assert not hls_target(Q(1, 2), Q(2)).admissible  # r_tilde = inf
    assert not hls_target(Q(1, 4), Q(3)).admissible  # negative reciprocal
    with pytest.raises(AlphaOutOfRange):
        hls_target(Q(1), Q(2))
    with pytest.raises(OutOfRange):
        hls_target(Q(1, 2), Q(1, 2))


# -- heat kernel --------------------------------------------------------------


def test_heat_kernel_mass():
    assert heat_kernel_lq_norm(0.3, 0.7, Q(1)) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("q", [Fraction(3, 2), 2, 3, 7])
def test_heat_kernel_vs_gaussian_integral(q):
    # |G_t|_q^q = (4 pi nu t)^(-3q/2) * (4 pi nu t / q)^(3/2), Gaussian moments
    nu, t = 0.2, 0.5
    s = 4.0 * math.pi * nu * t
    expected = (s ** (-1.5 * float(q)) * (s / float(q)) ** 1.5) ** (1.0 / float(q))
    assert heat_kernel_lq_norm(nu, t, Q(q)) == pytest.approx(expected, rel=1e-12)


def test_heat_kernel_rejects_bad_input():
    with pytest.raises(OutOfRange):
        heat_kernel_lq_norm(1.0, 1.0, INF)
    with pytest.raises(OutOfRange):
        heat_kernel_lq_norm(-1.0, 1.0, Q(2))


# -- weighted singular exponent ----------------------------------------------


def test_theta_bound_values():
    assert weighted_theta_bound(1, Q(2)).theta_max == Q(1, 4)
    assert weighted_theta_bound(2, Q(1)).theta_max == Q(1, 2)
    assert weighted_theta_bound(0, Q(2)).theta_max == Q(3, 4)


def test_theta_bound_global_cap():
    b = weighted_theta_bound(0, Q(1))
    assert b.theta_max == Q(3, 2)
    assert b.effective == Q(1)


def test_theta_bound_equality_cases():
    assert weighted_theta_bound(1, Q(2)).equality_allowed
    assert weighted_theta_bound(2, Q(5, 4)).equality_allowed
    assert weighted_theta_bound(0, Q(4)).equality_allowed
    assert not weighted_theta_bound(0, Q(2)).equality_allowed


def test_theta_bound_domain():
    with pytest.raises(OutOfRange):
        weighted_theta_bound(2, Q(3, 2))
    with pytest.raises(OutOfRange):
        weighted_theta_bound(3, Q(2))


# -- rational families --------------------------------------------------------


@given(r=rationals, p=rationals, which=st.sampled_from(sorted(F_FAMILIES)))
def test_f_family_matches_symbolic(r, p, which):
    expr = SYMPY_FAMILIES[which]
    den = sympy.denom(sympy.together(expr)).subs({_r: r, _p: p})
    if den == 0:
        return
    expected = expr.subs({_r: r, _p: p})
    assert f_family(which, Q(r), Q(p)).as_fraction() == Fraction(
        int(sympy.numer(expected)), int(sympy.denom(expected))
    )


@pytest.mark.parametrize("p", [1 + Fraction(i, 22) for i in range(1, 11)])
def test_f1_at_r_six(p):
    assert f_family("F1", Q(6), Q(p)) == Q(2)


@pytest.mark.parametrize("r", [Fraction(5, 4), 2, 3, 4, 6, 8])
def test_f1_at_p_one(r):
    assert f_family("F1", Q(r), Q(1)) == Q(2)


@pytest.mark.parametrize("r", [Fraction(6, 5), 2, 3, Fraction(9, 2), 7])
def test_f3tilde_diagonal(r):
    assert f_family("F3tilde", Q(r), Q(r)).as_fraction() == Fraction(r, 6 * (r - 1))


def test_f_family_pole():
    # F2 denominator r(rp + 3r - 3p) vanishes at p = 3r/(3-r) for r < 3
    with pytest.raises(Pole):
        f_family("F2", Q(2), Q(6))


@given(r=rationals, which=st.sampled_from(sorted(F_FAMILIES)))
def test_dp_sign_matches_symbolic_derivative(r, which):
    if which == "F3" and r == 2:
        return
    deriv = sympy.diff(SYMPY_FAMILIES[which], _p)
    # the sign is independent of p; probe at two generic p values
    for p in (Fraction(7, 5), Fraction(13, 3)):
        den = sympy.denom(sympy.together(SYMPY_FAMILIES[which])).subs({_r: r, _p: p})
        if den == 0:
            continue
        val = deriv.subs({_r: r, _p: p})
        expected = "positive" if val > 0 else ("negative" if val < 0 else "zero")
        assert f_family_dp_sign(which, Q(r)) == expected


def test_dp_sign_f3tilde_negative_above_six_fifths():
    for r in (Fraction(13, 10), 2, 5, 100):
        assert f_family_dp_sign("F3tilde", Q(r)) == "negative"


@pytest.mark.parametrize(
    "which, r",
    [
        ("F1", 6),
        ("F2", 3),
        ("F2", Fraction(6, 5)),
        ("F3", 3),
        ("F3", 4),
        ("F3", Fraction(6, 5)),
        ("F3tilde", Fraction(6, 5)),
    ],
)
def test_dp_sign_zero_points(which, r):
    assert f_family_dp_sign(which, Q(r)) == "zero"


def test_dp_sign_refusals():
    # every family is linear in p, which the sign's derivation takes for granted
    assert all(j <= 1 for table in F_FAMILIES.values() for coeffs in table for _, j in coeffs)
    with pytest.raises(Pole, match="^F3 derivative undefined at r = 2$"):
        f_family_dp_sign("F3", Q(2))
    # r is refused before the family name
    with pytest.raises(OutOfRange):
        f_family_dp_sign("F9", Q(1))
    with pytest.raises(KeyError):
        f_family_dp_sign("F9", Q(2))


def test_unknown_family_one_refusal():
    # both lookups give one message, unquoted, and stay a KeyError
    message = "unknown family 'F9'; choose from ['F1', 'F2', 'F3', 'F3tilde']"
    for call in (lambda: f_family("F9", Q(2), Q(3)), lambda: f_family_dp_sign("F9", Q(2))):
        with pytest.raises(UnknownFamily) as info:
            call()
        assert isinstance(info.value, KeyError)
        assert str(info.value) == message
