import math

import numpy as np
import pytest
from scipy.integrate import quad

from navier_norms import singular
from navier_norms.errors import BoundViolated, NonIntegrable
from navier_norms.gridfn import GridFunction
from navier_norms.singular import riesz_convolution, singular_beta_integral


# -- Riesz-type convolution ---------------------------------------------------


def test_convolution_of_constant_closed_form():
    # for f = 1 on [0, 1], (|.|^(-1/2) * f)(t) = 2(sqrt(t) + sqrt(1 - t))
    f = GridFunction(T=1.0, values=np.ones(200))
    g = riesz_convolution(f, 0.5)
    mid = (np.arange(200) + 0.5) / 200.0
    expected = 2.0 * (np.sqrt(mid) + np.sqrt(1.0 - mid))
    assert np.allclose(g.values, expected, rtol=1e-12, atol=1e-12)


def test_convolution_symmetry():
    # symmetric data on a symmetric interval gives a symmetric result
    rng = np.random.default_rng(2)
    half = rng.uniform(0.0, 1.0, 32)
    f = GridFunction(T=2.0, values=np.concatenate([half, half[::-1]]))
    g = riesz_convolution(f, 0.3)
    assert np.allclose(g.values, g.values[::-1], rtol=1e-11, atol=1e-13)


def test_convolution_of_zero():
    f = GridFunction(T=1.0, values=np.zeros(16))
    assert np.all(riesz_convolution(f, 0.7).values == 0.0)


def test_convolution_is_linear_and_monotone():
    rng = np.random.default_rng(9)
    f = GridFunction(T=1.0, values=rng.uniform(0.0, 1.0, 64))
    g1 = riesz_convolution(f, 0.4)
    g2 = riesz_convolution(f.with_values(2.0 * f.values), 0.4)
    assert np.allclose(g2.values, 2.0 * g1.values, rtol=1e-13)
    assert np.all(g1.values >= 0.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
def test_convolution_rejects_bad_alpha(alpha):
    f = GridFunction(T=1.0, values=np.ones(4))
    with pytest.raises(NonIntegrable):
        riesz_convolution(f, alpha)


# -- two-power singular integral ----------------------------------------------


def test_beta_integral_flat_case():
    out = singular_beta_integral(2.0, 0.5, 0.0, 0.0)
    assert out.value == pytest.approx(1.5, rel=1e-14)
    assert out.value <= out.bound


def test_beta_integral_half_power():
    # int_0^1 (1-u)^(-1/2) du = 2; bound = 3 sqrt(1/2)
    out = singular_beta_integral(1.0, 0.0, 0.5, 0.0)
    assert out.value == pytest.approx(2.0, rel=1e-12)
    assert out.bound == pytest.approx(3.0 * math.sqrt(0.5), rel=1e-12)


def test_beta_integral_matches_quadrature():
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta = float(rng.uniform(0.05, 0.9))
        beta = float(rng.uniform(0.05, 0.9))
        s = float(rng.uniform(0.0, 1.0))
        T = s + float(rng.uniform(0.1, 2.0))
        out = singular_beta_integral(T, s, theta, beta)
        # algebraic-weight quadrature handles both endpoint singularities
        ref, _ = quad(lambda u: 1.0, s, T, weight="alg", wvar=(-beta, -theta))
        assert out.value == pytest.approx(ref, rel=1e-8)
        assert out.value <= out.bound * (1 + 1e-12)


def test_beta_integral_bound_dominates_near_one():
    for theta in (0.9, 0.99):
        for beta in (0.9, 0.99):
            out = singular_beta_integral(1.0, 0.0, theta, beta)
            assert out.value <= out.bound * (1 + 1e-12)


def test_beta_integral_rejects_nonintegrable():
    with pytest.raises(NonIntegrable):
        singular_beta_integral(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(NonIntegrable):
        singular_beta_integral(1.0, 0.0, 0.5, 1.2)
    with pytest.raises(ValueError):
        singular_beta_integral(1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        singular_beta_integral(1.0, 0.0, -0.1, 0.5)


@pytest.mark.parametrize("position", range(4), ids=["T", "s", "theta", "beta"])
def test_beta_integral_rejects_nan(position):
    # theta + beta = 1 makes the span exponent 0, so a NaN span reads as 1
    args = [1.0, 0.0, 0.5, 0.5]
    args[position] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        singular_beta_integral(*args)


def test_beta_integral_rejects_overflowing_span():
    # both endpoints are finite, but T - s is not
    with pytest.raises(ValueError, match="span"):
        singular_beta_integral(1e308, -1e308, 0.5, 0.25)


@pytest.mark.parametrize("theta, beta", [(0.0, 0.0), (0.5, 0.25), (0.3, 0.6)])
def test_beta_integral_subnormal_span(theta, beta):
    # at the smallest subnormal span, span / 2 underflows to 0; value and
    # bound share one span factor, so rounding cannot put the value above
    out = singular_beta_integral(5e-324, 0.0, theta, beta)
    assert 0.0 < out.value <= out.bound


def test_beta_integral_bound_violation_is_library_error(monkeypatch):
    monkeypatch.setattr(singular, "beta_function", lambda a, b: 10.0)
    with pytest.raises(BoundViolated, match="splitting bound"):
        singular_beta_integral(1.0, 0.0, 0.0, 0.0)
