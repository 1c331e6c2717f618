import math

import numpy as np
import pytest

from navier_norms import bihari
from navier_norms.bihari import (
    BihariInstance,
    bihari_bound,
    bihari_verify,
    corollary_norm_bound,
    corollary_time_exponent,
    equality_case,
    random_instance,
    volterra_oracle,
)
from navier_norms.errors import (
    ExponentInadmissible,
    HypothesisFailed,
    SingularityAtEndpoint,
)
from navier_norms.gridfn import GridFunction


def constant_instance(n=128, a=1.0, psi=1.0, beta=0.5, gamma=1.0, T=1.0):
    return BihariInstance(
        a=GridFunction(T=T, values=np.full(n, a)),
        psi=GridFunction(T=T, values=np.full(n, psi)),
        beta=beta,
        gamma=gamma,
    )


def test_instance_validation():
    with pytest.raises(ValueError):
        constant_instance(beta=1.0)
    with pytest.raises(SingularityAtEndpoint):
        constant_instance(gamma=0.0)
    with pytest.raises(ValueError):
        BihariInstance(
            a=GridFunction(T=1.0, values=np.array([2.0, 1.0])),
            psi=GridFunction(T=1.0, values=np.ones(2)),
            beta=0.5,
            gamma=1.0,
        )
    with pytest.raises(ValueError):
        BihariInstance(
            a=GridFunction(T=1.0, values=np.ones(4)),
            psi=GridFunction(T=2.0, values=np.ones(4)),
            beta=0.5,
            gamma=1.0,
        )


# -- bound function -----------------------------------------------------------


def test_bound_hand_value():
    inst = constant_instance()
    assert bihari_bound(inst, t=1.0, s_tilde=1.0) == pytest.approx(4.0, rel=1e-12)


def test_bound_zero_psi_is_a():
    inst = constant_instance(psi=0.0, a=2.5)
    assert bihari_bound(inst, 0.8, 0.4) == pytest.approx(2.5)


def test_bound_beta_zero_is_affine():
    inst = constant_instance(beta=0.0, gamma=0.5, n=64)
    # integral of (t-s)^(-1/2) over [0, s~] = 2(sqrt(t) - sqrt(t - s~))
    t, s = 1.0, 0.5
    expected = 1.0 + 2.0 * (math.sqrt(t) - math.sqrt(t - s))
    assert bihari_bound(inst, t, s) == pytest.approx(expected, rel=1e-12)


def test_bound_domain_checks():
    inst = constant_instance()
    with pytest.raises(ValueError):
        bihari_bound(inst, 1.5, 0.5)
    with pytest.raises(ValueError):
        bihari_bound(inst, 0.5, 0.8)


# -- kernel integrals ---------------------------------------------------------


@pytest.mark.parametrize("n, T, gamma", [(100, 1.0, 0.1), (256, 0.7, 0.1), (256, 1.0, 0.5)])
def test_lag_weights_integrate_exactly(n, T, gamma):
    # psi = 1: int_0^t (t-s)^(gamma-1) ds = t^gamma/gamma, and the linear
    # data s are integrated exactly, int_0^t (t-s)^(gamma-1) s ds
    # = t^(gamma+1)/(gamma (gamma+1))
    inst = constant_instance(n=n, T=T, gamma=gamma)
    s_nodes = np.arange(n + 1) * inst.a.cell_width
    t = s_nodes[1:]
    rows = bihari._cell_operator(inst)(np.ones(n))
    assert np.max(np.abs(rows / (t**gamma / gamma) - 1.0)) < 1e-13
    linear = bihari._node_operator(inst)(s_nodes)[1:]
    expected = t ** (gamma + 1) / (gamma * (gamma + 1))
    assert np.max(np.abs(linear / expected - 1.0)) < 1e-13


def _lower_toeplitz(w):
    """(n+1) x n matrix with entry (i, j) = w[i - j] for i >= j, else 0."""
    lag = np.subtract.outer(np.arange(w.size), np.arange(w.size - 1))
    return np.where(lag >= 0, w[lag], 0.0)


@pytest.mark.parametrize("n, T, gamma", [(64, 1.0, 0.1), (256, 0.7, 0.5), (1024, 1.0, 0.9)])
def test_operators_match_dense_reference(n, T, gamma):
    # the convolution operators against the dense product-integration and
    # cell matrices gathered from the same lag weights
    rng = np.random.default_rng(n)
    inst = random_instance(rng, n=n, T=T, gamma=gamma)
    i0, i1 = bihari._lag_weights(n, inst.a.cell_width, gamma)
    psi = inst.psi.values[None, :]
    nodes = np.zeros((n + 1, n + 1))
    nodes[:, :-1] += psi * _lower_toeplitz(i0 - i1)
    nodes[:, 1:] += psi * _lower_toeplitz(i1)
    cells = _lower_toeplitz(i0)[1:] * psi
    g = rng.uniform(0.5, 2.0, n + 1)
    for op, M, x in ((bihari._node_operator(inst), nodes, g), (bihari._cell_operator(inst), cells, g[1:])):
        got, ref = op(x), M @ x
        assert got.shape == ref.shape
        nz = ref != 0  # only node 0, which no cell precedes
        assert np.all(got[~nz] == 0)
        assert np.max(np.abs(got[nz] / ref[nz] - 1.0)) < 1e-13


# -- equality-case solvers ----------------------------------------------------


def test_oracle_zero_psi_returns_a():
    inst = constant_instance(psi=0.0, a=1.7)
    assert np.allclose(volterra_oracle(inst).values, 1.7)
    assert np.allclose(equality_case(inst).values, 1.7)


def test_oracle_analytic_solution():
    # phi = 1 + int_0^t sqrt(phi) solves phi' = sqrt(phi): phi = (1 + t/2)^2
    inst = constant_instance(n=256)
    phi = volterra_oracle(inst)
    t = np.arange(1, 257) / 256.0
    assert np.max(np.abs(phi.values - (1 + t / 2) ** 2)) < 1e-6
    assert phi.values[-1] == pytest.approx(2.25, abs=1e-6)


def test_oracle_beta_zero_matches_bound_exactly():
    for n, T in ((64, 1.0), (100, 1.0), (96, 0.7)):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=n, T=T, beta=0.0)
        phi = equality_case(inst)
        nodes = np.arange(1, n + 1) * inst.a.cell_width
        expected = np.array([bihari_bound(inst, t, t) for t in nodes])
        assert np.allclose(phi.values, expected, rtol=1e-12, atol=1e-12), (n, T)


def test_equality_case_saturates_cell_quadrature():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, n=64)
    phi = equality_case(inst)
    rhs = inst.a.values + bihari._cell_operator(inst)(phi.values**inst.beta)
    assert np.allclose(phi.values, rhs, rtol=1e-9, atol=1e-9)


# -- verification -------------------------------------------------------------


def test_verify_trivial_candidate():
    inst = constant_instance(psi=0.0, a=2.0)
    phi = inst.a.with_values(np.full(inst.n, 1.0))
    report = bihari_verify(inst, phi)
    assert report.verified
    assert np.all(report.hypothesis_margins > 0)


def test_verify_scaled_equality_case():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = random_instance(rng, n=128)
        phi = inst.a.with_values(equality_case(inst).values * (1 - 1e-9))
        report = bihari_verify(inst, phi, slack=1e-6)
        assert report.verified
        assert np.all(report.hypothesis_margins > 0)


def test_verify_rejects_oversized_candidate():
    inst = constant_instance()
    big = inst.a.with_values(equality_case(inst).values * 3.0)
    with pytest.raises(HypothesisFailed):
        bihari_verify(inst, big)
    report = bihari_verify(inst, big, check_hypothesis=False)
    assert not report.verified
    assert report.conclusion_max_violation > 0.1


def test_verify_grid_mismatch():
    inst = constant_instance(n=32)
    with pytest.raises(ValueError):
        bihari_verify(inst, GridFunction(T=1.0, values=np.ones(16)))


def test_sorted_comparison_is_reported_not_gating():
    inst = constant_instance()
    phi = inst.a.with_values(equality_case(inst).values * (1 - 1e-9))
    report = bihari_verify(inst, phi)
    assert report.sorted_max_violation <= report.conclusion_max_violation + 1e-12


# -- norm corollary -----------------------------------------------------------


def test_time_exponent_relation():
    assert corollary_time_exponent(0.0, 0.5, 1.0) == pytest.approx(2.0)
    assert corollary_time_exponent(0.5, 0.25, 2.0) == math.inf
    with pytest.raises(ExponentInadmissible):
        corollary_time_exponent(0.0, 0.9, 2.0)
    with pytest.raises(ExponentInadmissible):
        corollary_time_exponent(0.5, 0.1, 0.2)


def test_corollary_zero_psi():
    inst = constant_instance(psi=0.0, a=2.0, beta=0.3, gamma=0.2)
    rep = corollary_norm_bound(inst, r=2.0)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)


def test_corollary_ratio_bounded_family():
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(100):
        inst = random_instance(rng, n=64, beta=0.3, gamma=0.2)
        ratios.append(corollary_norm_bound(inst, r=2.0).ratio)
    assert max(ratios) / min(ratios) < 2.0


# -- generators ---------------------------------------------------------------


def test_random_instance_shape():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, n=32, T=2.0)
    assert inst.n == 32
    assert inst.T == 2.0
    assert np.all(np.diff(inst.a.values) >= 0)
    assert 0.0 <= inst.beta < 0.9
    assert 0.1 <= inst.gamma <= 1.0
