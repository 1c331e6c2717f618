import numpy as np

from navier_norms import kernels


def _problem(n=64, seed=3):
    rng = np.random.default_rng(seed)
    M = np.tril(rng.uniform(0.0, 0.5 / n, (n, n)))
    a = rng.uniform(0.5, 1.5, n)
    return M, a


def test_python_backend_beta_zero_closed_form():
    M, a = _problem()
    phi, iterations, residual = kernels.picard_solve(M, a, 0.0, 1e-10, 100)
    assert residual < 1e-10
    assert np.allclose(phi, a + M.sum(axis=1), rtol=0, atol=1e-14)


def test_fixed_point_residual():
    M, a = _problem()
    beta = 0.6
    phi, _, residual = kernels.picard_solve(M, a, beta, 1e-12, 10_000)
    assert residual < 1e-12
    assert np.allclose(phi, a + M @ phi**beta, atol=1e-11)


def test_readonly_inputs_accepted():
    M, a = _problem(n=16)
    M.setflags(write=False)
    a.setflags(write=False)
    phi, _, residual = kernels.picard_solve(M, a, 0.5, 1e-10, 1000)
    assert residual < 1e-10
