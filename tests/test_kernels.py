import numpy as np
import pytest

from navier_norms import kernels
from navier_norms.errors import NoConvergence


def _problem(n=64, seed=3):
    rng = np.random.default_rng(seed)
    M = np.tril(rng.uniform(0.0, 0.5 / n, (n, n)))
    a = rng.uniform(0.5, 1.5, n)
    return M, a


def test_python_backend_beta_zero_closed_form():
    M, a = _problem()
    phi, iterations, residual = kernels.picard_solve(M.__matmul__, a, 0.0, 1e-10, 100)
    assert residual < 1e-10
    assert np.allclose(phi, a + M.sum(axis=1), rtol=0, atol=1e-14)


def test_fixed_point_residual():
    M, a = _problem()
    beta = 0.6
    phi, _, residual = kernels.picard_solve(M.__matmul__, a, beta, 1e-12, 10_000)
    assert residual < 1e-12
    assert np.allclose(phi, a + M @ phi**beta, atol=1e-11)


def test_readonly_inputs_accepted():
    M, a = _problem(n=16)
    M.setflags(write=False)
    a.setflags(write=False)
    phi, _, residual = kernels.picard_solve(M.__matmul__, a, 0.5, 1e-10, 1000)
    assert residual < 1e-10


def test_no_convergence_raises():
    M, a = _problem()
    with pytest.raises(NoConvergence) as exc:
        kernels.picard_solve(M.__matmul__, a, 0.6, 1e-12, 2)
    assert exc.value.iterations == 2


def test_overflow_stops_at_first_non_finite_iterate():
    # phi_{k+1} = 1 + 1e200 phi_k overflows on the second iterate
    a = np.ones(4)
    with np.errstate(over="ignore"), pytest.raises(NoConvergence) as exc:
        kernels.picard_solve(lambda g: 1e200 * g, a, 1.0, 1e-10, 10_000)
    assert exc.value.iterations == 2
    assert not np.isfinite(exc.value.residual)
