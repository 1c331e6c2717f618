import time

import pytest

from navier_norms.spectral import SolverConfig, divergence_error, simulate


@pytest.fixture(scope="session")
def tg32_run():
    """Reference Taylor-Green run: N=32, nu=0.1, dt=1e-3, T=1."""
    config = SolverConfig(
        N=32,
        nu=0.1,
        dt=1e-3,
        T=1.0,
        sample_stride=10,
        norms=((0, 6.0), (1, 3.0), (1, 2.0), (0, 2.0), (2, 2.0)),
    )
    divergence_errors = []
    start = time.monotonic()
    fields, traj, report = simulate(
        config, on_sample=lambda t, state: divergence_errors.append(divergence_error(state))
    )
    elapsed = time.monotonic() - start
    return {
        "config": config,
        "divergence_errors": divergence_errors,
        "final": fields[-1],
        "traj": traj,
        "report": report,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def tg64_run():
    """Refinement run at N=64 (larger dt: time error is far below the 5%
    refinement tolerance, advective CFL stays near 0.04)."""
    config = SolverConfig(
        N=64,
        nu=0.1,
        dt=4e-3,
        T=1.0,
        sample_stride=5,
        norms=((0, 6.0), (1, 3.0), (1, 2.0), (0, 2.0), (2, 2.0)),
    )
    start = time.monotonic()
    _, traj, report = simulate(config)
    elapsed = time.monotonic() - start
    return {
        "config": config,
        "traj": traj,
        "report": report,
        "elapsed": elapsed,
    }
