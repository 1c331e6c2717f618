"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured figures, so the suite output doubles as a report.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from navier_norms import bihari
from navier_norms.curves import derivative_curve, gn_shift_grad1
from navier_norms.errors import NonIntegrable
from navier_norms.exponents import double_interp, f_family, weighted_theta_bound
from navier_norms.extrational import INF, Q
from navier_norms.gridfn import (
    GridFunction,
    decreasing_rearrangement,
    hardy_littlewood_pairing,
    increasing_rearrangement,
    lp_norm,
)
from navier_norms.singular import riesz_convolution, singular_beta_integral
from navier_norms.spectral import (
    biot_savart,
    mixed_norm,
    vorticity,
    weighted_singular_integral,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exact_exponent_identities():
    start = time.monotonic()
    ok = True
    for i in range(10):
        p = Fraction(1) + Fraction(i + 1, 22)  # ten rationals in (1, 3/2)
        ok &= f_family("F1", Q(6), Q(p)) == Q(2)
    for i in range(10):
        r = Fraction(6, 5) + Fraction(i, 2)
        ok &= f_family("F1", Q(r), Q(1)) == Q(2)
        ok &= f_family("F3tilde", Q(r), Q(r)).as_fraction() == r / (6 * (r - 1))
    ok &= derivative_curve(0, Q(6)).r_tilde == Q(2)
    ok &= derivative_curve(1, Q(3)).r_tilde == Q(1)
    ok &= derivative_curve(0, Q(2)).r_tilde == INF
    ok &= weighted_theta_bound(1, Q(2)).theta_max == Q(1, 4)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, ok, f"exact rational identities, {elapsed:.3f} s")


def test_criterion_2_interpolation_reconstruction():
    ok = True
    for i in range(20):
        r = Fraction(3, 2) + Fraction(i, 40)
        ok &= double_interp(Q(3, 2), Q(1), Q(2), Q(2, 3), Q(r)).as_fraction() == r / (
            3 * (r - 1)
        )
    for i in range(20):
        r = Fraction(2) + Fraction(i + 1, 5)
        ok &= double_interp(Q(2), INF, Q(6), Q(2), Q(r)).as_fraction() == 4 * r / (
            3 * (r - 2)
        )
    for i in range(20):
        r = Fraction(3) + Fraction(3 * i, 20)  # twenty rationals in [3, 6)
        expected = 2 * r * (5 * r - 12) / (17 * r**2 - 54 * r + 36)
        ok &= gn_shift_grad1(Q(r)).r_tilde.as_fraction() == expected
    report(2, ok, "60 exact reconstruction identities")


def test_criterion_3_rearrangement_suite():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    ok = True
    p_values = (0.5, 1.0, 2.0, 5.0, math.inf)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        f = GridFunction(T=1.0, values=rng.uniform(0.0, 10.0, n))
        up = increasing_rearrangement(f)
        down = decreasing_rearrangement(f)
        ok &= np.array_equal(up.values, np.sort(f.values))
        ok &= np.array_equal(up.values, down.values[::-1])
        for p in p_values:
            a, b = lp_norm(f, p), lp_norm(up, p)
            ok &= abs(a - b) <= 1e-12 * max(1.0, abs(a))
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 33))
        f = GridFunction(T=1.0, values=rng.uniform(0.0, 5.0, n))
        g = GridFunction(T=1.0, values=rng.uniform(0.0, 5.0, n))
        lhs, rhs = hardy_littlewood_pairing(f, g)
        if lhs > rhs * (1 + 1e-12) + 1e-12:
            violations += 1
    elapsed = time.monotonic() - start
    ok &= violations == 0 and elapsed < 10.0
    report(3, ok, f"1000 fns + 10^4 pairings, {violations} violations, {elapsed:.1f} s")


def test_criterion_4_bihari_batch():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    verified = 0
    for _ in range(500):
        inst = bihari.random_instance(rng, n=256)
        phi = inst.a.with_values(bihari.equality_case(inst).values * (1.0 - 1e-9))
        rep = bihari.bihari_verify(inst, phi, slack=1e-6)
        worst = max(worst, rep.conclusion_max_violation)
        verified += rep.verified
    inst = bihari.BihariInstance(
        a=GridFunction(T=1.0, values=np.ones(256)),
        psi=GridFunction(T=1.0, values=np.ones(256)),
        beta=0.5,
        gamma=1.0,
    )
    analytic_err = abs(bihari.volterra_oracle(inst).values[-1] - 2.25)
    elapsed = time.monotonic() - start
    ok = verified == 500 and worst <= 1e-6 and analytic_err <= 1e-6 and elapsed < 60.0
    report(
        4,
        ok,
        f"500/500 instances, worst violation {worst:.2e}, "
        f"analytic err {analytic_err:.2e}, {elapsed:.1f} s",
    )


def test_criterion_5_splitting_bound():
    rng = np.random.default_rng(3)
    violations = 0
    worst = 0.0
    for _ in range(1000):
        theta = float(rng.uniform(0.0, 1.0 - 1e-6))
        beta = float(rng.uniform(0.0, 1.0 - 1e-6))
        s = float(rng.uniform(0.0, 2.0))
        T = s + float(rng.uniform(1e-3, 3.0))
        out = singular_beta_integral(T, s, theta, beta)
        excess = (out.value - out.bound) / out.bound
        worst = max(worst, excess)
        if excess > 1e-10:
            violations += 1
    ok = violations == 0
    report(5, ok, f"10^3 draws, worst relative excess {worst:.2e}")


def test_criterion_6_convolution_ratio_band():
    rng = np.random.default_rng(4)
    alpha, r_prime, r_tilde = 0.5, 4.0 / 3.0, 4.0
    ratios = []
    for n in (64, 128, 256):
        for _ in range(200):
            f = GridFunction(T=1.0, values=rng.uniform(0.1, 1.0, n))
            g = riesz_convolution(f, alpha)
            ratios.append(lp_norm(g, r_tilde) / lp_norm(f, r_prime))
    band = max(ratios) / min(ratios)
    ok = band < 10.0
    report(6, ok, f"ratio band {min(ratios):.3f}..{max(ratios):.3f}, spread x{band:.2f}")


def test_criterion_7_solver_physics(tg32_run):
    report_e = tg32_run["report"]
    div_worst = max(tg32_run["divergence_errors"])
    final = tg32_run["final"]
    roundtrip = float(np.max(np.abs(biot_savart(vorticity(final)).coeffs - final.coeffs)))
    balance = report_e.energy_balance_residual
    leray_ok = min(report_e.leray_residuals) >= -1e-12
    elapsed = tg32_run["elapsed"]
    ok = (
        div_worst <= 1e-10
        and balance <= 1e-6
        and leray_ok
        and roundtrip <= 1e-12
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"div {div_worst:.1e}, balance {balance:.1e}, leray margins "
        f"{report_e.leray_residuals[0]:.3g}/{report_e.leray_residuals[1]:.3g}, "
        f"roundtrip {roundtrip:.1e}, {elapsed:.0f} s",
    )


def test_criterion_8_norm_diagnostics_stable(tg32_run, tg64_run):
    t32, t64 = tg32_run["traj"], tg64_run["traj"]
    ok = True
    details = []
    for k, r, rt in ((0, 6.0, 2.0), (1, 3.0, 1.0), (1, 2.0, 2.0)):
        a = mixed_norm(t32, k, r, rt)
        b = mixed_norm(t64, k, r, rt)
        rel = abs(a - b) / max(abs(a), abs(b))
        details.append(f"({k},{r:g},{rt:g}): {rel:.2%}")
        ok &= rel < 0.05
    a = weighted_singular_integral(t32, 0, 2.0, 0.2)
    b = weighted_singular_integral(t64, 0, 2.0, 0.2)
    rel = abs(a - b) / max(abs(a), abs(b))
    details.append(f"weighted theta=0.2: {rel:.2%}")
    ok &= rel < 0.05
    with pytest.raises(NonIntegrable):
        weighted_singular_integral(t32, 0, 2.0, 1.0)
    report(8, ok, ", ".join(details))
