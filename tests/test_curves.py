import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from navier_norms import curves
from navier_norms.curves import (
    CURVE_COLUMNS,
    REFINED_TARGETS,
    CurvePoint,
    curve_points_to_rows,
    derivative_curve,
    gn_shift_grad1,
    refined_curve,
    sample_curve,
)
from navier_norms.errors import BranchMismatch, NoBranch, OutOfRange
from navier_norms.exponents import F_FAMILIES, double_interp
from navier_norms.extrational import INF, Q


def test_anchor_points():
    assert derivative_curve(0, Q(6)).r_tilde == Q(2)
    assert derivative_curve(1, Q(3)).r_tilde == Q(1)
    assert derivative_curve(0, Q(2)).r_tilde == INF


def test_velocity_curve_closes_at_infinity():
    p = derivative_curve(0, INF)
    assert p.r_tilde == Q(1)
    assert p.admissible


def test_branches_agree_at_shared_closed_breakpoints():
    # r = 6 belongs to both k=0 branches; evaluation must not raise
    assert derivative_curve(0, Q(6)).r_tilde == Q(2)
    # grad2 breakpoint r = 2 shared by the mid and high branches
    assert refined_curve("grad2", Q(2)).r_tilde == Q(2, 3)


def test_k1_mid_branch_inadmissible_band():
    # r(r-4)/(4r^2-13r+6) is negative on (3, 4]
    for r in (Fraction(13, 4), Fraction(7, 2), 4):
        p = derivative_curve(1, Q(r))
        assert not p.admissible
        assert p.branch_id == "k1_mid"
    assert derivative_curve(1, Q(5)).admissible


def test_k2_low_branch_value():
    # 2/rt + 3/r = 4 at r = 6/5: 1/rt = 2 - (3/2)(5/6) = 3/4
    assert derivative_curve(2, Q(6, 5)).r_tilde == Q(4, 3)


def test_domain_errors():
    with pytest.raises(OutOfRange):
        derivative_curve(3, Q(2))
    with pytest.raises(OutOfRange):
        derivative_curve(0, Q(1))
    with pytest.raises(NoBranch):
        derivative_curve(1, INF)
    with pytest.raises(NoBranch):
        derivative_curve(1, Q(3, 2))
    with pytest.raises(OutOfRange):
        refined_curve("grad3", Q(2))
    with pytest.raises(NoBranch):
        refined_curve("velocity", Q(4))


def test_refined_targets_registry():
    assert set(REFINED_TARGETS) == {"grad2", "grad1", "velocity"}


def test_grad2_open_bound_flags():
    assert refined_curve("grad2", Q(5, 4)).open_bound
    assert refined_curve("grad2", Q(7, 5)).open_bound
    assert not refined_curve("grad2", Q(7, 4)).open_bound


def test_grad1_values():
    # 1/rt + 3/r = 2 at r = 3 gives rt = 1
    assert refined_curve("grad1", Q(3)).r_tilde == Q(1)
    # 1/rt + 15/r = 4 at r = 10 gives rt = 2/5 (quasi-norm range)
    assert refined_curve("grad1", Q(10)).r_tilde == Q(2, 5)


@pytest.mark.parametrize("r", [Fraction(3, 2) + Fraction(i, 10) for i in range(1, 21)])
def test_gn_shift_closed_forms(r):
    # the shifted exponent 3r/(3+r) enters the k=2 domain only for r > 3/2
    point = gn_shift_grad1(Q(r))
    if r < 3:
        expected = 2 * r / (3 * (r - 1))
    elif r < 6:
        expected = 2 * r * (5 * r - 12) / (17 * r**2 - 54 * r + 36)
    else:
        expected = r / (7 * r - 6)
    assert point.r_tilde.as_fraction() == expected
    assert point.branch_id.startswith("gn_shift[")


def test_gn_shift_wide_range():
    for i in range(20):
        r = 3 + Fraction(3 * i, 20)
        expected = (
            2 * r * (5 * r - 12) / (17 * r**2 - 54 * r + 36)
            if r < 6
            else r / (7 * r - 6)
        )
        assert gn_shift_grad1(Q(r)).r_tilde.as_fraction() == expected


def test_sample_curve_handles_gaps():
    points = sample_curve(1, Q(2), Q(8), 25)
    assert len(points) == 25
    gap = [p for p in points if not p.admissible]
    assert gap  # the (3,4] band and r > 6 fall outside admissibility
    assert all(p.r_tilde is not None or p.reason for p in gap)


def test_sample_curve_validation():
    with pytest.raises(OutOfRange):
        sample_curve(0, Q(6), Q(2), 10)
    with pytest.raises(OutOfRange):
        sample_curve(0, Q(2), Q(6), 1)


def test_rows_encode_exact_rationals():
    points = [derivative_curve(0, Q(2)), derivative_curve(0, Q(6))]
    rows = [dict(zip(CURVE_COLUMNS, row)) for row in curve_points_to_rows(0, points)]
    assert rows[0]["rtilde_num"] == 1 and rows[0]["rtilde_den"] == 0  # infinity
    assert rows[1]["rtilde_num"] == 2 and rows[1]["rtilde_den"] == 1
    assert rows[0]["r_num"] == 2 and rows[0]["r_den"] == 1


def _inv(v):
    """1/v exactly, with 1/inf = 0."""
    return Fraction(0) if v.is_infinite else 1 / v.as_fraction()


def _k1_mid(r, rt):
    s = r.as_fraction()
    return rt.as_fraction() == s * (s - 4) / (4 * s**2 - 13 * s + 6)


def _k2_mid(r, rt):
    s = r.as_fraction()
    return rt.as_fraction() == 2 * s * (3 * s - 4) / (13 * s**2 - 26 * s + 12)


# (selector, branch, three r including each closed endpoint, stated relation);
# r_tilde = inf at r = 2 for k = 0 and r_tilde = 0 at r = 4 for k1_mid
_BRANCH_RELATIONS = [
    (0, "k0_energy", (Q(2), Q(4), Q(6)), lambda r, rt: 4 * _inv(rt) + 6 * _inv(r) == 3),
    (0, "k0_high", (Q(6), Q(9), INF), lambda r, rt: _inv(rt) + 3 * _inv(r) == 1),
    (1, "k1_low", (Q(2), Q(5, 2), Q(3)), lambda r, rt: _inv(rt) + 3 * _inv(r) == 2),
    (1, "k1_mid", (Q(4), Q(5), Q(6)), _k1_mid),
    (2, "k2_low", (Q(6, 5), Q(5, 4), Q(7, 5)), lambda r, rt: 2 * _inv(rt) + 3 * _inv(r) == 4),
    (2, "k2_mid", (Q(3, 2), Q(7, 4), Q(19, 10)), _k2_mid),
    (2, "k2_high", (Q(2), Q(3), Q(10)), lambda r, rt: _inv(rt) + 6 * _inv(r) == 9),
    ("grad2", "grad2_lowest", (Q(11, 10), Q(6, 5), Q(4, 3)), lambda r, rt: _inv(rt) + _inv(r) == Fraction(3, 2)),
    ("grad2", "grad2_low", (Q(7, 5), Q(10, 7), Q(29, 20)), lambda r, rt: _inv(rt) + 3 * _inv(r) == 3),
    ("grad2", "grad2_mid", (Q(3, 2), Q(7, 4), Q(2)), lambda r, rt: _inv(rt) + 3 * _inv(r) == 3),
    ("grad2", "grad2_high", (Q(2), Q(5), Q(12)), lambda r, rt: _inv(rt) + 15 * _inv(r) == 9),
    ("grad1", "grad1_low", (Q(3), Q(4), Q(6)), lambda r, rt: _inv(rt) + 3 * _inv(r) == 2),
    ("grad1", "grad1_high", (Q(7), Q(10), Q(30)), lambda r, rt: _inv(rt) + 15 * _inv(r) == 4),
    ("velocity", "velocity_high", (Q(7), Q(9), Q(12)), lambda r, rt: _inv(rt) + 3 * _inv(r) == 1),
]

# closed breakpoints shared by two branches report the first branch listed
_SHARED_BREAKPOINTS = {(0, Q(6)): "k0_energy", ("grad2", Q(2)): "grad2_mid"}


@pytest.mark.parametrize(
    "selector, branch, rs, relation", _BRANCH_RELATIONS, ids=[case[1] for case in _BRANCH_RELATIONS]
)
def test_every_branch_satisfies_its_stated_relation(selector, branch, rs, relation):
    curve = derivative_curve if isinstance(selector, int) else refined_curve
    for r in rs:
        point = curve(selector, r)
        assert point.branch_id == _SHARED_BREAKPOINTS.get((selector, r), branch)
        assert relation(r, point.r_tilde), (branch, r, point.r_tilde)
        positive = point.r_tilde.is_infinite or point.r_tilde > Q(0)
        assert point.admissible == positive
        assert point.reason == ("" if positive else "r_tilde <= 0")
        assert point.open_bound == (branch in ("grad2_lowest", "grad2_low"))


# -- the sweep against the per-point curves ----------------------------------

_SELECTORS = (0, 1, 2, *REFINED_TARGETS)
_TABLES = (curves._DERIVATIVE_BRANCHES, curves._REFINED_BRANCHES)
_BRANCHES = [branch for table in _TABLES for branches in table.values() for branch in branches]
_ABOVE_ONE = st.fractions(min_value=1, max_value=40, max_denominator=60).filter(lambda f: f > 1)
_FAR_ABOVE_ONE = st.fractions(min_value=1, max_value=10**6, max_denominator=10**4).filter(
    lambda f: f > 1
)


def _pointwise(selector, r_min, r_max, n):
    """sample_curve written as a loop over derivative_curve / refined_curve."""
    curve = derivative_curve if isinstance(selector, int) else refined_curve
    step = (r_max - r_min) / (n - 1)
    points = []
    for i in range(n):
        r = Q(r_min + i * step)
        try:
            points.append(curve(selector, r))
        except NoBranch as exc:
            points.append(CurvePoint(r=r, r_tilde=None, admissible=False, reason=str(exc)))
    return points


def _assert_sweep_matches_loop(selector, r_min, r_max, n):
    points = sample_curve(selector, Q(r_min), Q(r_max), n)
    expected = _pointwise(selector, r_min, r_max, n)
    assert points == expected
    assert curve_points_to_rows(selector, points) == curve_points_to_rows(selector, expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SELECTORS), _ABOVE_ONE, _ABOVE_ONE, st.integers(2, 200))
def test_sweep_equals_per_point_loop(selector, a, b, n):
    assume(a != b)
    _assert_sweep_matches_loop(selector, min(a, b), max(a, b), n)


# every breakpoint 4/3, 3/2, 2, 3 and 6 is a node, inside a range or at its
# end; the last range's nodes straddle all of them but 2
_BREAKPOINT_RANGES = [
    (Fraction(4, 3), Fraction(6), 29),
    (Fraction(5, 4), Fraction(7), 70),
    (Fraction(3, 2), Fraction(3), 10),
    (Fraction(2), Fraction(6), 9),
    (Fraction(4, 3), Fraction(3, 2), 2),
    (Fraction(3), Fraction(6), 2),
    (Fraction(6), Fraction(12), 7),
    (Fraction(5, 4), Fraction(13, 2), 8),
]


@pytest.mark.parametrize("selector", _SELECTORS)
@pytest.mark.parametrize("r_min, r_max, n", _BREAKPOINT_RANGES)
def test_sweep_equals_per_point_loop_on_breakpoints(selector, r_min, r_max, n):
    _assert_sweep_matches_loop(selector, r_min, r_max, n)


@pytest.mark.parametrize(
    "selector, r_min, message",
    [
        (0, Q(1), "r=1 must exceed 1"),
        ("grad1", Q(1, 2), "r=1/2 must be finite and > 1"),
        (5, Q(2), "k=5 outside {0,1,2}"),
        ("grad3", Q(2), "target='grad3' not in ('grad2', 'grad1', 'velocity')"),
    ],
)
def test_sweep_refuses_as_its_first_node_would(selector, r_min, message):
    with pytest.raises(OutOfRange) as refusal:
        sample_curve(selector, r_min, Q(8), 5)
    assert str(refusal.value) == message


def test_sweep_refuses_branches_that_disagree_at_a_shared_breakpoint(monkeypatch):
    energy, high = curves._DERIVATIVE_BRANCHES[0]
    monkeypatch.setitem(curves._DERIVATIVE_BRANCHES, 0, [energy, replace(high, num=(1, -2))])
    with pytest.raises(BranchMismatch) as single:
        derivative_curve(0, Q(6))
    with pytest.raises(BranchMismatch) as sweep:
        sample_curve(0, Q(2), Q(8), 7)
    assert str(single.value) == "k=0 branches ['k0_energy', 'k0_high'] disagree at r=6: ['2', '3/2']"
    assert str(sweep.value) == str(single.value)


def _polynomial(coeffs, x):
    return sum(Fraction(c) * x**j for j, c in enumerate(coeffs))


@given(st.one_of(_ABOVE_ONE, _FAR_ABOVE_ONE))
def test_integer_rule_equals_the_fraction_polynomials(r):
    for r in (Q(r), INF):
        x = Fraction(0) if r.is_infinite else 1 / r.as_fraction()
        for branch in _BRANCHES:
            num, den = _polynomial(branch.num, x), _polynomial(branch.den, x)
            expected = INF if num == 0 else Q(den / num)
            point = branch.evaluate(r)
            assert point.r_tilde == expected, (branch.branch_id, r)
            assert point.admissible == (expected.is_infinite or expected > Q(0))


# -- the tables against the algebra --------------------------------------------

_r, _x = sympy.symbols("r x", positive=True)


def _rule(branch_id):
    """A branch's 1/r_tilde = num(x)/den(x), x = 1/r, as an expression in x."""
    branch = next(b for b in _BRANCHES if b.branch_id == branch_id)
    num, den = (sum(Fraction(c) * _x**j for j, c in enumerate(v)) for v in (branch.num, branch.den))
    return num / den


def _family(which, p):
    """F_FAMILIES[which] at a fixed p, as an expression in r."""
    num, den = (sum(c * _r**i * p**j for (i, j), c in table.items()) for table in F_FAMILIES[which])
    return num / den


@pytest.mark.parametrize("branch_id, which, p", [("k0_high", "F1", Fraction(3, 2)), ("k1_mid", "F3", 6)])
def test_branch_is_a_family_at_fixed_p(branch_id, which, p):
    # k1_mid is F3 at p = 6 once their common factor r - 2 cancels
    r_tilde = 1 / _rule(branch_id).subs(_x, 1 / _r)
    assert sympy.cancel(r_tilde - _family(which, p)) == 0


@pytest.mark.parametrize("branch_id, same_as", [("grad1_low", "k1_low"), ("velocity_high", "k0_high")])
def test_sobolev_shifted_branch_is_a_derivative_branch(branch_id, same_as):
    assert sympy.cancel(_rule(branch_id) - _rule(same_as)) == 0


# each interpolation segment and its two (r, r_tilde) endpoint estimates
_SEGMENTS = [
    ("k0_energy", (Q(2), INF), (Q(6), Q(2))),
    ("k0_high", (Q(6), Q(2)), (INF, Q(1))),
    ("k1_low", (Q(2), Q(2)), (Q(3), Q(1))),
    ("k2_low", (Q(1), Q(2)), (Q(3, 2), Q(1))),
    ("k2_high", (Q(2), Q(1, 6)), (INF, Q(1, 9))),
]


@pytest.mark.parametrize("branch_id, lower, upper", _SEGMENTS, ids=[case[0] for case in _SEGMENTS])
def test_segment_branch_is_double_interp_between_its_endpoints(branch_id, lower, upper):
    # double_interp's 1/r_tilde at three x = 1/r strictly between the
    # endpoints fixes a polynomial of degree <= 2 in x, affine exactly when
    # 1/r_tilde is linear in 1/r; the branch's rule must be that polynomial
    x_lo, x_hi = _inv(lower[0]), _inv(upper[0])
    nodes = [x_lo + i * (x_hi - x_lo) / 4 for i in (1, 2, 3)]
    data = [(x, _inv(double_interp(*lower, *upper, Q(1 / x)))) for x in nodes]
    assert sympy.cancel(_rule(branch_id) - sympy.interpolate(data, _x)) == 0


def test_exact_layer_imports_no_float_library():
    # floats never enter the exact layer; importing one would open the way
    src = str(Path(curves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, navier_norms.curves, navier_norms.exponents; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'sympy'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
