"""Piecewise admissibility curves r -> r_tilde for the mixed norms of the
velocity and its first two gradients, plus the refined curves obtained by
further interpolation and Sobolev embedding.

Each curve is a list of CurveBranch objects with half-open or closed validity
intervals.  Where two branches share a closed breakpoint they must agree
there; a disagreement raises BranchMismatch rather than silently picking one
(continuity at the breakpoints is part of what the engine verifies).
Branches stated as strict inequalities evaluate to their boundary value with
``open_bound=True``.  Values r_tilde <= 0 are reported inadmissible, never
clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from .errors import BranchMismatch, NoBranch, OutOfRange
from .extrational import INF, ExtRational, Q

__all__ = [
    "CurvePoint",
    "CurveBranch",
    "derivative_curve",
    "refined_curve",
    "gn_shift_grad1",
    "sample_curve",
    "curve_points_to_rows",
    "CURVE_COLUMNS",
    "REFINED_TARGETS",
]

# the fields of one serialized curve point, in the order of its row tuple
CURVE_COLUMNS = ("k", "r_num", "r_den", "rtilde_num", "rtilde_den", "admissible", "open_bound", "branch_id")


@dataclass(frozen=True)
class CurvePoint:
    """One evaluated point of a curve, with its admissibility verdict."""

    r: ExtRational
    r_tilde: Optional[ExtRational]
    admissible: bool
    reason: str = ""
    open_bound: bool = False
    branch_id: str = ""


def _horner(coeffs: tuple, p: int, q: int) -> int:
    """sum_j coeffs[j] q^j p^(m-j), m = len(coeffs) - 1: the ascending
    polynomial at x = q/p times p^m, in integers."""
    acc, q_power = coeffs[0], 1
    for c in coeffs[1:]:
        q_power *= q
        acc = acc * p + c * q_power
    return acc


@dataclass(frozen=True)
class CurveBranch:
    """The rule 1/r_tilde = num(x)/den(x) in x = 1/r, valid on an interval
    with explicit endpoint flags.

    ``num`` and ``den`` are ascending coefficient tuples.  A vanishing
    num(x) gives r_tilde = inf by the 1/0 = inf convention of ExtRational.
    """

    branch_id: str
    lo: ExtRational
    hi: ExtRational
    lo_closed: bool
    hi_closed: bool
    num: tuple
    den: tuple = (1,)
    open_bound: bool = False

    def contains(self, r: ExtRational) -> bool:
        above_lo = r > self.lo or (r == self.lo and self.lo_closed)
        return above_lo and (r < self.hi or (r == self.hi and self.hi_closed))

    @cached_property
    def _integer_rule(self) -> tuple[tuple, tuple]:
        """num and den as integer vectors of one length: padded, then scaled."""
        m = max(len(self.num), len(self.den))
        num, den = ([Fraction(c) for c in v + (0,) * (m - len(v))] for v in (self.num, self.den))
        scale = lcm(*(c.denominator for c in num + den))
        return tuple(int(c * scale) for c in num), tuple(int(c * scale) for c in den)

    def evaluate(self, r: ExtRational) -> CurvePoint:
        # r = p/q (inf is 1/0) and x = q/p: the scale and the p^m of the
        # homogeneous forms cancel in r_tilde = den(x)/num(x)
        p, q = r.numerator, r.denominator
        num, den = (_horner(v, p, q) for v in self._integer_rule)
        rt = ExtRational(den, num)
        nonpositive = num != 0 and den * num <= 0
        return CurvePoint(
            r=r,
            r_tilde=rt,
            admissible=not nonpositive,
            reason="r_tilde <= 0" if nonpositive else "",
            open_bound=self.open_bound,
            branch_id=self.branch_id,
        )


def _segment(p, p_t, q, q_t) -> tuple:
    """The rule (c0, c1), 1/r_tilde = c0 + c1 x, of the mixed-norm
    interpolation segment between the estimates L^{p_t}_T L^p and
    L^{q_t}_T L^q: on it 1/r_tilde is linear in 1/r (Bergh & Lofstrom,
    Interpolation Spaces, 1976, section 5.1)."""
    x0, y0, x1, y1 = (Q(v).inv() for v in (p, p_t, q, q_t))
    slope = (y1 - y0) / (x1 - x0)
    return (y0 - slope * x0).as_fraction(), slope.as_fraction()


def _sobolev_shift(rule: tuple) -> tuple:
    """The linear rule c0 + c1 (x + 1/3) of the rule (c0, c1): the 3-d
    Sobolev embedding, 1/r -> 1/r + 1/3, moves a gradient's rule one order
    down."""
    c0, c1 = rule
    return c0 + Fraction(c1, 3), c1


# Each segment runs between its (r, r_tilde) endpoint estimates.  The k=1
# branches are discontinuous at r=3 (values 1 vs -1); the breakpoint is
# assigned to the first branch, whose value there is the admissible one.
# Neither quadratic numerator has a rational root (discriminants 73 and 52),
# so no rational r makes a ratio branch 0/0.
_DERIVATIVE_BRANCHES = {
    0: [
        CurveBranch("k0_energy", Q(2), Q(6), True, True, _segment(2, INF, 6, 2)),
        CurveBranch("k0_high", Q(6), INF, True, True, _segment(6, 2, INF, 1)),
    ],
    1: [
        CurveBranch("k1_low", Q(2), Q(3), True, True, _segment(2, 2, 3, 1)),
        CurveBranch("k1_mid", Q(3), Q(6), False, True, (4, -13, 6), (1, -4)),
    ],
    2: [
        CurveBranch("k2_low", Q(1), Q(3, 2), False, False, _segment(1, 2, Q(3, 2), 1)),
        CurveBranch("k2_mid", Q(3, 2), Q(2), True, False, (13, -26, 12), (6, -8)),
        CurveBranch("k2_high", Q(2), INF, True, False, _segment(2, Q(1, 6), INF, Q(1, 9))),
    ],
}

# grad2_low and grad2_mid share one rule, a strict inequality below r = 3/2;
# the grad1 and velocity rules are grad2's moved down by Sobolev shifts
_GRAD2_MID, _GRAD2_HIGH = (3, -3), (9, -15)
_GRAD1_LOW = _sobolev_shift(_GRAD2_MID)
_REFINED_BRANCHES = {
    "grad2": [
        CurveBranch("grad2_lowest", Q(1), Q(4, 3), False, True, (Fraction(3, 2), -1), open_bound=True),
        CurveBranch("grad2_low", Q(4, 3), Q(3, 2), False, False, _GRAD2_MID, open_bound=True),
        CurveBranch("grad2_mid", Q(3, 2), Q(2), True, True, _GRAD2_MID),
        CurveBranch("grad2_high", Q(2), INF, True, False, _GRAD2_HIGH),
    ],
    "grad1": [
        CurveBranch("grad1_low", Q(2), Q(6), False, True, _GRAD1_LOW),
        CurveBranch("grad1_high", Q(6), INF, False, False, _sobolev_shift(_GRAD2_HIGH)),
    ],
    "velocity": [
        CurveBranch("velocity_high", Q(6), INF, False, False, _sobolev_shift(_GRAD1_LOW)),
    ],
}

REFINED_TARGETS = tuple(_REFINED_BRANCHES)


def _gap(r: ExtRational, label: str) -> CurvePoint:
    """The inadmissible point of an r outside every branch."""
    return CurvePoint(r, None, False, f"r={r} outside every branch of the {label} curve")


def _agree(label: str, r: ExtRational, points: list) -> CurvePoint:
    """points[0], once every point is seen to give the same r_tilde."""
    if len({p.r_tilde for p in points}) != 1:
        raise BranchMismatch(
            f"{label} branches {[p.branch_id for p in points]} disagree at "
            f"r={r}: {[str(p.r_tilde) for p in points]}"
        )
    return points[0]


def _evaluate(branches, label: str, r: ExtRational) -> CurvePoint:
    hits = [b for b in branches if b.contains(r)]
    if not hits:
        raise NoBranch(_gap(r, label).reason)
    return _agree(label, r, [b.evaluate(r) for b in hits])


def _derivative_branches(k: int, r) -> tuple[list, str, ExtRational]:
    """The k-th gradient's branches, label and r, refusing k and r."""
    if k not in _DERIVATIVE_BRANCHES:
        raise OutOfRange(f"k={k} outside {{0,1,2}}")
    r = Q(r)
    if r.is_infinite and k != 0:
        raise NoBranch(f"r=inf only allowed for k=0, got k={k}")
    if r <= Q(1):
        raise OutOfRange(f"r={r} must exceed 1")
    return _DERIVATIVE_BRANCHES[k], f"k={k}", r


def _refined_branches(target: str, r) -> tuple[list, str, ExtRational]:
    """The refined target's branches, label and r, refusing target and r."""
    if target not in _REFINED_BRANCHES:
        raise OutOfRange(f"target={target!r} not in {REFINED_TARGETS}")
    r = Q(r)
    if r <= Q(1) or r.is_infinite:
        raise OutOfRange(f"r={r} must be finite and > 1")
    return _REFINED_BRANCHES[target], target, r


def derivative_curve(k: int, r: ExtRational) -> CurvePoint:
    """Time exponent r_tilde paired with the spatial exponent r for the k-th
    gradient's mixed norm, k in {0, 1, 2}.

    r = inf is only meaningful for k = 0.  Points where the stated rule yields
    r_tilde <= 0 are returned with admissible=False.
    """
    return _evaluate(*_derivative_branches(k, r))


def refined_curve(target: str, r: ExtRational) -> CurvePoint:
    """Refined curve for one of the targets grad2, grad1, velocity."""
    return _evaluate(*_refined_branches(target, r))


def gn_shift_grad1(r: ExtRational) -> CurvePoint:
    """First-gradient curve derived from the second-gradient one through the
    Gagliardo-Nirenberg substitution r2 = 3r/(3+r).

    Closed forms: 2r/(3(r-1)) for r < 3; 2r(5r-12)/(17r^2-54r+36) on [3, 6);
    r/(7r-6) for r >= 6.
    """
    r = Q(r)
    if r <= Q(1) or r.is_infinite:
        raise OutOfRange(f"r={r} must be finite and > 1")
    r2 = (Q(3) * r) / (Q(3) + r)
    point = _evaluate(_DERIVATIVE_BRANCHES[2], "k=2 (shifted)", r2)
    return replace(point, r=r, branch_id=f"gn_shift[{point.branch_id}]")


def _span(branch: CurveBranch, a: int, b: int, d: int, n: int) -> range:
    """Indices i < n of the nodes (a + i b)/d (b > 0) inside the branch: node
    i is at or above an endpoint p/q exactly when i b q >= p d - a q."""
    t, s = branch.lo.numerator * d - a * branch.lo.denominator, b * branch.lo.denominator
    first = -(-t // s) if branch.lo_closed else t // s + 1
    last = n - 1
    if branch.hi.is_finite:
        t, s = branch.hi.numerator * d - a * branch.hi.denominator, b * branch.hi.denominator
        last = min(last, t // s if branch.hi_closed else -(-t // s) - 1)
    return range(max(first, 0), last + 1)


def sample_curve(
    selector,
    r_min: ExtRational,
    r_max: ExtRational,
    n: int,
) -> list[CurvePoint]:
    """Evaluate a curve on n equispaced rational nodes in [r_min, r_max].

    ``selector`` is an integer k (gradient order) or a refined-target name.
    Nodes outside every branch become inadmissible points with the NoBranch
    message as reason; a node two branches share must get one value from both.
    """
    r_min, r_max = Q(r_min), Q(r_max)
    if not (r_min.is_finite and r_max.is_finite and r_min < r_max):
        raise OutOfRange("need finite r_min < r_max")
    if n < 2:
        raise OutOfRange("need n >= 2 sample points")
    branch_table = _derivative_branches if isinstance(selector, int) else _refined_branches
    branches, label, _ = branch_table(selector, r_min)  # refuses as the first node would
    # node i is (a + i b)/d: r_min and the step over one common denominator d
    lo, step = r_min.as_fraction(), (r_max - r_min).as_fraction() / (n - 1)
    d = lcm(lo.denominator, step.denominator)
    a, b = lo.numerator * (d // lo.denominator), step.numerator * (d // step.denominator)

    def node(i: int) -> ExtRational:
        return ExtRational(Fraction(a + i * b, d))

    points: list[CurvePoint] = []
    spans = [(span, x) for x in branches if (span := _span(x, a, b, d, n))]
    for span, branch in sorted(spans, key=lambda sx: sx[0].start):
        for point in points[span.start : span.stop]:  # nodes an earlier branch took
            _agree(label, point.r, [point, branch.evaluate(point.r)])
        points += [_gap(node(i), label) for i in range(len(points), span.start)]
        points += [branch.evaluate(node(i)) for i in range(len(points), span.stop)]
    return points + [_gap(node(i), label) for i in range(len(points), n)]


def curve_points_to_rows(selector, points) -> list[tuple]:
    """Serializable rows with exact numerator/denominator pairs, one tuple
    per point in the order of CURVE_COLUMNS.

    +infinity is encoded as the pair (1, 0); an undefined r_tilde as (0, 0).
    """
    rows = []
    for p in points:
        rt = (0, 0) if p.r_tilde is None else (p.r_tilde.numerator, p.r_tilde.denominator)
        rows.append((selector, p.r.numerator, p.r.denominator, *rt, p.admissible, p.open_bound, p.branch_id))
    return rows
