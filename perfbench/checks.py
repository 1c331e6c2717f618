"""Correctness checks on the outputs of one workload unit.

Every check returns a list of ``(name, ok)`` pairs; each pair is one
attempted operation of the benchmark and a false ``ok`` one failed
operation.  The checks read the files the program wrote and recompute what
they can independently of the package.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

BALANCE_TOL = 1e-6
LERAY_TOL = -1e-12
DIVERGENCE_TOL = 1e-10
ORACLE_TOL = 1e-10
ENERGY_RTOL = 1e-9
MIXED_NORM_RTOL = 1e-12
RECHECK_ROWS = 5  # evenly spread curve rows re-evaluated exactly


def cli_exit(label: str, code) -> list:
    return [(f"{label}: exit 0", code == 0)]


def read_norm_csv(path) -> tuple[np.ndarray, dict]:
    """(sorted times, {(k, r): values}) from a norms.csv, parsed here."""
    series: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            series.setdefault((int(row["k"]), float(row["r"])), []).append(
                (float(row["t"]), float(row["value"]))
            )
    times = np.array(sorted({t for rows in series.values() for t, _ in rows}))
    return times, {pair: np.array([v for _, v in sorted(rows)]) for pair, rows in series.items()}


def norm_csv(path, pairs, n_samples: int) -> list:
    """Every series present with n_samples finite positive values."""
    try:
        times, series = read_norm_csv(path)
    except (OSError, KeyError, ValueError) as exc:
        return [(f"norms.csv readable ({exc})", False)]
    out = [("norms.csv: sample times", len(times) == n_samples)]
    for pair in pairs:
        vals = series.get((int(pair[0]), float(pair[1])))
        ok = vals is not None and len(vals) == n_samples and bool(np.all(np.isfinite(vals) & (vals > 0)))
        out.append((f"norms.csv: series {pair} finite, positive, {n_samples} rows", ok))
    return out


def energy_json(path) -> tuple[list, dict]:
    """Unforced energy non-increasing, balance residual and Leray margins."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        energy = np.asarray(payload["energy"], dtype=float)
        margins = [float(x) for x in payload["leray_residuals"]]
        balance = float(payload["energy_balance_residual"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [(f"energy.json readable ({exc})", False)], {}
    checks = [
        ("energy finite and non-increasing", bool(np.all(np.isfinite(energy)) and np.all(np.diff(energy) <= 0))),
        (f"energy balance residual <= {BALANCE_TOL}", balance <= BALANCE_TOL),
        (f"Leray margins >= {LERAY_TOL}", all(m >= LERAY_TOL for m in margins)),
    ]
    return checks, payload


def final_energy(payload: dict, reference: float) -> list:
    energy = payload.get("energy") or [math.nan]
    ok = abs(energy[-1] - reference) <= ENERGY_RTOL * abs(reference)
    return [(f"final energy matches reference to {ENERGY_RTOL} relative", ok)]


def divergence(error: float) -> list:
    return [(f"final divergence error <= {DIVERGENCE_TOL}", error <= DIVERGENCE_TOL)]


def bihari_report(path, trials: int) -> tuple[list, list]:
    """Report row count, worst violation within slack, oracle residuals.

    Also returns the per-trial Picard iteration counts.
    """
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        rows = report["per_trial"]
        worst, slack = float(report["worst_violation"]), float(report["slack"])
        residuals = [float(r["oracle_residual"]) for r in rows]
        iterations = [int(r["oracle_iterations"]) for r in rows]
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [(f"{Path(path).name} readable ({exc})", False)], []
    checks = [
        (f"{Path(path).name}: {trials} trials", len(rows) == trials),
        (f"{Path(path).name}: worst violation <= slack", worst <= slack),
        (
            f"{Path(path).name}: oracle residuals < {ORACLE_TOL}",
            all(r < ORACLE_TOL for r in residuals),
        ),
    ]
    return checks, iterations


def curve_csv(path, selector, samples: int, evaluate) -> tuple[list, int]:
    """Row count, and ``RECHECK_ROWS`` evenly spread rows re-evaluated exactly.

    ``evaluate(selector, r)`` returns the expected CSV fields of the point
    at the exact rational r, or None where no branch covers r.  Also
    returns the number of rows.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [(f"curve {selector} readable ({exc})", False)], 0
    out = [(f"curve {selector}: {samples} rows", len(rows) == samples)]
    if not rows:
        return out, 0
    for i in sorted({round(j * (len(rows) - 1) / (RECHECK_ROWS - 1)) for j in range(RECHECK_ROWS)}):
        row = rows[i]
        try:
            r = Fraction(int(row["r_num"]), int(row["r_den"]))
            got = (
                int(row["rtilde_num"]),
                int(row["rtilde_den"]),
                row["admissible"] == "True",
                row["open_bound"] == "True",
                row["branch_id"],
            )
        except (KeyError, ValueError, ZeroDivisionError):
            out.append((f"curve {selector}: row {i} parses", False))
            continue
        expected = evaluate(selector, r) or (0, 0, False, False, "")
        out.append((f"curve {selector}: row {i} re-evaluates exactly", got == expected))
    return out, len(rows)


def norms_output(path, times, values, r_tilde: float) -> list:
    """Result of ``navier-norms norms``: the mixed norm recomputed from the
    trajectory, a positive weighted integral and a verdict."""
    try:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        mixed = float(result["mixed_norm"])
        weighted = float(result["weighted_integral"])
        verdict = str(result["verdict"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [(f"{Path(path).name} readable ({exc})", False)]
    if r_tilde == math.inf:
        expected = float(np.max(values))
    else:
        expected = float(np.trapezoid(values**r_tilde, times)) ** (1.0 / r_tilde)
    return [
        (
            f"{Path(path).name}: mixed norm recomputed",
            math.isfinite(mixed) and abs(mixed - expected) <= MIXED_NORM_RTOL * expected,
        ),
        (f"{Path(path).name}: weighted integral finite, positive", math.isfinite(weighted) and weighted > 0),
        (f"{Path(path).name}: verdict given", bool(verdict)),
    ]
