"""Command-line entry point: curves, bihari, simulate and norms subcommands.

Exit codes: 0 success, 2 usage or config error, 3 inequality violation,
4 numerical blow-up.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bihari, curves
from .config import RunConfig, RunManifest, format_float, parse_norm_pairs
from .errors import HypothesisFailed, NavierNormsError, NoConvergence, NonFinite, NonIntegrable
from .extrational import INF, Q

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_BLOWUP = 4

BIHARI_SLACK = 1e-6

# simulate config keys passed to SolverConfig, with their converters
SOLVER_KEYS = {
    "N": int,
    "nu": float,
    "dt": float,
    "T": float,
    "initial_condition": str,
    "sample_stride": int,
    "norms": parse_norm_pairs,
}


def _write_manifest(path, subcommand, config: dict, seed, outputs, t0) -> None:
    RunManifest(
        subcommand=subcommand,
        config=config,
        seed=seed,
        version=__version__,
        outputs=outputs,
        duration_seconds=time.monotonic() - t0,
    ).write(path)


def cmd_curves(args) -> int:
    t0 = time.monotonic()
    selector = args.k if args.k is not None else args.target
    points = curves.sample_curve(selector, Q(args.r_min), Q(args.r_max), args.samples)
    rows = curves.curve_points_to_rows(selector, points)
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(curves.CURVE_COLUMNS)
        writer.writerows(rows)
    outputs = [out]
    if args.json:
        records = [dict(zip(curves.CURVE_COLUMNS, row)) for row in rows]
        Path(args.json).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
        outputs.append(Path(args.json))
    manifest = args.manifest or f"{out}.manifest.json"
    config = {
        "selector": str(selector),
        "r_min": args.r_min,
        "r_max": args.r_max,
        "samples": str(args.samples),
    }
    _write_manifest(manifest, "curves", config, None, outputs, t0)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_bihari(args) -> int:
    t0 = time.monotonic()
    cfg = RunConfig.from_file(args.config)
    cfg.check_keys(("n", "T", "trials", "seed", "beta", "gamma"))
    n = cfg.get_int("n", 256)
    T = cfg.get_float("T", 1.0)
    trials = cfg.get_int("trials", 100)
    seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
    beta = cfg.get_float("beta") if "beta" in cfg else None
    gamma = cfg.get_float("gamma") if "gamma" in cfg else None
    if n < 1 or trials < 1:
        raise ValueError(f"n={n} and trials={trials} must be >= 1")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T={T} outside (0, inf)")
    if beta is not None and not (0.0 <= beta < 1.0):
        raise ValueError(f"beta={beta} outside [0,1)")
    if gamma is not None and not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma={gamma} outside (0,1]")

    rng = np.random.default_rng(seed)
    trial_reports = []
    worst = 0.0
    for i in range(trials):
        inst = bihari.random_instance(rng, n=n, T=T, beta=beta, gamma=gamma)
        try:
            phi_cells, iterations, residual = bihari.solve_cells(inst)
        except NoConvergence as exc:
            print(f"bihari: trial {i}: blow-up in the equality case, {exc}", file=sys.stderr)
            return EXIT_BLOWUP
        phi = inst.a.with_values(phi_cells * (1.0 - 1e-9))
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                report = bihari.bihari_verify(inst, phi, slack=BIHARI_SLACK)
        except HypothesisFailed as exc:
            print(f"bihari: trial {i}: {exc}", file=sys.stderr)
            return EXIT_VIOLATION
        if not math.isfinite(report.conclusion_max_violation):
            print(f"bihari: trial {i}: blow-up, non-finite bound or violation", file=sys.stderr)
            return EXIT_BLOWUP
        worst = max(worst, report.conclusion_max_violation)
        trial_reports.append(
            {
                "trial": i,
                "beta": inst.beta,
                "gamma": inst.gamma,
                "max_violation": report.conclusion_max_violation,
                "min_hypothesis_margin": float(np.min(report.hypothesis_margins)),
                "oracle_residual": residual,
                "oracle_iterations": iterations,
            }
        )
    payload = {
        "seed": seed,
        "trials": trials,
        "n": n,
        "T": T,
        "slack": BIHARI_SLACK,
        "worst_violation": worst,
        "per_trial": trial_reports,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    manifest = args.manifest or f"{out}.manifest.json"
    _write_manifest(manifest, "bihari", dict(cfg.entries), seed, [out], t0)
    if worst > BIHARI_SLACK:
        print(f"bihari: worst violation {worst:.3e} exceeds slack", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"{trials} trials verified, worst violation {worst:.3e}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .spectral import field as spectral_field, io as spectral_io, solver
    t0 = time.monotonic()
    cfg = RunConfig.from_file(args.config)
    cfg.check_keys((*SOLVER_KEYS, "snapshot_stride"))
    # only the keys the file sets; SolverConfig holds the defaults
    config = solver.SolverConfig(
        **{key: convert(cfg.entries[key]) for key, convert in SOLVER_KEYS.items() if key in cfg}
    )
    snapshot_stride = cfg.get_int("snapshot_stride", 0)
    if snapshot_stride < 0:
        raise ValueError(f"snapshot_stride={snapshot_stride} must be >= 0")
    spectral_field.fft_workers()  # refuse a bad NAVIER_NORMS_THREADS before any transform

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshots, sample_index = [], itertools.count()

    def stream_snapshot(t: float, state) -> None:
        j = next(sample_index)
        if j % snapshot_stride == 0:
            snapshots.append(out_dir / f"snapshot_{j:04d}.bin")
            spectral_io.write_snapshot(state, t, snapshots[-1])

    try:
        _, traj, report = solver.simulate(config, stream_snapshot if snapshot_stride else None)
    except NonFinite as exc:
        print(f"simulate: blow-up, non-finite state at {exc}", file=sys.stderr)
        return EXIT_BLOWUP

    norm_csv = out_dir / "norms.csv"
    energy_json = out_dir / "energy.json"
    spectral_io.write_norm_csv(traj, norm_csv)
    spectral_io.write_energy_json(report, energy_json)
    outputs = [norm_csv, energy_json, *snapshots]
    _write_manifest(out_dir / "manifest.json", "simulate", dict(cfg.entries), None, outputs, t0)
    print(f"wrote {', '.join(str(p) for p in outputs[:2])}")
    return EXIT_OK


def _curve_verdict(k: int, r: float, r_tilde: float) -> str:
    """Classify (k, r, r_tilde) against the admissibility curves."""
    if r_tilde < 1.0:
        return "inadmissible: r_tilde < 1"
    try:
        r_exact = INF if r == math.inf else Q(Fraction(r).limit_denominator(10**6))
        point = curves.derivative_curve(k, r_exact)
    except (OverflowError, ValueError):  # ExponentError, NoBranch, or r = -inf / nan
        return "off-curve: r outside the stated intervals"
    if not point.admissible or point.r_tilde is None:
        return f"inadmissible: {point.reason}"
    curve_rt = float(point.r_tilde)
    if math.isclose(curve_rt, r_tilde, rel_tol=1e-9):
        return f"on-curve (branch {point.branch_id})"
    if r_tilde < curve_rt:
        return f"below-curve (curve gives r_tilde = {curve_rt:g})"
    return f"off-curve (curve gives r_tilde = {curve_rt:g})"


def cmd_norms(args) -> int:
    from .spectral import diagnostics, io as spectral_io
    t0 = time.monotonic()
    r_tilde = float(args.rtilde)  # "inf" included
    if math.isnan(args.r) or math.isnan(r_tilde):
        raise ValueError(f"r={args.r} and r_tilde={args.rtilde} must be numbers")
    for name, value in (("theta", args.theta), ("T", args.T)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")
    if args.theta is not None and args.theta >= 1.0:
        raise NonIntegrable(f"theta={args.theta} >= 1")
    traj = spectral_io.read_norm_csv(args.traj)

    result = {
        "k": args.k,
        "r": args.r,
        "r_tilde": "inf" if r_tilde == math.inf else r_tilde,
        "verdict": _curve_verdict(args.k, args.r, r_tilde),
        "mixed_norm": diagnostics.mixed_norm(traj, args.k, args.r, r_tilde),
    }
    if args.theta is not None:
        result["theta"] = args.theta
        result["weighted_integral"] = diagnostics.weighted_singular_integral(
            traj, args.k, args.r, args.theta, T=args.T
        )

    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        manifest = f"{args.out}.manifest.json"
        config = {
            "traj": str(args.traj),
            "k": str(args.k),
            "r": format_float(args.r),
            "rtilde": args.rtilde,
            "theta": "" if args.theta is None else format_float(args.theta),
        }
        _write_manifest(manifest, "norms", config, None, [Path(args.out)], t0)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navier-norms",
        description="Exponent curves, integral-inequality checks and spectral norm diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("curves", help="tabulate an admissibility curve r -> r_tilde")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, choices=(0, 1, 2), help="gradient order")
    group.add_argument("--target", choices=curves.REFINED_TARGETS, help="refined curve")
    p.add_argument("--r-min", required=True, help="lower r (rational, e.g. 3/2)")
    p.add_argument("--r-max", required=True, help="upper r")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", help="optional JSON output path")
    p.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("bihari", help="batch-verify the integral inequality")
    p.add_argument("--config", required=True, help="config file (n, T, beta, gamma, seed, trials)")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")
    p.set_defaults(func=cmd_bihari)

    p = sub.add_parser("simulate", help="run the spectral solver and write diagnostics")
    p.add_argument("--config", required=True, help="config file (N, nu, dt, T, ...)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("norms", help="post-process a norm trajectory CSV")
    p.add_argument("--traj", required=True, help="norms.csv from a simulate run")
    p.add_argument("--k", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--rtilde", required=True, help="time exponent (number or inf)")
    p.add_argument("--theta", type=float, help="also compute the weighted singular integral")
    p.add_argument("--T", type=float, help="upper endpoint for the weighted integral")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_norms)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; any refused input, unreadable file or unwritable
    output becomes one stderr line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NavierNormsError, OSError, ValueError) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
