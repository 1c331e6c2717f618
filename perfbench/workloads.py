"""The three benchmark workloads.

Each is a closed loop with one client: the runner calls ``run()`` for one
fixed unit of work, waits for it, checks its outputs with ``check()`` and
starts the next.  Every unit of one run does the same work: the inputs come
from the seed alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

from navier_norms import cli, curves
from navier_norms.errors import NoBranch
from navier_norms.extrational import Q
from navier_norms.spectral import field, io as spectral_io, solver

from . import checks

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text(encoding="utf-8"))
PAIRS = solver.DEFAULT_NORM_PAIRS


def call_cli(argv: list[str]) -> int:
    """``navier-norms <argv>`` in-process, its console output discarded."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


class Tg64Step:
    """Taylor-Green at N=64 through ``navier-norms simulate``; stepping
    dominates and the per-field working set exceeds the per-core L2."""

    name = "tg64_step"
    rate = "steps_per_s"
    N, NU, DT, STEPS, STRIDE = 64, 0.1, 4e-3, 20, 20

    def __init__(self, seed: int, workdir: Path):
        # Taylor-Green data is fixed; the seed does not change the inputs.
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "simulate.cfg"
        self.config.write_text(
            f"N = {self.N}\nnu = {self.NU}\ndt = {self.DT}\nT = {self.STEPS * self.DT!r}\n"
            f"sample_stride = {self.STRIDE}\ninitial_condition = taylor_green\n",
            encoding="utf-8",
        )
        self.out_dir = workdir / "run"

    def run(self) -> dict:
        t0 = time.perf_counter()
        code = call_cli(["simulate", "--config", self.config, "--out-dir", self.out_dir])
        elapsed = time.perf_counter() - t0
        return {"codes": {"simulate": code}, "rates": {"steps_per_s": self.STEPS / elapsed}}

    def check(self, result: dict) -> tuple[list, dict]:
        out = checks.cli_exit("simulate", result["codes"]["simulate"])
        out += checks.norm_csv(self.out_dir / "norms.csv", PAIRS, self.STEPS // self.STRIDE + 1)
        energy_checks, payload = checks.energy_json(self.out_dir / "energy.json")
        out += energy_checks + checks.final_energy(payload, REFERENCE["tg64_step_final_energy"])
        return out, {}


class Rand32Sample:
    """Random solenoidal data at N=32 sampled every step, then every
    ``navier-norms norms`` query on the written trajectory."""

    name = "rand32_sample"
    rate = "steps_per_s"
    N, NU, DT, STEPS, THETA = 32, 0.1, 1e-3, 50, "0.2"
    RTILDES = ("1", "2", "inf")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out_dir = workdir / "run"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.norm_csv = self.out_dir / "norms.csv"
        self.energy_json = self.out_dir / "energy.json"
        self.queries = [
            (k, r, rt, self.out_dir / f"norms_k{k}_r{r:g}_rt{rt}.json") for k, r in PAIRS for rt in self.RTILDES
        ]

    def run(self) -> dict:
        config = solver.SolverConfig(
            N=self.N,
            nu=self.NU,
            dt=self.DT,
            T=self.STEPS * self.DT,
            initial_condition="random",
            ic_params={"seed": self.seed},
            sample_stride=1,
        )
        t0 = time.perf_counter()
        fields, traj, report = solver.simulate(config)
        elapsed = time.perf_counter() - t0
        final = fields[-1]
        del fields
        spectral_io.write_norm_csv(traj, self.norm_csv)
        spectral_io.write_energy_json(report, self.energy_json)
        codes = {}
        for k, r, rt, path in self.queries:
            argv = ["norms", "--traj", self.norm_csv, "--k", k, "--r", repr(r), "--rtilde", rt]
            codes[path.name] = call_cli(argv + ["--theta", self.THETA, "--out", path])
        return {"codes": codes, "final": final, "rates": {"steps_per_s": self.STEPS / elapsed}}

    def check(self, result: dict) -> tuple[list, dict]:
        out = []
        for label, code in result["codes"].items():
            out += checks.cli_exit(label, code)
        out += checks.norm_csv(self.norm_csv, PAIRS, self.STEPS + 1)
        out += checks.energy_json(self.energy_json)[0]
        out += checks.divergence(field.divergence_error(result["final"]))
        try:
            times, series = checks.read_norm_csv(self.norm_csv)
        except (OSError, KeyError, ValueError):
            return out + [("norms.csv readable for the query checks", False)], {}
        for k, r, rt, path in self.queries:
            values = series.get((k, r))
            if values is None or len(values) != len(times):
                out.append((f"{path.name}: series present", False))
                continue
            out += checks.norms_output(path, times, values, float(rt))
        return out, {}


def curve_fields(selector: str, r: Fraction):
    """Expected CSV fields of a curve point, or None where no branch covers r."""
    try:
        if selector.isdigit():
            point = curves.derivative_curve(int(selector), Q(r))
        else:
            point = curves.refined_curve(selector, Q(r))
    except NoBranch:
        return None
    rt = point.r_tilde
    num, den = (0, 0) if rt is None else (rt.numerator, rt.denominator)
    return (num, den, point.admissible, point.open_bound, point.branch_id)


class IneqBatch:
    """``navier-norms bihari`` at two sizes, then every admissibility curve
    through ``navier-norms curves``; no FFT runs."""

    name = "ineq_batch"
    rate = "trials_per_s"
    SIZES = ((256, 150), (1024, 16))
    SELECTORS = ("0", "1", "2", *curves.REFINED_TARGETS)
    R_MIN, R_MAX, SAMPLES = "3/2", "12", 1500

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out_dir = workdir / "run"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.bihari = []
        for n, trials in self.SIZES:
            config = workdir / f"bihari_n{n}.cfg"
            config.write_text(f"n = {n}\ntrials = {trials}\nT = 1.0\n", encoding="utf-8")
            self.bihari.append((n, trials, config, self.out_dir / f"bihari_n{n}.json"))
        self.curves = [(sel, self.out_dir / f"curve_{sel}.csv") for sel in self.SELECTORS]

    def run(self) -> dict:
        codes, rates = {}, {}
        bihari_s = 0.0
        for n, trials, config, report in self.bihari:
            t0 = time.perf_counter()
            codes[report.name] = call_cli(["bihari", "--config", config, "--out", report, "--seed", self.seed])
            elapsed = time.perf_counter() - t0
            bihari_s += elapsed
            rates[f"trials_per_s.n{n}"] = trials / elapsed
        t0 = time.perf_counter()
        for sel, path in self.curves:
            flag = "--k" if sel.isdigit() else "--target"
            argv = ["curves", flag, sel, "--r-min", self.R_MIN, "--r-max", self.R_MAX]
            codes[path.name] = call_cli(argv + ["--samples", self.SAMPLES, "--out", path])
        rates["curve_points_per_s"] = len(self.curves) * self.SAMPLES / (time.perf_counter() - t0)
        rates["trials_per_s"] = sum(trials for _, trials, _, _ in self.bihari) / bihari_s
        return {"codes": codes, "rates": rates}

    def check(self, result: dict) -> tuple[list, dict]:
        out, counts = [], {}
        for label, code in result["codes"].items():
            out += checks.cli_exit(label, code)
        for n, trials, _, report in self.bihari:
            report_checks, iterations = checks.bihari_report(report, trials)
            out += report_checks
            if n == 256:
                counts["bihari.picard_iterations"] = sum(iterations)
                counts["bihari.picard_iterations_max"] = max(iterations, default=0)
        counts["curves.points"] = 0
        for sel, path in self.curves:
            curve_checks, rows = checks.curve_csv(path, sel, self.SAMPLES, curve_fields)
            out += curve_checks
            counts["curves.points"] += rows
        return out, counts


WORKLOADS = {w.name: w for w in (Tg64Step, Rand32Sample, IneqBatch)}
