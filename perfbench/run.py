"""Run one navier-norms benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tg64_step --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Units of the workload's fixed work run back to back for ``--seconds``
seconds; every unit's outputs are checked.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics (medians over units);
with ``--trace 1`` untraced and traced units alternate and the last line
holds the per-layer metrics of the traced ones.  The lines before it give
every metric with its unit, the workload's own rates and the environment.
Spans, results and program outputs go to ``perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
WORKLOAD_NAMES = ("tg64_step", "rand32_sample", "ineq_batch")
SETUP_PROBES = 4  # child processes that each repeat the set-up
MIN_UNITS = 3
MIN_TRACED_UNITS = 3  # the first untraced/traced pair is a warm-up
END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long units are started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "navier_norms" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no navier_norms sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import navier_norms

    if Path(navier_norms.__file__).resolve().parent != SRC / "navier_norms":
        raise SystemExit(f"perfbench: navier_norms imported from {navier_norms.__file__}, not {SRC}")
    from perfbench import workloads

    return workloads


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


class Unit:
    """One timed unit of work and the verdicts of its checks.

    A unit whose work raises counts as one failed operation; ``result`` is
    then None.
    """

    def __init__(self, workload, tracer=None):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        raised = None
        try:
            if tracer is None:
                self.result = workload.run()
            else:
                with tracer:
                    self.result = workload.run()
        except Exception as exc:  # a program defect, reported as a failure
            self.result, raised = None, f"unit raised {type(exc).__name__}: {exc}"
        self.wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        if raised:
            self.checks, self.counts = [(raised, False)], {}
        else:
            self.checks, self.counts = workload.check(self.result)
            self.result.pop("final", None)  # a field kept only for the checks


def run_units(workload, seconds: float, traced: bool):
    """Units back to back until the next would end after ``seconds``.

    In a traced run untraced and traced units alternate, starting untraced.
    """
    from perfbench.layers import TARGETS
    from perfbench.tracer import Tracer

    plain, traced_units, tracers = [], [], []
    start = time.perf_counter()
    while True:
        if traced and len(plain) > len(traced_units):
            tracer = Tracer(TARGETS)
            traced_units.append(Unit(workload, tracer))
            tracers.append(tracer)
        else:
            plain.append(Unit(workload))
        done = plain + traced_units
        elapsed = time.perf_counter() - start
        typical = statistics.median(u.wall_s for u in done)
        enough = len(done) >= MIN_UNITS and (not traced or len(traced_units) >= MIN_TRACED_UNITS)
        if enough and elapsed + typical > seconds:
            return plain, traced_units, tracers


def rate_medians(units) -> dict:
    rates = [u.result["rates"] for u in units if u.result is not None]
    return {name: statistics.median(r[name] for r in rates) for name in (rates[0] if rates else ())}


def end_to_end(workload, units, setup_samples) -> dict:
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "work_per_s": rate_medians(units).get(workload.rate, 0.0),
        "setup_s": statistics.median(setup_samples),
        "cpu_s": statistics.median(u.cpu_s for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced_units, tracers, out_dir: Path) -> tuple[dict, list, dict]:
    """Per-layer metrics, the counts check and extra findings; writes spans.jsonl."""
    from perfbench import layers
    from perfbench.tracer import summarize

    summaries = [summarize(t.spans) for t in tracers]
    values = [layers.unit_values(s, t.spans, u.counts) for s, t, u in zip(summaries, tracers, traced_units)]
    # each traced unit against the untraced unit just before it, past the
    # cold first pair, so both sides of a ratio run in the same host state
    pair_pct = [100.0 * (t.wall_s / p.wall_s - 1.0) for p, t in list(zip(plain, traced_units))[1:]]
    overhead = statistics.median(pair_pct)
    metrics, p90 = layers.combine(values, summaries, overhead)
    counts = [name for name, unit in layers.metric_units().items() if unit == "count"]
    same = all(v[name] == values[0][name] for v in values for name in counts)
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for unit, tracer in enumerate(tracers):
            for sid, span in enumerate(tracer.spans):
                record = {"unit": unit, "id": sid, "name": span.name, "start": span.start, "end": span.end}
                record.update(parent=span.parent, attrs=span.attrs)
                fh.write(json.dumps(record) + "\n")
    extra = {"p90_ms": p90, "absent": sorted(set(tracers[0].absent)), "unit_counts": values}
    extra["overhead_pct_per_pair"] = pair_pct
    return metrics, [("traced units agree on every count", same)], extra


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, out_dir / "probe")
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    shutil.rmtree(out_dir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir / "work")
    setup_samples = [time.perf_counter() - T0]

    from perfbench import envinfo, layers

    environment = envinfo.collect(ROOT)
    if not args.trace:
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
    plain, traced_units, tracers = run_units(workload, args.seconds, bool(args.trace))
    units = plain + traced_units
    checks = [c for u in units for c in u.checks]
    summary = {"units": len(plain), "rates": rate_medians(plain)}
    if args.trace:
        metrics, count_checks, extra = per_layer(plain, traced_units, tracers, out_dir)
        checks += count_checks
        summary.update(traced_units=len(traced_units), **extra)
        units_of = layers.metric_units()
    else:
        metrics = end_to_end(workload, plain, setup_samples)
        summary["setup_samples_s"] = setup_samples
        units_of = END_TO_END_UNITS
    failed = [name for name, ok in checks if not ok]
    summary["fail_ratio"] = len(failed) / len(checks)
    summary["failed_checks"] = failed
    (out_dir / "result.json").write_text(
        json.dumps({"environment": environment, "summary": summary, "metrics": metrics}, indent=2) + "\n",
        encoding="utf-8",
    )

    for name in failed[:20]:
        print(f"perfbench: check failed: {name}", file=sys.stderr)
    for name, value in summary["rates"].items():
        print(f"{args.workload} rate {name} = {value:.6g} 1/s")
    print(f"{args.workload} fail_ratio = {summary['fail_ratio']:.6g} ({len(failed)}/{len(checks)})")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units_of[name]}")
    print(json.dumps({"environment": environment}))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
