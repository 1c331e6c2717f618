"""The workloads on reduced sizes: clean outputs pass every check, a
corrupted output fails some, and BENCHMARK.json names what run.py prints."""

import json
from pathlib import Path

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]


class SmallIneq(workloads.IneqBatch):
    SIZES = ((16, 3), (32, 2))
    SAMPLES = 12


class SmallRand(workloads.Rand32Sample):
    N, STEPS = 8, 3


def _failed(checks):
    return [name for name, ok in checks if not ok]


def test_ineq_checks_pass_then_fail_on_corruption(tmp_path):
    workload = SmallIneq(seed=1, workdir=tmp_path)
    result = workload.run()
    checks, counts = workload.check(result)
    assert _failed(checks) == []
    assert counts["curves.points"] == 6 * SmallIneq.SAMPLES

    report = tmp_path / "run" / "bihari_n16.json"
    payload = json.loads(report.read_text())
    payload["worst_violation"] = 1.0
    report.write_text(json.dumps(payload))
    curve = tmp_path / "run" / "curve_2.csv"
    lines = curve.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[3] = str(int(fields[3]) + 1)  # rtilde_num of a re-checked row
    curve.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    failed = _failed(workload.check(result)[0])
    assert failed == ["bihari_n16.json: worst violation <= slack", "curve 2: row 11 re-evaluates exactly"]


def test_rand_checks_pass_then_fail_on_corruption(tmp_path):
    workload = SmallRand(seed=3, workdir=tmp_path)
    result = workload.run()
    assert _failed(workload.check(result)[0]) == []

    norm_csv = tmp_path / "run" / "norms.csv"
    lines = norm_csv.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0,0,6,"))
    lines[row] = "0,0,6,nan"
    norm_csv.write_text("\n".join(lines) + "\n")
    failed = _failed(workload.check(result)[0])
    assert "norms.csv: series (0, 6.0) finite, positive, 4 rows" in failed


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


class Raising(SmallIneq):
    def run(self):
        raise ArithmeticError("no convergence")


def test_unit_that_raises_is_a_failed_check(tmp_path):
    unit = run.Unit(Raising(seed=1, workdir=tmp_path))
    assert unit.result is None
    assert unit.checks == [("unit raised ArithmeticError: no convergence", False)]
    assert run.rate_medians([unit]) == {}
