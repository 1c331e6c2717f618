"""Which public functions the traced run wraps, and the per-layer metrics
derived from their spans.

Span names are ``<module>.<function>`` with the module's last name part;
the CLI subcommand handlers ``cmd_<name>`` are named ``cli.<name>``.
``exponents``, ``singular`` and ``extrational`` are not wrapped: no workload
reaches the first two, and extrational time is the self time of the curves
spans.  ``gridfn`` and ``errors`` run only inside ``bihari``.
"""

from __future__ import annotations

import math
import statistics

from .tracer import Target, percentile, reportable


def _lebesgue_order(args, kwargs) -> dict:
    return {"k": int(kwargs["k"] if "k" in kwargs else args[1])}


def _leading(array) -> int:
    """Number of 3-D transforms in one call: the product of the leading axes."""
    return math.prod(array.shape[:-3])


def _to_physical(args, kwargs) -> dict:
    return {"transforms": _leading(kwargs.get("coeffs", args[0] if args else None))}


def _to_spectral(args, kwargs) -> dict:
    return {"transforms": _leading(kwargs.get("u", args[0] if args else None))}


_CLI = "navier_norms.cli"
_FIELD = "navier_norms.spectral.field"
TARGETS = [
    Target("cli.curves", _CLI, "cmd_curves"),
    Target("cli.bihari", _CLI, "cmd_bihari"),
    Target("cli.simulate", _CLI, "cmd_simulate"),
    Target("cli.norms", _CLI, "cmd_norms"),
    Target("config.from_file", "navier_norms.config", "RunConfig.from_file"),
    Target("config.parse_norm_pairs", "navier_norms.config", "parse_norm_pairs"),
    Target("config.write_manifest", "navier_norms.config", "RunManifest.write"),
    Target("solver.simulate", "navier_norms.spectral.solver", "simulate"),
    Target("solver.step", "navier_norms.spectral.solver", "step"),
    Target("solver.nonlinear_term", "navier_norms.spectral.solver", "nonlinear_term"),
    Target("field.to_physical", _FIELD, "to_physical", _to_physical),
    Target("field.to_spectral", _FIELD, "to_spectral", _to_spectral),
    Target("field.dealias", _FIELD, "dealias"),
    Target("field.leray_project_coeffs", _FIELD, "leray_project_coeffs"),
    Target("field.lebesgue_norm", _FIELD, "lebesgue_norm", _lebesgue_order),
    Target("field.spectral_l2_sq", _FIELD, "spectral_l2_sq"),
    Target("field.spectral_gradient_l2_sq", _FIELD, "spectral_gradient_l2_sq"),
    Target("field.init_taylor_green", _FIELD, "init_taylor_green"),
    Target("field.random_solenoidal", _FIELD, "random_solenoidal"),
    Target("diagnostics.build_energy_report", "navier_norms.spectral.diagnostics", "build_energy_report"),
    Target("diagnostics.mixed_norm", "navier_norms.spectral.diagnostics", "mixed_norm"),
    Target(
        "diagnostics.weighted_singular_integral",
        "navier_norms.spectral.diagnostics",
        "weighted_singular_integral",
    ),
    Target("io.write_norm_csv", "navier_norms.spectral.io", "write_norm_csv"),
    Target("io.read_norm_csv", "navier_norms.spectral.io", "read_norm_csv"),
    Target("io.write_energy_json", "navier_norms.spectral.io", "write_energy_json"),
    Target("bihari.random_instance", "navier_norms.bihari", "random_instance"),
    Target("bihari.bihari_verify", "navier_norms.bihari", "bihari_verify"),
    Target("kernels.picard_solve", "navier_norms.kernels", "picard_solve"),
    Target("curves.sample_curve", "navier_norms.curves", "sample_curve"),
    Target("curves.derivative_curve", "navier_norms.curves", "derivative_curve"),
    Target("curves.refined_curve", "navier_norms.curves", "refined_curve"),
    Target("curves.curve_points_to_rows", "navier_norms.curves", "curve_points_to_rows"),
]

# spans reported with calls, total_s, self_s and p50_ms
FULL = [
    "solver.step",
    "solver.nonlinear_term",
    "field.to_physical",
    "field.to_spectral",
    "field.lebesgue_norm",
    "bihari.bihari_verify",
    "kernels.picard_solve",
]
# spans reported with total_s only
TOTAL_ONLY = [
    "field.dealias",
    "field.leray_project_coeffs",
    "field.spectral_l2_sq",
    "field.spectral_gradient_l2_sq",
    "diagnostics.build_energy_report",
    "diagnostics.mixed_norm",
    "diagnostics.weighted_singular_integral",
    "io.write_norm_csv",
    "io.read_norm_csv",
    "io.write_energy_json",
    "cli.norms",
    "bihari.random_instance",
    "curves.sample_curve",
]
# counts that the workload reads from the program's outputs
UNIT_COUNTS = ["bihari.picard_iterations", "bihari.picard_iterations_max", "curves.points"]


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for span in FULL:
        out.update({f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s", f"{span}.p50_ms": "ms"})
    out["field.to_physical.transforms"] = "count"
    out["field.to_spectral.transforms"] = "count"
    out.update({f"field.lebesgue_norm.k{k}.total_s": "s" for k in range(3)})
    out.update({f"{span}.total_s": "s" for span in TOTAL_ONLY})
    out["cli.bihari.self_s"] = "s"
    out["curves.derivative_curve.calls"] = "count"
    out["curves.refined_curve.calls"] = "count"
    out.update({name: "count" for name in UNIT_COUNTS})
    out["trace.overhead_pct"] = "%"
    return out


def unit_values(summary: dict, spans, unit_counts: dict) -> dict:
    """Per-layer values of one traced unit (timings in seconds, no percentiles)."""
    def stat(span, key):
        return summary.get(span, {}).get(key, 0)

    out = {}
    for span in FULL:
        out[f"{span}.calls"] = stat(span, "calls")
        out[f"{span}.total_s"] = stat(span, "total_s")
        out[f"{span}.self_s"] = stat(span, "self_s")
    for name in ("field.to_physical", "field.to_spectral"):
        out[f"{name}.transforms"] = sum(s.attrs["transforms"] for s in spans if s.name == name)
    for k in range(3):
        out[f"field.lebesgue_norm.k{k}.total_s"] = sum(
            s.duration for s in spans if s.name == "field.lebesgue_norm" and s.attrs["k"] == k
        )
    for span in TOTAL_ONLY:
        out[f"{span}.total_s"] = stat(span, "total_s")
    out["cli.bihari.self_s"] = stat("cli.bihari", "self_s")
    out["curves.derivative_curve.calls"] = stat("curves.derivative_curve", "calls")
    out["curves.refined_curve.calls"] = stat("curves.refined_curve", "calls")
    out.update({name: unit_counts.get(name, 0) for name in UNIT_COUNTS})
    return out


def combine(units: list[dict], summaries: list[dict], overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metrics of the run from its traced units.

    Counts come from the first unit (the counts check compares them across
    units); times are medians over units; p50_ms pools every span of the
    name.  Also returns p90_ms for the spans with at least ten samples
    beyond it, which is reported beside the metrics.
    """
    metrics = {}
    for name, unit in metric_units().items():
        if name == "trace.overhead_pct":
            metrics[name] = overhead_pct
        elif unit == "count":
            metrics[name] = units[0][name]
        elif name.endswith(".p50_ms"):
            durations = [d for s in summaries for d in s.get(name[: -len(".p50_ms")], {}).get("durations", [])]
            metrics[name] = 1e3 * statistics.median(durations) if durations else 0.0
        else:
            metrics[name] = statistics.median(u[name] for u in units)
    p90 = {}
    names = sorted({name for s in summaries for name in s})
    for name in names:
        durations = [d for s in summaries for d in s.get(name, {}).get("durations", [])]
        if reportable(len(durations), 90):
            p90[f"{name}.p90_ms"] = 1e3 * percentile(durations, 90)
    return metrics, p90
