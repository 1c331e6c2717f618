import sys
import types

import pytest

from navier_norms import cli, config, curves, kernels
from navier_norms.extrational import Q
from navier_norms.spectral import diagnostics, solver
from perfbench import layers
from perfbench.tracer import Target, Tracer, percentile, reportable, self_times, summarize


def _package_state():
    state = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "navier_norms" or name.startswith("navier_norms.")):
            state.update({(name, key): value for key, value in vars(mod).items()})
    for cls in (config.RunConfig, config.RunManifest):
        state.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return state


def test_originals_restored_and_aliases_patched():
    before = _package_state()
    original = diagnostics.build_energy_report
    with Tracer(layers.TARGETS) as tracer:
        # solver imported build_energy_report by name: both references are wrapped
        assert solver.build_energy_report is not original
        assert solver.build_energy_report is diagnostics.build_energy_report
        assert isinstance(vars(config.RunConfig)["from_file"], classmethod)
        curves.derivative_curve(0, Q(3))
    assert tracer.absent == []
    assert [s.name for s in tracer.spans] == ["curves.derivative_curve"]
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_removed_function_reported_absent(monkeypatch):
    monkeypatch.delattr(kernels, "picard_solve")
    targets = layers.TARGETS + [Target("gone.module", "navier_norms.no_such_module", "f")]
    with Tracer(targets) as tracer:
        cli.build_parser()
        curves.refined_curve("grad2", Q(3))
    assert tracer.absent == ["kernels.picard_solve", "gone.module"]
    values = layers.unit_values(summarize(tracer.spans), tracer.spans, {})
    metrics, _ = layers.combine([values], [summarize(tracer.spans)], 0.0)
    assert metrics["kernels.picard_solve.calls"] == 0
    assert metrics["kernels.picard_solve.total_s"] == 0.0
    assert set(metrics) == set(layers.metric_units())


@pytest.fixture
def fake_package():
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules["fakepkg.mod"] = mod
    yield mod
    del sys.modules["fakepkg.mod"]


def test_self_time_is_span_minus_children(fake_package):
    ticks = iter(range(100))
    targets = [Target("mod.outer", "fakepkg.mod", "outer"), Target("mod.inner", "fakepkg.mod", "inner")]
    with Tracer(targets, package="fakepkg", clock=lambda: float(next(ticks))) as tracer:
        assert fake_package.outer() == 2
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("mod.outer", 0.0, 5.0, -1),
        ("mod.inner", 1.0, 2.0, 0),
        ("mod.inner", 3.0, 4.0, 0),
    ]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    summary = summarize(tracer.spans)
    assert summary["mod.outer"]["self_s"] == 3.0
    assert summary["mod.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "durations": [1.0, 1.0]}


def test_percentile_rule():
    assert percentile(range(1, 101), 90) == 90
    assert percentile([5.0], 50) == 5.0
    assert reportable(100, 90)  # samples 91..100 lie beyond the 90th
    assert not reportable(99, 90)
    assert not reportable(0, 90)
    summaries = [{"x": {"calls": 100, "durations": [float(i) for i in range(100)]}}]
    _, p90 = layers.combine([{name: 0 for name in layers.metric_units()}], summaries, 0.0)
    assert p90 == {"x.p90_ms": 89000.0}
    summaries[0]["x"]["durations"].pop()
    assert layers.combine([{name: 0 for name in layers.metric_units()}], summaries, 0.0)[1] == {}
