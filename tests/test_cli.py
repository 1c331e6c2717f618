import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from navier_norms import cli
from navier_norms.config import RunConfig, parse_norm_pairs
from navier_norms.spectral import io as spectral_io


# -- config parsing -----------------------------------------------------------


def test_run_config_roundtrip():
    cfg = RunConfig.from_text("n = 64\nbeta = 0.5  # comment\n\nT = 2.0\n")
    assert cfg.get_int("n") == 64
    assert cfg.get_float("beta") == 0.5
    assert "T" in cfg and "missing" not in cfg
    assert RunConfig.from_text(cfg.to_text()).entries == cfg.entries
    with pytest.raises(KeyError):
        cfg.get_str("missing")
    assert cfg.get_str("missing", "x") == "x"


def test_run_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        RunConfig.from_text("just a line without equals\n")
    with pytest.raises(ValueError):
        RunConfig.from_text("a = 1\na = 2\n")
    with pytest.raises(ValueError):
        RunConfig.from_text("= 3\n")


def test_parse_norm_pairs():
    assert parse_norm_pairs("0:6, 1:3") == [(0, 6.0), (1, 3.0)]
    assert parse_norm_pairs("0:inf") == [(0, math.inf)]
    with pytest.raises(ValueError):
        parse_norm_pairs("0-6")
    with pytest.raises(ValueError):
        parse_norm_pairs("   ")


# -- curves subcommand --------------------------------------------------------


def test_curves_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "k0.csv"
    code = cli.main(
        ["curves", "--k", "0", "--r-min", "2", "--r-max", "6", "--samples", "9", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert rows[0]["rtilde_num"] == "1" and rows[0]["rtilde_den"] == "0"  # r=2: infinity
    assert rows[-1]["rtilde_num"] == "2" and rows[-1]["rtilde_den"] == "1"
    manifest = json.loads((tmp_path / "k0.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "curves"
    assert str(out) in manifest["outputs"]


def test_curves_refined_target(tmp_path):
    out = tmp_path / "grad1.csv"
    code = cli.main(
        ["curves", "--target", "grad1", "--r-min", "3", "--r-max", "6", "--samples", "5", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 5


def test_curves_bad_range_exits_2(tmp_path):
    code = cli.main(
        ["curves", "--k", "0", "--r-min", "6", "--r-max", "2", "--samples", "5", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "bound",
    [["--r-min", "1/0", "--r-max", "6"], ["--r-min", "2", "--r-max", "0/0"], ["--r-min=-1/0", "--r-max", "6"]],
    ids=["r-min-inf", "r-max-0/0", "r-min-negative-inf"],
)
def test_curves_zero_denominator_bound_exits_2(tmp_path, capsys, bound):
    argv = ["curves", "--k", "0", *bound, "--samples", "5", "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("curves: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["curves", "--k", "7"])
    assert exc.value.code == 2


# -- bihari subcommand --------------------------------------------------------


def bihari_config(tmp_path, extra=""):
    path = tmp_path / "bihari.cfg"
    path.write_text("n = 64\ntrials = 5\nseed = 3\n" + extra)
    return path


def test_bihari_batch_passes(tmp_path):
    cfg = bihari_config(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["bihari", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 5
    assert payload["worst_violation"] <= payload["slack"]
    assert len(payload["per_trial"]) == 5


def test_bihari_is_deterministic(tmp_path):
    cfg = bihari_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["bihari", "--config", str(cfg), "--out", str(out1)])
    cli.main(["bihari", "--config", str(cfg), "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_bihari_seed_override_changes_output(tmp_path):
    cfg = bihari_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["bihari", "--config", str(cfg), "--out", str(out1)])
    cli.main(["bihari", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
    assert json.loads(out1.read_text())["seed"] == 3
    assert json.loads(out2.read_text())["seed"] == 99


def test_bihari_bad_config_exits_2(tmp_path):
    cfg = bihari_config(tmp_path, extra="beta = 1.5\n")
    assert cli.main(["bihari", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert cli.main(["bihari", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "r.json")]) == 2


def test_bihari_unread_config_key_exits_2(tmp_path, capsys):
    cfg = bihari_config(tmp_path, extra="N = 64\n")
    out = tmp_path / "r.json"
    assert cli.main(["bihari", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bihari: unread config keys N ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n", [32, 256], ids=["picard-overflows", "bound-overflows"])
def test_bihari_blowup_exits_4(tmp_path, capsys, n):
    # beta near 1 over a long horizon: at n = 32 the equality-case Picard
    # iterates overflow, at n = 256 they converge but the diagonal bound
    # K_t(t) = (...)^(1/(1-beta)) overflows
    cfg = tmp_path / "bihari.cfg"
    cfg.write_text(f"n = {n}\ntrials = 1\nT = 100000\nbeta = 0.99\ngamma = 1.0\n")
    out = tmp_path / "r.json"
    assert cli.main(["bihari", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("bihari: trial 0: blow-up") and err.count("\n") == 1
    assert not out.exists()


# -- simulate and norms subcommands -------------------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("N = 16\nnu = 0.1\ndt = 0.005\nT = 0.05\nsample_stride = 2\nnorms = 0:6 1:3 0:2\n")
    out_dir = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    return code, out_dir


def test_simulate_writes_artifacts(small_run):
    code, out_dir = small_run
    assert code == 0
    assert (out_dir / "norms.csv").exists()
    assert (out_dir / "energy.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["N"] == "16"
    assert manifest["duration_seconds"] > 0
    energy = json.loads((out_dir / "energy.json").read_text())
    assert energy["energy"][0] == pytest.approx(math.pi**3, rel=1e-12)


def test_simulate_writes_snapshots(tmp_path):
    cfg = tmp_path / "sim.cfg"
    # 9 steps at sample stride 2: samples at steps 0, 2, 4, 6, 8 and the short final 9
    cfg.write_text("N = 16\nnu = 0.1\ndt = 0.005\nT = 0.045\nsample_stride = 2\nsnapshot_stride = 2\n")
    out_dir = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    snaps = sorted(p.name for p in out_dir.glob("snapshot_*.bin"))
    assert snaps == ["snapshot_0000.bin", "snapshot_0002.bin", "snapshot_0004.bin"]
    times = spectral_io.read_norm_csv(out_dir / "norms.csv").times
    assert len(times) == 6
    for name in snaps:
        field, t = spectral_io.read_snapshot(out_dir / name)
        assert t == times[int(name[9:13])]
        assert field.nu == 0.1 and field.N == 16
    outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert [Path(p).name for p in outputs if "snapshot_" in p] == snaps


def test_simulate_blowup_keeps_streamed_snapshots(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("N = 8\nnu = 1e-4\ndt = 10.0\nT = 100.0\nsample_stride = 1\nsnapshot_stride = 1\n")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 4
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("simulate: blow-up")
    blowup_step = int(last.rsplit("(step ", 1)[1].rstrip(")"))
    assert blowup_step > 1
    snaps = sorted(p.name for p in out_dir.glob("snapshot_*.bin"))
    assert snaps == [f"snapshot_{j:04d}.bin" for j in range(blowup_step)]
    assert not (out_dir / "manifest.json").exists() and not (out_dir / "norms.csv").exists()


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("N = 16\nnorms = bogus\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "N = 12\n",
        "N = 16\nT = 1.0\ndt = 0.3\n",
        "N = 8\ndt = 0.01\nT = 0.01\nsample_stride = 0\n",
        "N = 8\ndt = 0.01\nT = 0.02\nsnapshot_stride = -1\n",
    ],
    ids=["N-not-power-of-two", "T-not-whole-steps", "sample-stride-0", "snapshot-stride-negative"],
)
def test_simulate_bad_grid_or_horizon_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simulate: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, unread",
    [
        ("N = 16\ndt = 0.005\nT = 0.01\ninitial_condition = random\nseed = 7\n", "seed"),
        ("N = 16\ndt = 0.005\nT = 0.01\nsampel_stride = 1\n", "sampel_stride"),
    ],
    ids=["seed", "misspelt-key"],
)
def test_simulate_unread_config_key_exits_2(tmp_path, capsys, text, unread):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"simulate: unread config keys {unread} ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_simulate_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("N = 16\ndt = 0.005\nT = 0.01\n")
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("NAVIER_NORMS_THREADS", value)
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert "NAVIER_NORMS_THREADS" in capsys.readouterr().err


def test_cli_import_skips_scipy_integrate(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    traj = tmp_path / "norms.csv"
    traj.write_text(NORMS_CSV)
    # bihari and curves never transform a field, so scipy.fft stays out too;
    # so does a norms query, which reads a CSV and integrates in time
    argv = ["norms", "--traj", str(traj), "--k", "0", "--r", "2", "--rtilde", "2"]
    norms = f"assert navier_norms.cli.main({argv!r}) == 0"
    for run in ("pass", norms):
        code = (
            f"import sys, navier_norms.cli; {run}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stderr.strip() == "[]"


@pytest.mark.parametrize("threads", [None, "1"])
def test_spectral_import_starts_no_thread_small_simulate_at_most_one(tmp_path, threads):
    # the pool comes at first use; importing the solver starts no thread.
    # Below N = 64 it holds the one thread that overlaps the norm sampler
    # with the steps: none with NAVIER_NORMS_THREADS=1 or one CPU, else
    # exactly one, which a second simulate reuses
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("NAVIER_NORMS_THREADS", None)
    if threads is not None:
        env["NAVIER_NORMS_THREADS"] = threads
    code = (
        "import sys, threading; before = threading.active_count(); "
        "import navier_norms.spectral as s; "
        "assert not [m for m in sys.modules if m.startswith('concurrent.futures')]; "
        "assert threading.active_count() == before; "
        "config = s.SolverConfig(N=32, dt=0.01, T=0.02, sample_stride=1); "
        "s.simulate(config); first = threading.active_count() - before; "
        "s.simulate(config); print(first, threading.active_count() - before, s.field.cpu_count())"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    first, second, cpus = map(int, out.stdout.split())
    assert first == second == (1 if threads is None and cpus > 1 else 0)


def test_norms_on_curve_verdict(small_run, capsys):
    _, out_dir = small_run
    code = cli.main(
        ["norms", "--traj", str(out_dir / "norms.csv"), "--k", "1", "--r", "3", "--rtilde", "1"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["verdict"] == "on-curve (branch k1_low)"
    assert result["mixed_norm"] > 0


def test_norms_weighted_integral_and_output(small_run, tmp_path, capsys):
    _, out_dir = small_run
    out = tmp_path / "norms.json"
    code = cli.main(
        [
            "norms",
            "--traj",
            str(out_dir / "norms.csv"),
            "--k",
            "0",
            "--r",
            "2",
            "--rtilde",
            "inf",
            "--theta",
            "0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    result = json.loads(out.read_text())
    assert result["r_tilde"] == "inf"
    assert result["weighted_integral"] > 0
    assert (tmp_path / "norms.json.manifest.json").exists()


def test_norms_theta_too_large_exits_2(small_run, capsys):
    _, out_dir = small_run
    code = cli.main(
        [
            "norms",
            "--traj",
            str(out_dir / "norms.csv"),
            "--k",
            "0",
            "--r",
            "2",
            "--rtilde",
            "2",
            "--theta",
            "1.1",
        ]
    )
    assert code == 2
    assert "theta" in capsys.readouterr().err


def test_norms_bad_values_exit_2(small_run, capsys):
    _, out_dir = small_run
    traj = ["norms", "--traj", str(out_dir / "norms.csv"), "--k", "0"]
    assert cli.main(traj + ["--r", "2", "--rtilde", "abc"]) == 2
    assert "abc" in capsys.readouterr().err
    # r = inf has no sampled series in this run
    assert cli.main(traj + ["--r", "inf", "--rtilde", "2"]) == 2
    assert "no samples" in capsys.readouterr().err


def test_norms_missing_series_exits_2(small_run, capsys):
    _, out_dir = small_run
    code = cli.main(
        ["norms", "--traj", str(out_dir / "norms.csv"), "--k", "2", "--r", "2", "--rtilde", "2"]
    )
    assert code == 2
    capsys.readouterr()
    code = cli.main(["norms", "--traj", str(out_dir / "norms.csv"), "--k", "0", "--r", "-1", "--rtilde", "2"])
    assert code == 2
    assert capsys.readouterr().err == "norms: no samples for (k, r) = (0, -1.0)\n"


@pytest.mark.parametrize(
    "rtilde, verdict",
    [
        ("1", "on-curve (branch k0_high)"),
        ("2", "off-curve (curve gives r_tilde = 1)"),
        ("inf", "off-curve (curve gives r_tilde = 1)"),
    ],
)
def test_norms_verdict_at_r_infinity(tmp_path, capsys, rtilde, verdict):
    # the k = 0 curve reaches r = inf on k0_high, where r_tilde = 1
    traj = tmp_path / "norms.csv"
    traj.write_text("t,k,r,value\n0,0,inf,1.5\n0.5,0,inf,1.25\n1,0,inf,1\n")
    assert cli.main(["norms", "--traj", str(traj), "--k", "0", "--r", "inf", "--rtilde", rtilde]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict


NORMS_CSV = "t,k,r,value\n0,0,2,1.5\n0.5,0,2,1.25\n1,0,2,1\n"
REFUSED_AT_ENTRY = {
    "curves-out-missing-dir": ["curves", "--k", "0", "--r-min", "2", "--r-max", "6", "--out", "{tmp}/no/x.csv"],
    "simulate-out-dir-is-file": ["simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\n}", "--out-dir", "{cfg:}"],
    "bihari-n-0": ["bihari", "--config", "{cfg:n = 0\ntrials = 1\n}", "--out", "{tmp}/r.json"],
    "bihari-n-negative": ["bihari", "--config", "{cfg:n = -1\ntrials = 1\n}", "--out", "{tmp}/r.json"],
    "bihari-T-negative": ["bihari", "--config", "{cfg:n = 8\ntrials = 1\nT = -1\n}", "--out", "{tmp}/r.json"],
    "bihari-T-0": ["bihari", "--config", "{cfg:n = 8\ntrials = 1\nT = 0\n}", "--out", "{tmp}/r.json"],
    "bihari-trials-negative": ["bihari", "--config", "{cfg:n = 8\ntrials = -1\n}", "--out", "{tmp}/r.json"],
    "simulate-nu-negative": ["simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\nnu = -1\n}", "--out-dir", "{tmp}/o"],
    "simulate-nu-0": ["simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\nnu = 0\n}", "--out-dir", "{tmp}/o"],
    "simulate-nu-nan": ["simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\nnu = nan\n}", "--out-dir", "{tmp}/o"],
    "simulate-unknown-ic": [
        "simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\ninitial_condition = vortex\n}", "--out-dir", "{tmp}/o"
    ],
    "simulate-norm-k-3": ["simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\nnorms = 3:2\n}", "--out-dir", "{tmp}/o"],
    "simulate-norm-r-half": [
        "simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\nnorms = 0:0.5\n}", "--out-dir", "{tmp}/o"
    ],
    "simulate-norm-r-nan": ["simulate", "--config", "{cfg:N = 8\ndt = 0.01\nT = 0.01\nnorms = 0:nan\n}", "--out-dir", "{tmp}/o"],
    "norms-missing-value-column": ["norms", "--traj", "{cfg:t,k,r\n0,0,2\n}", "--k", "0", "--r", "2", "--rtilde", "2"],
    "norms-short-row": ["norms", "--traj", "{cfg:t,k,r,value\n0,0,2,1\n1,0,2\n}", "--k", "0", "--r", "2", "--rtilde", "2"],
    "norms-theta-nan": ["norms", "--traj", "{csv}", "--k", "0", "--r", "2", "--rtilde", "2", "--theta", "nan"],
    "norms-rtilde-nan": ["norms", "--traj", "{csv}", "--k", "0", "--r", "2", "--rtilde", "nan"],
    "norms-T-nan": ["norms", "--traj", "{csv}", "--k", "0", "--r", "2", "--rtilde", "2", "--theta", "0.2", "--T", "nan"],
    "norms-T-inf": ["norms", "--traj", "{csv}", "--k", "0", "--r", "2", "--rtilde", "2", "--theta", "0.2", "--T", "inf"],
    "norms-T-past-last-sample": [
        "norms", "--traj", "{csv}", "--k", "0", "--r", "2", "--rtilde", "2", "--theta", "0.2", "--T", "2"
    ],
}


@pytest.mark.parametrize("argv", REFUSED_AT_ENTRY.values(), ids=REFUSED_AT_ENTRY.keys())
def test_refused_at_entry_exits_2(tmp_path, capsys, argv):
    # "{cfg:TEXT}" becomes a fresh file holding TEXT, "{csv}" a valid norms.csv;
    # every output path below tmp_path must stay absent
    inputs = iter(range(len(argv)))

    def expand(arg):
        if arg == "{csv}":
            arg = "{cfg:" + NORMS_CSV + "}"
        if arg.startswith("{cfg:"):
            path = tmp_path / f"input{next(inputs)}"
            path.write_text(arg[5:-1])
            return str(path)
        return arg.replace("{tmp}", str(tmp_path))

    argv = [expand(arg) for arg in argv]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
