import csv
import json
import math

import pytest

from navier_norms import cli
from navier_norms.config import RunConfig, parse_norm_pairs


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


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("N = 16\nnorms = bogus\n")
    assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


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
    # r = inf has no curve verdict and no sampled series in this run
    assert cli.main(traj + ["--r", "inf", "--rtilde", "2"]) == 2
    assert "no samples" in capsys.readouterr().err


def test_norms_missing_series_exits_2(small_run, capsys):
    _, out_dir = small_run
    code = cli.main(
        ["norms", "--traj", str(out_dir / "norms.csv"), "--k", "2", "--r", "2", "--rtilde", "2"]
    )
    assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
