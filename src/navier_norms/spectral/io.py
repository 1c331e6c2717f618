"""Serialization of the solver artifacts: norm trajectories as CSV, energy
reports as JSON, raw spectral snapshots in a small self-describing binary
layout (all little-endian)."""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from ..config import format_float
from .diagnostics import EnergyReport, NormTrajectory
from .field import SpectralField

__all__ = [
    "write_norm_csv",
    "read_norm_csv",
    "write_energy_json",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_MAGIC = b"NAVNORM2"
_SNAPSHOT_MAGIC_V1 = b"NAVNORM1"  # header without nu; refused on read
NORM_COLUMNS = ("t", "k", "r", "value")


def write_norm_csv(traj: NormTrajectory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(NORM_COLUMNS)
        for t, k, r, v in traj.records():
            writer.writerow([format_float(t), k, format_float(r), format_float(v)])


def read_norm_csv(path) -> NormTrajectory:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row fails float("")
        missing = [name for name in NORM_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column {', '.join(missing)}")
        for row in reader:
            rows.append(
                (float(row["t"]), int(row["k"]), float(row["r"]), float(row["value"]))
            )
    times = sorted({t for t, *_ in rows})
    index = {t: i for i, t in enumerate(times)}
    samples: dict = {}
    for t, k, r, v in rows:
        series = samples.setdefault((k, r), np.full(len(times), np.nan))
        series[index[t]] = v
    for pair, series in samples.items():
        if np.any(np.isnan(series)):
            raise ValueError(f"series {pair} is missing samples at some times")
    return NormTrajectory(times=np.asarray(times), samples=samples)


def write_energy_json(report: EnergyReport, path) -> None:
    payload = {
        "times": [float(t) for t in report.times],
        "energy": [float(e) for e in report.energy],
        "dissipation": [float(d) for d in report.dissipation],
        "leray_residuals": [float(x) for x in report.leray_residuals],
        "energy_balance_residual": float(report.energy_balance_residual),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_snapshot(f: SpectralField, time: float, path) -> None:
    """Header: magic, N (uint32), component count (uint32), time (float64),
    nu (float64); payload: the complex coefficients, little-endian 64-bit
    floats."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIdd", f.N, f.coeffs.shape[0], time, f.nu))
        fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes())


def read_snapshot(path) -> tuple[SpectralField, float]:
    """The field, with the viscosity it was written with, and its time."""
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic == _SNAPSHOT_MAGIC_V1:
            raise ValueError(f"{path}: snapshot format {magic!r} predates the stored viscosity")
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a snapshot file: bad magic {magic!r}")
        header = fh.read(24)
        if len(header) < 24:
            raise ValueError(f"{path}: truncated snapshot header ({len(header)} of 24 bytes)")
        N, ncomp, time, nu = struct.unpack("<IIdd", header)
        payload = fh.read()
    expected = ncomp * N * N * (N // 2 + 1) * 16
    if len(payload) != expected:
        raise ValueError(
            f"{path}: snapshot payload is {len(payload)} bytes, its header"
            f" (N={N}, {ncomp} components) needs {expected}"
        )
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(ncomp, N, N, N // 2 + 1).astype(np.complex128)
    return SpectralField(N=N, nu=nu, coeffs=coeffs), time
