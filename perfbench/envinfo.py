"""Environment block recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

from navier_norms.spectral import field


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> dict:
    """Data and unified cache sizes of CPU 0, by level, from sysfs."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind in ("Data", "Unified"):
            out[f"L{level}"] = size
    return out


def git_revision(root: Path) -> str | None:
    """Commit named by .git/HEAD, read without running git (None outside a clone)."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(git / ref)
    if rev:
        return rev
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def field_bytes(N: int) -> dict:
    """Bytes of one velocity field, computed from the array shapes."""
    return {
        "spectral_complex128": 3 * N * N * (N // 2 + 1) * 16,
        "physical_float64": 3 * N**3 * 8,
    }


def collect(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_workers": field.fft_workers(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches_cpu0": caches(),
        "git_revision": git_revision(root),
        "bytes_per_field_computed": {f"N={N}": field_bytes(N) for N in (32, 64)},
    }
