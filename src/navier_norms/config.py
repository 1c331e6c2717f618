"""Plain-text run configs (key = value lines) and the per-run manifest.

Configs stay string-valued internally so a manifest can reproduce the run
byte for byte; typed accessors convert on demand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunConfig", "RunManifest", "format_float", "parse_norm_pairs"]


@dataclass
class RunConfig:
    """Flat key/value config with typed accessors."""

    entries: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValueError(f"line {lineno}: empty key")
            if key in entries:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            entries[key] = value
        return cls(entries)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries.items())

    def _get(self, key: str, default, convert):
        if key in self.entries:
            return convert(self.entries[key])
        if default is None:
            raise KeyError(f"missing config key {key!r}")
        return default

    def get_str(self, key: str, default: str | None = None) -> str:
        return self._get(key, default, str)

    def get_int(self, key: str, default: int | None = None) -> int:
        return self._get(key, default, int)

    def get_float(self, key: str, default: float | None = None) -> float:
        return self._get(key, default, float)

    def check_keys(self, known) -> None:
        """Raise ValueError naming every key outside ``known`` in one line."""
        unread = [key for key in self.entries if key not in known]
        if unread:
            raise ValueError(f"unread config keys {', '.join(unread)} (known: {', '.join(known)})")

    def __contains__(self, key: str) -> bool:
        return key in self.entries


def format_float(x: float) -> str:
    """Round-trip text of a float: 17 significant digits, or "inf"."""
    return "inf" if x == math.inf else "%.17g" % x


def parse_norm_pairs(text: str) -> list[tuple[int, float]]:
    """Parse a norms list like "0:6, 1:3, 1:2" into (k, r) pairs."""
    pairs = []
    for chunk in text.replace(",", " ").split():
        k_str, _, r_str = chunk.partition(":")
        if not r_str:
            raise ValueError(f"norm pair {chunk!r}: expected k:r")
        r = math.inf if r_str.lower() == "inf" else float(r_str)
        pairs.append((int(k_str), r))
    if not pairs:
        raise ValueError("empty norms list")
    return pairs


@dataclass
class RunManifest:
    """Record of one CLI run, emitted next to the outputs."""

    subcommand: str
    config: dict
    seed: int | None
    version: str
    outputs: list
    duration_seconds: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "subcommand": self.subcommand,
                "config": self.config,
                "seed": self.seed,
                "version": self.version,
                "outputs": [str(p) for p in self.outputs],
                "duration_seconds": self.duration_seconds,
            },
            indent=2,
        ) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")
