"""Deterministic CSV and metadata output for CLI runs.

Every run writes plot-ready CSV (UTF-8, comma-delimited, one header row,
floats at 17 significant digits so values round-trip exactly) plus a JSON
sidecar carrying the config echo, tool version, unit mode (for commands
that take one), tolerances, wall clock, and a sha256 of each CSV.
Rerunning an identical config must reproduce the CSV bytes exactly, so
the writers pin the line terminator and keep anything time dependent out
of the CSV files; the sidecar alone carries the wall clock.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = ["format_cell", "write_csv", "sha256_file", "write_meta"]


def format_cell(value) -> str:
    """Render one CSV cell: floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write header plus rows with pinned formatting and line endings."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_meta(
    path,
    config: dict,
    version: str,
    unit_mode: str | None,
    tolerances: dict,
    wall_clock_s: float,
    csv_paths=(),
    extra: dict | None = None,
) -> Path:
    """JSON sidecar for one run; hashes every produced CSV.

    A unit_mode of None, for a command without unit modes, is left out.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    files = {}
    for p in csv_paths:
        p = Path(p)
        files[p.name] = {
            "sha256": sha256_file(p),
            "bytes": p.stat().st_size,
        }
    payload = {
        "config": config,
        "version": version,
        "tolerances": tolerances,
        "wall_clock_s": wall_clock_s,
        "files": files,
    }
    if unit_mode is not None:
        payload["unit_mode"] = unit_mode
    if extra:
        payload["results"] = extra
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
