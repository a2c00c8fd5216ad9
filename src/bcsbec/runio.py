"""Deterministic CSV and metadata bytes for CLI runs.

Every run writes plot-ready CSV (UTF-8, comma-delimited, one header row,
floats at 17 significant digits so values round-trip exactly) plus a JSON
sidecar.  Output takes one pass: `render_csv` turns a table into its
bytes once, the caller writes those bytes with `write_csv` and hashes the
same bytes, so no file is read back; `write_meta` only serializes the
sidecar payload that the caller built.  This module owns the byte format
alone: the caller makes the output directory and decides what the
sidecar holds.  Rerunning an identical config must reproduce the CSV
bytes exactly, so the renderer pins the line terminator and keeps
anything time dependent out of the CSV; the sidecar alone carries the
wall clock.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

__all__ = ["format_cell", "render_csv", "write_csv", "write_meta"]


def format_cell(value) -> str:
    """Render one CSV cell: floats at 17 significant digits."""
    if type(value) is float:  # most cells: skip the isinstance chain
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def render_csv(header, rows) -> bytes:
    """Header plus rows as UTF-8 CSV bytes, with pinned formatting and line endings."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def write_csv(path, data: bytes) -> Path:
    """Write rendered CSV bytes into an existing directory."""
    path = Path(path)
    path.write_bytes(data)
    return path


def write_meta(path, payload: dict) -> None:
    """Serialize one run's sidecar payload as indented, key-sorted JSON, in one write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
