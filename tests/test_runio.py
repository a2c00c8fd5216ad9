"""Deterministic CSV bytes and the metadata sidecar's serialization."""

import csv
import io
import json

from bcsbec.runio import format_cell, render_csv, write_csv, write_meta


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(7) == "7"
    assert format_cell("label") == "label"
    # 17 significant digits round-trip any double exactly
    for value in (0.1, -2.0192379385369572, 1e-300, 3.0):
        assert float(format_cell(value)) == value


def test_write_csv_is_byte_stable(tmp_path):
    header = ("a", "b", "c")
    rows = [(1.0 / 3.0, None, True), (2.5, "x", False)]
    data = render_csv(header, rows)
    assert data == render_csv(header, rows)
    p1 = write_csv(tmp_path / "one.csv", data)
    p2 = write_csv(tmp_path / "two.csv", render_csv(header, rows))
    assert p1 == tmp_path / "one.csv"
    b1 = p1.read_bytes()
    assert b1 == data == p2.read_bytes()
    # unix newlines regardless of platform
    assert b"\r" not in b1
    parsed = list(csv.reader(io.StringIO(b1.decode("utf-8"), newline="")))
    assert parsed[0] == list(header)
    assert parsed[1][1] == ""
    assert parsed[1][2] == "1"
    assert float(parsed[1][0]) == 1.0 / 3.0


def test_write_meta_contents(tmp_path):
    payload = {
        "config": {"command": "demo", "points": 3},
        "version": "0.1.0",
        "unit_mode": "dimensionless",
        "tolerances": {"tol_gap": 1e-10},
        "wall_clock_s": 0.123,
        "files": {"data.csv": {"sha256": "0" * 64, "bytes": 6}},
        "results": {"answer": 42},
    }
    meta_path = tmp_path / "data.meta.json"
    write_meta(meta_path, payload)
    text = meta_path.read_text()
    assert json.loads(text) == payload
    assert text.endswith("\n")
    # indented and key-sorted, so an identical payload gives identical bytes
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
