"""Digest the outputs of a fixed set of bcsbec CLI runs.

Runs every subcommand once with its default arguments, the unit-aware
subcommands in both unit modes, and a few fixed non-default runs (the
benchmark's five-rung Pegg-Barnett ladder, a two-rung ladder from s = 512
at Omega = 64, whose probe tail is flushed of subnormal weights, the Fock
oracle at its 12-mode cap (dimension 4096), the longest pinned phase-lock
seed, an attractive and two repulsive phase locks that end with dead modes
(each ended by the Newton finish), a phase lock from a first step of
1e300, which the step cap cuts before its first trial, a phase lock in a
box of length 1e12, whose scale-relative stop keeps it from ending at its
seed, the incoherent
E_J = 0 chain, a chain at E_c = 1e300, E_J = 1e-300, which exits 2
because the oscillator oracle's sigma_0 overflows, a chain sized by its
junction geometry, four runs
configured by --config files (a gap sweep, a gap sweep whose --points flag
beats the file's points key, an overlap with the negative value dphi = -1,
and a physical-unit phase diagram whose keys override the defaults,
the unit-mode default of --ec among them), cold single-point solves at the pairing
threshold and deep on the BEC side (at 3 U_c, at n = 1e-30, whose gap is
near the resolution floor, and at 1e6 U_c, whose mu is near -1e12 eps0),
the deep-BCS sweep at n = 1e-4, the same sweep from 0.1 U_c, whose first
points have a gap below resolution, a cold solve at 0.1 U_c, n = 0.3,
which pins the free-gas verdict for a gap below the resolution floor
(there the polish from the crossover seed can meet both tolerances at
Delta0 = 2e-16 eps0, which must still read as the free gas), and two
phase diagrams at E_c = 1e300,
whose boundary G* lies near 1e151 and, at n = 1e-4, near 4e153, an eta
run on a free gas, which exits 2 because no sampled mode is paired, and
a physical eta run at k0 = 30/Angstrom that exercises the eV scale
factor), all in one process, and prints one line per output:

    <argv>  <file>  <sha256>

for each CSV, the same for each JSON sidecar with `wall_clock_s` and
`config.out` removed (the only fields that legitimately differ between two
runs of the same code), `<argv>  exit  <code>` for each run, and
`<argv>  stdout  <sha256>` and `<argv>  stderr  <sha256>` for what the run
printed, with its temporary output directory replaced by `<out>`.  The
set also holds `checks --list`, which writes nothing, and a gap sweep
with u-min above u-max, which exits 3.  Two checkouts produce the same
outputs exactly when their digests are equal:

    python3 tools/csv_digest.py > new.txt
    python3 tools/csv_digest.py --src ../other/src > old.txt
    diff old.txt new.txt

--src selects the `bcsbec` package to run (default: src/ of this checkout).
Given twice, it runs the set with both packages, one after the other,
and compares their CSVs by value instead of printing hashes:

    python3 tools/csv_digest.py --src ../other/src --src src

prints one line per CSV column of each run, `<argv>  <file>  <column>
max_rel  <x>`, with x the largest relative difference |a - b|/max(|a|,
|b|) between the two sides' cells (0 where they are equal, NaN against
NaN included, and inf for text that differs or a column missing on one
side).  A residual column (its name starts with `residual`) also gets
`max_abs  <a>  <b>`, the largest |value| on each side, since at
round-off its relative change means nothing.  The last line gives the
largest difference over every non-residual column.
The whole set runs in about 1 s on a 2-vCPU x86-64 VM.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

# Config files written into the temporary directory before the runs.  An
# argv entry equal to a file name here is replaced by that file's path when
# the run starts, so the printed argv carries no temporary path.
CONFIG_FILES = {
    "sweep.cfg": "points = 3\nu-max = 2\n",
    "points4.cfg": "points = 4\n",
    "overlap.cfg": "dphi = -1\nm-max = 20\n",
    "diagram.cfg": "ec = 80\ng-min = 5e-4\nu-points = 3\ng-points = 3\n",
}

UNIT_AWARE = (
    ["phase-diagram"],
    ["eta"],
    ["chain", "--ec", "1", "--ej", "4"],
)

INVOCATIONS = (
    ["gap-sweep"],
    *([*argv, "--units", units] for argv in UNIT_AWARE
      for units in ("dimensionless", "physical")),
    ["bound-state"],
    ["bound-state", "--u", "0.8"],
    ["bound-state", "--u", "1"],
    ["chain", "--ec", "1", "--ej", "0"],
    ["chain", "--ec", "1e300", "--ej", "1e-300"],
    ["chain", "--ej", "3", "--epsilon-r", "10", "--area-um2", "0.1", "--spacing-nm", "2",
     "--units", "physical"],
    ["overlap"],
    ["oracle"],
    ["oracle", "--modes", "12", "--seed", "3"],
    ["pegg-barnett"],
    ["pegg-barnett", "--s", "64", "--rungs", "5"],
    ["pegg-barnett", "--s", "512", "--omega", "64", "--rungs", "2"],
    ["phase-lock", "--seed", "6"],
    ["phase-lock", "--seed", "20"],
    ["phase-lock", "--seed", "1"],
    ["phase-lock", "--sign", "repulsive", "--seed", "3"],
    ["phase-lock", "--modes", "2", "--sign", "repulsive", "--seed", "4"],
    ["phase-lock", "--max-steps", "5"],
    ["phase-lock", "--step", "1e300"],
    ["phase-lock", "--seed", "1234", "--length", "1e12"],
    ["checks"],
    ["gap-sweep", "--config", "sweep.cfg"],
    ["gap-sweep", "--config", "points4.cfg", "--points", "2"],
    ["overlap", "--config", "overlap.cfg"],
    ["phase-diagram", "--units", "physical", "--config", "diagram.cfg"],
    ["gap-sweep", "--points", "1", "--u-min", "1", "--u-max", "1"],
    ["gap-sweep", "--points", "1", "--u-min", "3", "--u-max", "3", "--n", "0.003"],
    ["gap-sweep", "--n", "1e-30", "--u-min", "2", "--u-max", "2", "--points", "1"],
    ["gap-sweep", "--n", "0.1", "--u-min", "1e6", "--u-max", "1e6", "--points", "1"],
    ["gap-sweep", "--n", "0.0001"],
    ["gap-sweep", "--u-min", "0.1", "--n", "1e-4"],
    ["gap-sweep", "--points", "1", "--u-min", "0.1", "--u-max", "0.1", "--n", "0.3"],
    ["phase-diagram", "--ec", "1e300", "--u-points", "1", "--g-points", "2"],
    ["phase-diagram", "--ec", "1e300", "--n", "1e-4", "--u-points", "1", "--g-points", "2"],
    ["eta", "--u", "0.5", "--n", "1e-9"],
    ["eta", "--units", "physical", "--k0", "30"],
    ["checks", "--list"],
    ["gap-sweep", "--u-min", "2", "--u-max", "1"],
)


def _sidecar_digest(path: Path) -> str:
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta.pop("wall_clock_s", None)
    meta.get("config", {}).pop("out", None)
    text = json.dumps(meta, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_all(src, root: Path):
    """Run every invocation with the bcsbec package in src, writing under root.

    Yields (label, exit code, stdout, stderr, out directory) per run, the
    out directory replaced by `<out>` in both streams.  Any bcsbec already
    imported is dropped first, so two trees run one after the other in one
    process.
    """
    for name in [m for m in sys.modules if m == "bcsbec" or m.startswith("bcsbec.")]:
        del sys.modules[name]
    path = str(Path(src).resolve())
    sys.path.insert(0, path)
    try:
        from bcsbec.cli import main as cli_main
    finally:
        sys.path.remove(path)
    root.mkdir()
    for name, text in CONFIG_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    for i, run in enumerate(INVOCATIONS):
        out = root / f"run{i:02d}"
        argv = [str(root / arg) if arg in CONFIG_FILES else arg for arg in run]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main([*argv, "--out", str(out)])
        yield (" ".join(run), code, *(text.getvalue().replace(str(out), "<out>")
                                      for text in (stdout, stderr)), out)


def _digest(runs) -> None:
    """Print the exit code, stream hashes and output file hashes of each run."""
    for label, code, stdout, stderr, out in runs:
        print(f"{label}  exit  {code}")
        for stream, text in (("stdout", stdout), ("stderr", stderr)):
            print(f"{label}  {stream}  {hashlib.sha256(text.encode('utf-8')).hexdigest()}")
        for path in sorted(out.glob("*")) if out.exists() else ():
            if path.suffix == ".csv":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                digest = _sidecar_digest(path)
            print(f"{label}  {path.name}  {digest}")


def _relative_difference(a: str, b: str) -> float:
    """|x - y|/max(|x|, |y|) for two CSV cells; 0 when equal, inf when not comparable."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _largest_magnitude(cells) -> float:
    """The largest |value| among numeric cells, skipping NaN and text; NaN if none is left."""
    values = []
    for cell in cells:
        with contextlib.suppress(ValueError):
            values.append(abs(float(cell)))
    return max((v for v in values if not math.isnan(v)), default=math.nan)


def _read_columns(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _compare(old_runs, new_runs) -> None:
    """Print each CSV column's largest relative difference between two trees' runs.

    A residual column (its name starts with `residual`) also gets the
    largest |value| on each side, since at round-off its relative change
    says nothing.  A column missing on one side, or of another length,
    reads inf.  The last line is the largest difference over every
    non-residual column.
    """
    worst = 0.0
    for (label, *_, old_out), (_, *_, new_out) in zip(old_runs, new_runs):
        names = sorted({p.name for out in (old_out, new_out) if out.exists()
                        for p in out.glob("*.csv")})
        for name in names:
            sides = [_read_columns(out / name) if (out / name).exists() else {}
                     for out in (old_out, new_out)]
            for column in dict.fromkeys([*sides[0], *sides[1]]):
                old, new = (side.get(column) for side in sides)
                if old is None or new is None or len(old) != len(new):
                    diff = math.inf
                else:
                    diff = max(map(_relative_difference, old, new), default=0.0)
                line = f"{label}  {name}  {column}  max_rel  {diff:.3g}"
                if column.startswith("residual"):
                    line += "  max_abs  " + "  ".join(
                        f"{_largest_magnitude(cells or ()):.3g}" for cells in (old, new))
                else:
                    worst = max(worst, diff)
                print(line)
    print(f"all  non-residual columns  max_rel  {worst:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="directory holding the bcsbec package to run (default: src/ of "
                             "this checkout); given twice, compare the two trees' CSVs by value")
    args = parser.parse_args(argv)
    srcs = args.src or [str(Path(__file__).resolve().parents[1] / "src")]
    if len(srcs) > 2:
        parser.error("--src is given at most twice")
    with tempfile.TemporaryDirectory() as tmp:
        if len(srcs) == 1:
            _digest(_run_all(srcs[0], Path(tmp) / "run"))
        else:
            _compare(*(list(_run_all(src, Path(tmp) / f"tree{i}")) for i, src in enumerate(srcs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
