"""Digest the outputs of a fixed set of bcsbec CLI runs.

Runs every subcommand once with its default arguments, the unit-aware
subcommands in both unit modes, and a few fixed non-default runs (the
benchmark's five-rung Pegg-Barnett ladder, the Fock oracle at its 12-mode
cap (dimension 4096), the longest pinned phase-lock
seed, an attractive and two repulsive phase locks that end with dead modes
(each ended by the Newton finish), a phase lock from a first step of
1e300, which the step cap cuts before its first trial, the incoherent
E_J = 0 chain, a chain at E_c = 1e300, E_J = 1e-300, which exits 2
because the oscillator oracle's sigma_0 overflows, a chain sized by its
junction geometry, four runs
configured by --config files (a gap sweep, a gap sweep whose --points flag
beats the file's points key, an overlap with the negative value dphi = -1,
and a physical-unit phase diagram whose keys override the unit-mode
defaults of its energy flags), cold single-point solves at the pairing
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
The whole set runs in about 1 s on a 2-vCPU x86-64 VM.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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
    "diagram.cfg": "ec = 80\ng-min = 500\nu-points = 3\ng-points = 3\n",
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
    ["phase-lock", "--seed", "6"],
    ["phase-lock", "--seed", "20"],
    ["phase-lock", "--seed", "1"],
    ["phase-lock", "--sign", "repulsive", "--seed", "3"],
    ["phase-lock", "--modes", "2", "--sign", "repulsive", "--seed", "4"],
    ["phase-lock", "--max-steps", "5"],
    ["phase-lock", "--step", "1e300"],
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the bcsbec package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from bcsbec.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIG_FILES.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        for i, run in enumerate(INVOCATIONS):
            out = Path(tmp) / f"run{i:02d}"
            argv = [str(Path(tmp) / arg) if arg in CONFIG_FILES else arg for arg in run]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main([*argv, "--out", str(out)])
            label = " ".join(run)
            print(f"{label}  exit  {code}")
            for stream, text in (("stdout", stdout), ("stderr", stderr)):
                masked = text.getvalue().replace(str(out), "<out>")
                print(f"{label}  {stream}  {hashlib.sha256(masked.encode('utf-8')).hexdigest()}")
            for path in sorted(out.glob("*")) if out.exists() else ():
                if path.suffix == ".csv":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                else:
                    digest = _sidecar_digest(path)
                print(f"{label}  {path.name}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
