"""Command-line contract: exit codes, files, config handling, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsbec.diagram
from bcsbec.checks import CHECK_NAMES, CheckResult
from bcsbec import __version__
from bcsbec.coherent import bcs_overlap, bec_overlap
from bcsbec.cli import _command_parser, _Range, build_parser, main
from bcsbec.core import eps0_ev
from bcsbec.quadrature import QuadratureError


def run(argv):
    return main(list(argv))


def test_gap_sweep_writes_csv_and_meta(tmp_path):
    out = tmp_path / "run"
    code = run(["gap-sweep", "--points", "2", "--out", str(out)])
    assert code == 0
    csv_path = out / "gap_sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "U_over_Uc,mu_over_epsF,Delta0_over_epsF,Delta0_over_eps0,"
        "residual_gap,residual_number,converged"
    )
    assert len(lines) == 3
    meta = json.loads((out / "gap_sweep.meta.json").read_text())
    assert meta["config"]["command"] == "gap-sweep"
    assert meta["config"]["points"] == 2
    assert "config" not in meta["config"] and "started" not in meta["config"]
    assert "unit_mode" not in meta  # every column is a ratio, the same in any unit
    assert meta["files"]["gap_sweep.csv"]["sha256"]
    assert meta["wall_clock_s"] >= 0.0


def test_single_point_sweep(tmp_path):
    code = run(["gap-sweep", "--points", "1", "--u-min", "2.0", "--u-max", "2.0",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "gap_sweep.csv").read_text().splitlines()
    assert len(lines) == 2


def test_gap_below_resolution_converges_as_the_free_gas(tmp_path):
    # deep in BCS the first points have a gap below resolution: each is a
    # converged row with Delta0 = 0 and mu = eps_F exactly
    assert run(["gap-sweep", "--u-min", "0.1", "--n", "1e-4", "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in
            (tmp_path / "gap_sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 50 and all(row[6] == "1" for row in rows)
    free = [row for row in rows if float(row[2]) == 0.0]
    assert free and all(row[1] == "1" and row[4] == "nan" for row in free)
    # the fifth point, at U/U_c = 0.418, resolves a gap of 1.6e-7 eps_F
    assert float(rows[4][3]) == pytest.approx(3.3131e-9, rel=1e-4)


@pytest.mark.parametrize("n, ratio", [("1e-30", "2"), ("0.1", "1e6"), ("0.02", "1e20"),
                                      ("0.02", "1e50")])
def test_deep_bec_single_point_converges(tmp_path, n, ratio):
    # a gap of 1.4e-14 eps0, near the resolution floor, and mu near -E_b/2
    # = -1e12, -1e40 and -1e100 eps0, more than 1e11 eps_F in magnitude:
    # all converge from the molecular-limit seed, without an overflow on
    # the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["gap-sweep", "--n", n, "--u-min", ratio, "--u-max", ratio, "--points", "1",
                    "--out", str(tmp_path)]) == 0
    [row] = (tmp_path / "gap_sweep.csv").read_text().splitlines()[1:]
    fields = row.split(",")
    assert fields[6] == "1"
    assert abs(float(fields[4])) <= 1e-10 and abs(float(fields[5])) <= 1e-8


def test_phase_diagram_passes_its_tolerances_to_the_solver(tmp_path, monkeypatch):
    seen = []
    solve = bcsbec.diagram.solve_self_consistent

    def recording(*args, **kwargs):
        seen.append((kwargs["tol_gap"], kwargs["tol_number"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(bcsbec.diagram, "solve_self_consistent", recording)
    assert run(["phase-diagram", "--u-points", "2", "--g-points", "2", "--tol-gap", "1e-3",
                "--tol-number", "2e-3", "--out", str(tmp_path)]) == 0
    assert seen == [(1e-3, 2e-3)] * 2


def test_determinism_byte_identical(tmp_path):
    # a fixed list of calls, run twice in one process, where each subcommand
    # parser is shared between the two runs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 3\nu-max = 2\n")
    argvs = (["gap-sweep", "--points", "3"], ["gap-sweep", "--config", str(cfg)],
             ["bound-state", "--u", "3"], ["overlap", "--m-max", "20"],
             ["oracle", "--modes", "4"], ["chain", "--ec", "1", "--ej", "4"],
             ["phase-lock", "--seed", "6"])

    def csv_bytes(out):
        for i, argv in enumerate(argvs):
            assert run([*argv, "--out", str(out / str(i))]) == 0, argv
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}

    first = csv_bytes(tmp_path / "first")
    assert len(first) == len(argvs)
    assert csv_bytes(tmp_path / "second") == first


def test_bound_state_below_threshold_empty_cell(tmp_path):
    assert run(["bound-state", "--u", "0.8", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bound_state.csv").read_text().splitlines()
    assert lines[1].endswith(",0,")


def test_bound_state_at_threshold_is_zero(tmp_path):
    assert run(["bound-state", "--u", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bound_state.csv").read_text().splitlines()
    assert lines[1] == "1,1,0"


def test_invalid_configuration_exits_three(tmp_path, capsys):
    assert run(["gap-sweep", "--points", "0", "--out", str(tmp_path)]) == 3
    assert run(["gap-sweep", "--u-min", "3.0", "--u-max", "1.0"]) == 3
    assert run(["phase-diagram", "--g-points", "0"]) == 3
    assert run(["chain", "--ej", "1.0"]) == 3  # E_c unspecified
    assert run(["oracle", "--modes", "99"]) == 3
    assert run(["no-such-command"]) == 3
    assert run([]) == 3
    assert run(["gap-sweep", "--points", "xyz"]) == 3
    assert run(["gap-sweep", "--tol-gap", "-1.0"]) == 3
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["gap-sweep", "--poin", "2", "--out", str(out)]) == 3  # never abbreviated
    # an unknown flag is the subcommand's error, shown with its usage
    err = capsys.readouterr().err
    assert err.startswith("usage: bcsbec gap-sweep ")
    assert "bcsbec gap-sweep: error: unrecognized arguments: --poin 2" in err
    # the geometry gives E_c in eV, which only physical mode reads as such
    assert run(["chain", "--ej", "3", "--epsilon-r", "10", "--area-um2", "0.1",
                "--spacing-nm", "2", "--out", str(out)]) == 3
    assert not out.exists()


COMMANDS = ("gap-sweep", "bound-state", "phase-diagram", "overlap", "eta", "oracle",
            "pegg-barnett", "chain", "phase-lock", "checks")


def _actions(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices) for a in parser._actions]


@pytest.mark.parametrize("name", COMMANDS)
def test_one_declaration_two_parsers(name):
    # the parser a call builds for its subcommand is the full tree's one,
    # built once per process
    one, tree = _command_parser(name), build_parser()[1][name]
    assert _command_parser(name) is one
    assert one.prog == tree.prog == f"bcsbec {name}"
    assert one.format_help() == tree.format_help()
    assert _actions(one) == _actions(tree)


def test_a_subcommand_call_builds_only_its_parser(tmp_path, monkeypatch):
    def full_tree():
        raise AssertionError("the full command tree was built")

    monkeypatch.setattr("bcsbec.cli.build_parser", full_tree)
    assert run(["bound-state", "--u", "2", "--out", str(tmp_path / "bound")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 2\n")
    assert run(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0


def test_a_config_file_does_not_leak_into_the_next_call(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 2\n")
    assert run(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert run(["gap-sweep", "--out", str(tmp_path / "b")]) == 0
    for out, points in (("a", 2), ("b", 50)):
        meta = json.loads((tmp_path / out / "gap_sweep.meta.json").read_text())
        assert meta["config"]["points"] == points


def test_a_config_error_does_not_prefix_the_next_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("points = 0\n")
    assert run(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert f"bcsbec gap-sweep: error: {cfg}:1: " in capsys.readouterr().err
    assert run(["gap-sweep", "--points", "0", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "bcsbec gap-sweep: error: argument --points: " in err
    assert str(cfg) not in err


def test_top_level_paths_keep_their_contract(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out == f"{__version__}\n"
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bcsbec [-h] [--version]")
    assert all(f"\n    {name} " in out for name in COMMANDS)
    # no subcommand, an unknown one, or a flag before it: the top-level usage
    for argv in ([], ["no-such-command"], ["--out", "x", "gap-sweep"],
                 ["--units", "bound-state", "--u", "40"]):
        assert run(argv) == 3, argv
        assert capsys.readouterr().err.startswith("usage: bcsbec [-h] [--version]"), argv


# flag values outside their declared range: the argparse type must reject
# each before a library ValueError (exit 2) or a silent accept (exit 0)
BAD_VALUES = [
    *([command, "--n", value] for command in ("gap-sweep", "eta", "phase-diagram")
      for value in ("0", "-1")),
    ["gap-sweep", "--tol-gap", "nan"],
    ["gap-sweep", "--u-max", "nan"],
    ["overlap", "--alpha", "-1"],
    ["pegg-barnett", "--omega", "0"],
    ["pegg-barnett", "--omega", "-1"],
    ["chain", "--epsilon-r", "-1", "--area-um2", "1", "--spacing-nm", "1", "--ej", "1"],
    ["phase-lock", "--step", "-1"],
    ["phase-lock", "--tol", "-1"],
    ["phase-lock", "--max-steps", "0"],
    ["phase-lock", "--length", "-1"],
    ["phase-lock", "--step", "nan"],
    ["phase-lock", "--length", "0"],
    ["checks", "--seed", "-1"],
    ["pegg-barnett", "--s", "0"],
    ["pegg-barnett", "--rungs", "0"],
    ["bound-state", "--u", "nan"],
    ["bound-state", "--u", "inf"],
    ["oracle", "--dphi", "inf"],
    ["oracle", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=[" ".join(argv) for argv in BAD_VALUES])
def test_out_of_range_value_exits_three(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 3
    assert not out.exists()
    # a flag the subcommand does not take would exit 3 before any range check
    assert "unrecognized arguments" not in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("gap-sweep", "points = 0"),
    ("gap-sweep", "n = nan"),
    ("pegg-barnett", "omega = -1"),
])
def test_config_file_values_are_range_checked(tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["overlap", "--theta=0"],
    ["overlap", f"--theta={0.5 * math.pi!r}"],
    ["overlap", "--alpha=0"],
    ["phase-diagram", "--g-min=0"],
    ["chain", "--ej=0"],
    ["chain", "--segments=2"],
    ["chain", "--delta-bar=-1"],
    ["oracle", "--modes=12"],
    ["phase-lock", "--modes=6"],
])
def test_range_edges_parse(argv):
    parser, _ = build_parser()
    parser.parse_args(argv)


RANGED_FLAGS = [
    (command, action.option_strings[0], action.type)
    for command, sub in build_parser()[1].items()
    for action in sub._actions
    if isinstance(action.type, _Range)
]


@st.composite
def out_of_range_flags(draw):
    command, flag, bounds = draw(st.sampled_from(RANGED_FLAGS))
    if bounds.kind is int:
        values = [st.integers(max_value=bounds.lo - 1)]
        if bounds.hi < math.inf:
            values.append(st.integers(min_value=bounds.hi + 1))
    else:
        values = [st.sampled_from(["nan", "inf", "-inf", "1e400"])]
        finite = {"allow_nan": False, "allow_infinity": False}
        if bounds.lo > -math.inf:
            top = bounds.lo if bounds.open_lo else math.nextafter(bounds.lo, -math.inf)
            values.append(st.floats(max_value=top, **finite).map(repr))
        if bounds.hi < math.inf:
            values.append(st.floats(min_value=math.nextafter(bounds.hi, math.inf),
                                    **finite).map(repr))
    return [command, f"{flag}={draw(st.one_of(values))}"]


@given(argv=out_of_range_flags())
def test_any_out_of_range_flag_exits_three_at_parse_time(tmp_path_factory, argv):
    parser, _ = build_parser()
    out = tmp_path_factory.getbasetemp() / "never-written"
    # the same value as a config key
    command, flag = argv
    cfg = tmp_path_factory.getbasetemp() / "drawn.cfg"
    cfg.write_text(flag[2:].replace("=", " = ", 1) + "\n")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert run([*argv, "--out", str(out)]) == 3
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert exc.value.code == 3
    assert err.getvalue().count("need a finite") == 3
    assert not out.exists()


def test_non_convergence_exits_two(tmp_path, capsys):
    code = run(["phase-lock", "--modes", "3", "--seed", "0", "--max-steps", "5",
                "--out", str(tmp_path)])
    assert code == 2
    assert "phase-lock: budget exhausted" in capsys.readouterr().err
    meta = json.loads((tmp_path / "phase_lock.meta.json").read_text())
    assert meta["results"]["end_state"] == "budget exhausted"


@pytest.mark.parametrize("argv, end_state, pattern, newton_steps", [
    (["--seed", "6"], "locked", "+++", 3),
    (["--modes", "3", "--seed", "1"], "locked, dead modes", "+0-", 3),
])
def test_phase_lock_reports_its_end_state(tmp_path, capsys, argv, end_state, pattern,
                                          newton_steps):
    assert run(["phase-lock", *argv, "--out", str(tmp_path)]) == 0
    assert f"phase-lock: {end_state} [{pattern}]" in capsys.readouterr().out
    results = json.loads((tmp_path / "phase_lock.meta.json").read_text())["results"]
    assert results["end_state"] == end_state
    assert results["sign_pattern"] == pattern
    assert results["newton_steps"] == newton_steps


def test_a_long_box_does_not_stop_at_its_seed(tmp_path, capsys):
    # --tol is relative to the gradient scale, which falls as 1/L; an
    # absolute stop ended this run after 1 evaluation, "stationary, unlocked"
    argv = ["phase-lock", "--modes", "3", "--seed", "1234", "--length", "1e12"]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    assert "phase-lock: locked [+-+]" in capsys.readouterr().out
    results = json.loads((tmp_path / "phase_lock.meta.json").read_text())["results"]
    assert results["steps"] == 37 and results["newton_steps"] == 2


def test_numeric_failure_exits_two(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise QuadratureError("panel budget exhausted")

    monkeypatch.setattr("bcsbec.cli.sweep_coupling", fail)
    assert run(["gap-sweep", "--out", str(tmp_path)]) == 2
    assert "panel budget exhausted" in capsys.readouterr().err


# finite in-range flags whose E_b overflows, whose capacitance underflows, or
# whose box levels would overflow the phase-lock gradient norms
@pytest.mark.parametrize("argv, message", [
    (["bound-state", "--u", "1e300"], "not representable"),
    (["eta", "--u", "1e300"], "not representable"),
    (["chain", "--ej", "1", "--epsilon-r", "1e-300", "--area-um2", "1e-300",
      "--spacing-nm", "1e300", "--units", "physical"], "underflows"),
    (["phase-lock", "--length", "1e-80"], "whose squares overflow"),
])
def test_unrepresentable_energy_exits_two(tmp_path, argv, message, capsys):
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a finite in-range --k0 whose density n k0^3 overflows
@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--u-points", "1", "--g-points", "2"],
    ["eta"],
])
def test_unrepresentable_density_exits_three(tmp_path, argv, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--units", "physical", "--k0", "1e300", "--out", str(out)]) == 3
    assert "not a positive finite number" in capsys.readouterr().err
    assert not out.exists()


def test_huge_coupling_leaves_diagram_cells_unlabeled(tmp_path):
    assert run(["phase-diagram", "--u-max", "1e300", "--u-points", "2", "--g-points", "2",
                "--out", str(tmp_path)]) == 2
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
    pairing_and_converged = [(row.split(",")[7], row.split(",")[9]) for row in rows]
    assert pairing_and_converged == [("BCS", "1")] * 2 + [("", "0")] * 2


def test_huge_charging_energy_still_locates_the_boundary(tmp_path):
    # G* = sqrt(4 E_c/Delta0) ~ 1.6e151 lies far out, but it is representable
    assert run(["phase-diagram", "--ec", "1e300", "--u-points", "1", "--g-points", "2",
                "--out", str(tmp_path)]) == 0
    [row] = (tmp_path / "boundary.csv").read_text().splitlines()[1:]
    g_star, g_bis = (float(x) for x in row.split(",")[2:])
    assert 1e150 < g_star < math.inf
    assert abs(g_bis - g_star) <= 2e-9 * g_star


def test_huge_charging_energy_at_a_tiny_gap(tmp_path):
    # Delta0 = 2.6e-7 puts G* = sqrt(4 E_c/Delta0) at 3.9e153, where G^2 U
    # overflows but E_J = G^2 Delta0/2 and sigma_phi2 = sqrt(2 E_c/E_J) do not
    assert run(["phase-diagram", "--ec", "1e300", "--n", "1e-4", "--u-points", "1",
                "--g-points", "2", "--out", str(tmp_path)]) == 0
    [row] = (tmp_path / "boundary.csv").read_text().splitlines()[1:]
    g_star, g_bis = (float(x) for x in row.split(",")[2:])
    assert 3.9e153 < g_star < 4e153
    assert abs(g_bis - g_star) <= 1e-9 * g_star
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(row.split(",")[6])) for row in rows)


def test_unrepresentable_boundary_leaves_its_fields_empty(tmp_path, capsys):
    # E_J = 2 E_c overflows, so G* cannot be localized: the cells are labeled
    # and written, the boundary row keeps U and mu with empty G* fields, and
    # the run exits 2
    assert run(["phase-diagram", "--ec", "1e308", "--u-points", "1", "--g-points", "2",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "not representable" in err and "E_c = 1e+308 eps0" in err
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
    assert [row.split(",")[7:] for row in rows] == [["BCS", "local", "1"]] * 2
    [row] = (tmp_path / "boundary.csv").read_text().splitlines()[1:]
    assert row.split(",")[0] == "0.5" and row.split(",")[2:] == ["", ""]
    assert (tmp_path / "phase_diagram.meta.json").exists()


def test_unrepresentable_boundary_reports_e_c_as_entered(tmp_path, capsys):
    # physical mode solves at E_c/eps0(k0) but names E_c in eV, as the CSV
    # echoes it; at k0 = 3e-4 that quotient is about 1.5e308 eps0 and E_J
    # overflows before reaching 2 E_c
    assert run(["phase-diagram", "--units", "physical", "--k0", "3e-4", "--ec", "5e307",
                "--u-points", "1", "--g-points", "2", "--out", str(tmp_path)]) == 2
    assert "E_c = 5e+301 eV: G* is not representable" in capsys.readouterr().err
    [row] = (tmp_path / "boundary.csv").read_text().splitlines()[1:]
    assert row.split(",")[2:] == ["", ""]


def test_bug_propagates_from_main(tmp_path, monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr("bcsbec.cli.sweep_coupling", bug)
    with pytest.raises(TypeError):
        run(["gap-sweep", "--out", str(tmp_path)])


def test_unwritable_output_exits_three(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["bound-state", "--out", str(blocker / "sub")]) == 3


SOLVER_TOLERANCES = {"tol_gap": 1e-10, "tol_number": 1e-8}

# (argv, sidecar stem, tolerances, results keys or None for no results block)
SIDECAR_CASES = [
    (["gap-sweep", "--points", "2"], "gap_sweep", SOLVER_TOLERANCES, None),
    (["bound-state"], "bound_state", {}, None),
    (["phase-diagram", "--u-points", "2", "--g-points", "2"], "phase_diagram",
     SOLVER_TOLERANCES, {"energy_unit"}),
    (["overlap", "--m-max", "3"], "overlap", {}, {"rate_exact"}),
    (["eta", "--k-points", "32"], "eta", SOLVER_TOLERANCES,
     {"angle_convention", "note"}),
    (["oracle", "--modes", "4"], "oracle", {}, None),
    (["pegg-barnett", "--s", "16", "--rungs", "2"], "pegg_barnett", {}, None),
    (["chain", "--ec", "1", "--ej", "4", "--segments", "4"], "chain", {},
     {"E_c", "E_J", "energy_unit", "sigma2", "variance_oscillator",
      "variance_gaussian_form", "factor_discrepancy", "coherence"}),
    (["phase-lock", "--seed", "6"], "phase_lock", {"descent_tol": 1e-10},
     {"gradient_norm", "steps", "converged", "phase_spread", "min_amplitude",
      "newton_steps", "end_state", "sign_pattern"}),
    (["checks"], "checks", {}, set(CHECK_NAMES)),
]


@pytest.mark.parametrize("argv, stem, tolerances, results", SIDECAR_CASES,
                         ids=[case[0][0] for case in SIDECAR_CASES])
def test_sidecar_contract(tmp_path, argv, stem, tolerances, results):
    assert run([*argv, "--out", str(tmp_path)]) == 0
    meta_name = f"{stem}.meta.json"
    csvs = sorted(p.name for p in tmp_path.iterdir() if p.name != meta_name)
    assert all(name.endswith(".csv") for name in csvs)
    meta = json.loads((tmp_path / meta_name).read_text())
    assert sorted(meta["files"]) == csvs
    for name in csvs:
        data = (tmp_path / name).read_bytes()
        assert meta["files"][name] == {
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    assert meta["tolerances"] == tolerances
    # the config echoes exactly the subcommand's flags, and only a command
    # with unit modes records one
    flags = {action.dest for action in build_parser()[1][argv[0]]._actions
             if action.option_strings and action.dest not in ("help", "config")}
    assert set(meta["config"]) == flags | {"command"}
    assert meta.get("unit_mode") == ("dimensionless" if "units" in flags else None)
    if results is None:
        assert "results" not in meta
    else:
        assert set(meta["results"]) == results


# ("open" or "os.mkdir", path, flags) of each audit event under a run's
# --out, collected while a list is pushed; the hook stays installed, since
# audit hooks cannot be removed
_AUDIT_EVENTS = []


def _audit(event, args):
    if _AUDIT_EVENTS and event in ("open", "os.mkdir"):
        _AUDIT_EVENTS[-1].append((event, str(args[0]), args[2] if event == "open" else None))


sys.addaudithook(_audit)


@pytest.mark.parametrize("argv", [
    ["gap-sweep", "--points", "2"],
    ["phase-diagram", "--u-points", "2", "--g-points", "2"],
    ["checks"],
], ids=lambda argv: argv[0])
def test_outputs_are_written_in_one_pass(tmp_path, argv):
    """--out is made once, up front; no output is read back; hashes match the disk."""
    out = tmp_path / "deep" / "nested"
    events = []
    _AUDIT_EVENTS.append(events)
    try:
        assert run([*argv, "--out", str(out)]) == 0
    finally:
        _AUDIT_EVENTS.pop()
    events = [e for e in events if e[1].startswith(str(tmp_path))]
    opens = [(path, flags) for event, path, flags in events if event == "open"]
    assert opens and all(flags & os.O_ACCMODE == os.O_WRONLY for _, flags in opens), opens
    # every mkdir comes before the first file is opened
    first_open = next(i for i, e in enumerate(events) if e[0] == "open")
    assert all(e[0] == "open" for e in events[first_open:]), events
    assert out.is_dir()
    meta_name = f"{argv[0].replace('-', '_')}.meta.json"
    meta = json.loads((out / meta_name).read_text())
    assert sorted(meta["files"]) == sorted(p.name for p in out.iterdir() if p.name != meta_name)
    assert len(opens) == len(meta["files"]) + 1
    for name, entry in meta["files"].items():
        data = (out / name).read_bytes()
        assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# flags that some subcommands take and these ones never read, the two
# Pegg-Barnett inputs of the calibrated checks, the unit flags of the
# unit-free bound-state and of gap-sweep, whose CSV holds only ratios, and
# two values that would reach no output: eta's common phase, which the eta
# statistics never read, and pegg-barnett's theta0, since the commutator
# depends only on the state phase minus theta0
FOREIGN_OPTIONS = [
    ["overlap", "--tol-gap", "1e-3"],
    ["gap-sweep", "--seed", "1"],
    ["pegg-barnett", "--units", "physical"],
    ["bound-state", "--tol-number", "1e-3"],
    ["bound-state", "--units", "physical"],
    ["bound-state", "--k0", "3"],
    ["gap-sweep", "--units", "physical"],
    ["gap-sweep", "--k0", "3"],
    ["checks", "--pegg-barnett-s", "32"],
    ["eta", "--phi", "1"],
    ["pegg-barnett", "--theta0", "1"],
]


@pytest.mark.parametrize("argv", FOREIGN_OPTIONS, ids=[" ".join(a) for a in FOREIGN_OPTIONS])
def test_options_a_subcommand_does_not_read_exit_three(tmp_path, argv):
    command, flag, value = argv
    out = tmp_path / "out"
    assert run([command, flag, value, "--out", str(out)]) == 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 4\nu-max = 2.0  # inline comment\n")
    out = tmp_path / "out"
    code = run(["gap-sweep", "--config", str(cfg), "--points", "2", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "gap_sweep.meta.json").read_text())
    # the explicit flag wins, the file fills the rest
    assert meta["config"]["points"] == 2
    assert meta["config"]["u_max"] == 2.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "out"
    # keys are exactly the flags that take a value: no abbreviation, no
    # --help, no --list and no --config
    for command, line in [("gap-sweep", "nonsense = 1"), ("gap-sweep", "points"),
                          ("gap-sweep", "poin = 2"), ("gap-sweep", "help = 1"),
                          ("checks", "list = true"), ("gap-sweep", f"config = {cfg}")]:
        # a comment and a valid key first, so the bad line is the file's third
        cfg.write_text(f"# {command}\nout = {out}\n{line}\n")
        capsys.readouterr()
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 3, line
        err = capsys.readouterr().err
        assert err.startswith(f"usage: bcsbec {command} "), line
        assert f"bcsbec {command}: error: {cfg}:3: " in err, line
        key = line.split()[0]
        if key in ("nonsense", "poin", "config"):
            assert f"unknown config key {key!r}" in err, line
    assert run(["gap-sweep", "--config", str(tmp_path / "missing.cfg")]) == 3
    assert not out.exists()


def test_config_file_that_is_not_utf8_exits_three(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfepoints = 3\n")
    out = tmp_path / "out"
    assert run(["gap-sweep", "--config", str(cfg), "--out", str(out)]) == 3
    assert f"cannot read config file {cfg}" in capsys.readouterr().err
    assert not out.exists()


def test_checks_list_names_all_seven(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(["checks", "--list", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    for name in ("overlap-decay", "eta-oracle", "number-phase", "pegg-barnett",
                 "phase-lock", "oscillator-oracle", "odlro-slope"):
        assert name in out
    # listing writes nothing, not even the sidecar
    assert not out_dir.exists()


def test_failed_check_exits_one(tmp_path, monkeypatch, capsys):
    failing = CheckResult("odlro-slope", False, {"slope": 1.0}, "slope 1 above bound")
    monkeypatch.setattr("bcsbec.cli.run_checks", lambda seed: [failing])
    assert run(["checks", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL odlro-slope: slope 1 above bound\n"
    assert captured.err == "checks: FAILED ['odlro-slope']\n"
    meta = json.loads((tmp_path / "checks.meta.json").read_text())
    assert meta["results"] == {"odlro-slope": {"passed": False, "measured": {"slope": 1.0}}}


def test_overlap_csv(tmp_path):
    # from M = 2045 an M-fold product of the default factors is subnormal,
    # and a rate taken from it reads 0 from M = 2146; the closed form keeps
    # every row's rate exact
    assert run(["overlap", "--m-max", "2300", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "overlap.csv").read_text().splitlines()
    assert lines[0] == "M,bcs_re,bcs_im,bcs_abs,bcs_rate,bec_abs"
    assert len(lines) == 2301
    rate = json.loads((tmp_path / "overlap.meta.json").read_text())["results"]["rate_exact"]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert all(row[4] == rate for row in rows)
    assert rows[-1][3] == 0.0
    # the per-mode products at the default theta, dphi and alpha, up to M = 200
    theta, dphi, alpha = 0.25 * math.pi, 0.5 * math.pi, 0.3
    for m, _, _, bcs_abs, _, bec_abs in rows[:200]:
        assert bcs_abs == pytest.approx(abs(bcs_overlap(np.full(int(m), theta), dphi)),
                                        rel=1e-13)
        assert bec_abs == pytest.approx(abs(bec_overlap(np.full(int(m), alpha), dphi)),
                                        rel=1e-13)
    # an unpaired mode does not decay: its rate reads 0, not -0
    assert run(["overlap", "--theta=0", "--m-max", "1", "--out", str(tmp_path / "flat")]) == 0
    assert (tmp_path / "flat" / "overlap.csv").read_text().splitlines()[1].split(",")[4] == "0"


def test_oracle_roundtrip(tmp_path):
    assert run(["oracle", "--modes", "4", "--seed", "9", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["eta_mean_analytic"]) - float(row["eta_mean_oracle"])) < 1e-12
    assert float(row["overlap_abs_dev"]) < 1e-12


def test_chain_meta_reports_variances(tmp_path):
    assert run(["chain", "--ec", "1.0", "--ej", "4.0", "--segments", "4",
                "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "chain.meta.json").read_text())
    results = meta["results"]
    assert results["sigma2"] == pytest.approx((2.0 / 4.0) ** 0.5)
    assert results["variance_oscillator"] == pytest.approx((8.0 / 4.0) ** 0.5)
    assert results["factor_discrepancy"] is True
    assert results["coherence"] == "global"
    lines = (tmp_path / "chain.csv").read_text().splitlines()
    assert len(lines) == 5


def test_pegg_barnett_ladder(tmp_path):
    assert run(["pegg-barnett", "--s", "16", "--rungs", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "pegg_barnett.csv").read_text().splitlines()
    assert len(lines) == 3
    s_values = [int(line.split(",")[0]) for line in lines[1:]]
    assert s_values == [16, 32]


def test_eta_subcommand(tmp_path):
    assert run(["eta", "--k-points", "32", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "eta.meta.json").read_text())
    assert meta["results"]["angle_convention"] == "half-angle"


def test_eta_without_a_paired_mode_exits_two(tmp_path, capsys):
    # at U = 0.5 U_c and n = 1e-9 the solution is a free gas whose sampled
    # modes all lie above eps_F: Omega = 0 and eta is undefined
    out = tmp_path / "run"
    assert run(["eta", "--u", "0.5", "--n", "1e-9", "--out", str(out)]) == 2
    assert "Omega = 0" in capsys.readouterr().err
    assert not out.exists()


def test_physical_units_metadata(tmp_path):
    code = run(["phase-diagram", "--units", "physical", "--u-points", "2",
                "--g-points", "2", "--out", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "phase_diagram.meta.json").read_text())
    assert meta["unit_mode"] == "physical"
    assert meta["results"]["energy_unit"] == "eV"


def _csv_columns(path):
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


# the columns of each output that physical mode reports in eV
EV_COLUMNS = {"phase_diagram.csv": ("mu", "Delta0", "E_J"), "boundary.csv": ("mu",),
              "eta.csv": ("mu", "Delta0")}


@settings(max_examples=8, deadline=None)
@given(k0=st.floats(0.01, 30.0))
def test_physical_mode_is_the_dimensionless_run_times_eps0(k0):
    # the solve is the same at every k0: a physical run is the dimensionless
    # run at E_c/eps0 with its mu, Delta0 and E_J columns times eps0 in eV,
    # and the unit-free G grid is the same in both modes
    eps0 = eps0_ev(k0)
    # the physical default E_c, 50, read times 1e-6 as physical mode reads it
    e_c = 50.0 * 1e-6
    runs = [
        (["phase-diagram", "--u-points", "3", "--g-points", "2"],
         ["--ec", repr(e_c / eps0)],
         "phase_diagram.csv", "boundary.csv"),
        (["eta", "--k-points", "16"], [], "eta.csv"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, dimensionless, *names in runs:
            phys, dim = Path(tmp, "physical"), Path(tmp, "dimensionless")
            assert run([*argv, "--units", "physical", "--k0", repr(k0), "--out", str(phys)]) == 0
            assert run([*argv, *dimensionless, "--out", str(dim)]) == 0
            for name in names:
                got, want = _csv_columns(phys / name), _csv_columns(dim / name)
                assert got.keys() == want.keys()
                for column in got.keys() - {"E_c"}:
                    if column in EV_COLUMNS[name]:
                        assert [float(v) for v in got[column]] == [
                            float(v) * eps0 for v in want[column]], (name, column)
                    else:
                        assert got[column] == want[column], (name, column)


def test_physical_mode_writes_g_as_given(tmp_path):
    # G is unit-free: physical mode does not read it in micro-eV
    assert run(["phase-diagram", "--units", "physical", "--g-min", "0.01", "--g-max", "0.02",
                "--g-points", "2", "--u-points", "1", "--out", str(tmp_path)]) == 0
    assert _csv_columns(tmp_path / "phase_diagram.csv")["G"] == ("0.01", "0.02")


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bcsbec.cli", "bound-state", "--u", "1.5",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "E_b" in proc.stdout


# Imports bcsbec.cli, runs the given subcommands in the same process and
# prints the scipy modules loaded after the import and after each run, and
# the numpy.polynomial modules loaded by the import.
_SCIPY_PROBE = """
import json, sys
import bcsbec.cli

def loaded(prefix="scipy"):
    return sorted(m for m in sys.modules if m.startswith(prefix))

report = {"import": loaded(), "polynomial": loaded("numpy.polynomial")}
for argv in json.loads(sys.argv[1]):
    code = bcsbec.cli.main([*argv, "--out", sys.argv[2]])
    report[" ".join(argv)] = (code, loaded())
print(json.dumps(report))
"""


def _scipy_probe(runs, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_gap_side_never_loads_scipy(tmp_path):
    runs = [
        ["gap-sweep", "--points", "3"],
        ["bound-state"],
        ["phase-diagram", "--u-points", "2", "--g-points", "2"],
        ["eta"],
        ["chain", "--ej", "0", "--epsilon-r", "10", "--area-um2", "1", "--spacing-nm", "2",
         "--units", "physical"],
        # chain reports closed forms only; the oscillator oracle stays in checks
        ["chain", "--ec", "1", "--ej", "4"],
    ]
    report = _scipy_probe(runs, tmp_path)
    assert report.pop("import") == []
    # the quadrature rule's tables are built on first use, not at import
    assert report.pop("polynomial") == []
    assert report == {" ".join(argv): [0, []] for argv in runs}


def test_coherent_side_never_loads_scipy_sparse(tmp_path):
    # the Fock oracle applies b and b+ to state vectors, so only the
    # oscillator-oracle check loads scipy, and that is scipy.linalg
    report = _scipy_probe([["oracle", "--modes", "4"], ["overlap"], ["checks"]], tmp_path)
    assert report["oracle --modes 4"] == [0, []]
    assert report["overlap"] == [0, []]
    code, loaded = report["checks"]
    assert code == 0
    assert [m for m in loaded if m.startswith("scipy.sparse")] == []
