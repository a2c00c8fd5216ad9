"""Command-line contract: exit codes, files, config handling, determinism."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bcsbec.diagram
from bcsbec.checks import CHECK_NAMES
from bcsbec.cli import _Range, build_parser, main
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
    assert meta["unit_mode"] == "dimensionless"
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
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gap-sweep", "--points", "3", "--out", str(a)]) == 0
    assert run(["gap-sweep", "--points", "3", "--out", str(b)]) == 0
    assert (a / "gap_sweep.csv").read_bytes() == (b / "gap_sweep.csv").read_bytes()


def test_bound_state_below_threshold_empty_cell(tmp_path):
    assert run(["bound-state", "--u", "0.8", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bound_state.csv").read_text().splitlines()
    assert lines[1].endswith(",0,")


def test_bound_state_at_threshold_is_zero(tmp_path):
    assert run(["bound-state", "--u", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bound_state.csv").read_text().splitlines()
    assert lines[1] == "1,1,0"


def test_invalid_configuration_exits_three(tmp_path):
    assert run(["gap-sweep", "--points", "0", "--out", str(tmp_path)]) == 3
    assert run(["gap-sweep", "--u-min", "3.0", "--u-max", "1.0"]) == 3
    assert run(["phase-diagram", "--g-points", "0"]) == 3
    assert run(["chain", "--ej", "1.0"]) == 3  # E_c unspecified
    assert run(["oracle", "--modes", "99"]) == 3
    assert run(["no-such-command"]) == 3
    assert run([]) == 3
    assert run(["gap-sweep", "--points", "xyz"]) == 3
    assert run(["gap-sweep", "--tol-gap", "-1.0"]) == 3


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
    ["checks", "--pegg-barnett-s", "0"],
    ["checks", "--pegg-barnett-omega", "-1"],
    ["bound-state", "--u", "nan"],
    ["bound-state", "--u", "inf"],
    ["bound-state", "--k0", "-1"],
    ["oracle", "--dphi", "inf"],
    ["oracle", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=[" ".join(argv) for argv in BAD_VALUES])
def test_out_of_range_value_exits_three(tmp_path, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 3
    assert not out.exists()


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
    with contextlib.redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert run([*argv, "--out", str(out)]) == 3
    assert exc.value.code == 3
    assert "need a finite" in err.getvalue()
    assert not out.exists()


def test_non_convergence_exits_two(tmp_path):
    code = run(["phase-lock", "--modes", "3", "--seed", "0", "--max-steps", "5",
                "--out", str(tmp_path)])
    assert code == 2


def test_numeric_failure_exits_two(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise QuadratureError("panel budget exhausted")

    monkeypatch.setattr("bcsbec.cli.sweep_coupling", fail)
    assert run(["gap-sweep", "--out", str(tmp_path)]) == 2
    assert "panel budget exhausted" in capsys.readouterr().err


# finite in-range flags whose E_b overflows or whose capacitance underflows
@pytest.mark.parametrize("argv, message", [
    (["bound-state", "--u", "1e300"], "not representable"),
    (["eta", "--u", "1e300"], "not representable"),
    (["chain", "--ej", "1", "--epsilon-r", "1e-300", "--area-um2", "1e-300",
      "--spacing-nm", "1e300"], "underflows"),
])
def test_unrepresentable_energy_exits_two(tmp_path, argv, message, capsys):
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a finite in-range --k0 whose density n k0^3 overflows
@pytest.mark.parametrize("argv", [
    ["gap-sweep", "--points", "1"],
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
    assert "not representable" in capsys.readouterr().err
    rows = (tmp_path / "phase_diagram.csv").read_text().splitlines()[1:]
    assert [row.split(",")[7:] for row in rows] == [["BCS", "local", "1"]] * 2
    [row] = (tmp_path / "boundary.csv").read_text().splitlines()[1:]
    assert row.split(",")[0] == "0.5" and row.split(",")[2:] == ["", ""]
    assert (tmp_path / "phase_diagram.meta.json").exists()


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
      "variance_gaussian_form", "factor_discrepancy", "coherence", "oscillator_oracle"}),
    (["phase-lock", "--seed", "6"], "phase_lock", {"descent_tol": 1e-10},
     {"gradient_norm", "steps", "converged", "equal_phase_residual", "phase_spread",
      "min_amplitude"}),
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


# flags that some subcommands take and these ones never read, and the two
# Pegg-Barnett inputs of the calibrated checks
FOREIGN_OPTIONS = [
    ["overlap", "--tol-gap", "1e-3"],
    ["gap-sweep", "--seed", "1"],
    ["pegg-barnett", "--units", "physical"],
    ["bound-state", "--tol-number", "1e-3"],
    ["checks", "--pegg-barnett-s", "32"],
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


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert run(["gap-sweep", "--config", str(cfg)]) == 3
    cfg.write_text("points\n")
    assert run(["gap-sweep", "--config", str(cfg)]) == 3
    assert run(["gap-sweep", "--config", str(tmp_path / "missing.cfg")]) == 3


def test_checks_list_names_all_seven(capsys):
    assert run(["checks", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("overlap-decay", "eta-oracle", "number-phase", "pegg-barnett",
                 "phase-lock", "oscillator-oracle", "odlro-slope"):
        assert name in out


def test_overlap_csv(tmp_path):
    assert run(["overlap", "--m-max", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "overlap.csv").read_text().splitlines()
    assert lines[0] == "M,bcs_re,bcs_im,bcs_abs,bcs_rate,bec_abs"
    assert len(lines) == 4


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


def test_physical_units_metadata(tmp_path):
    code = run(["phase-diagram", "--units", "physical", "--u-points", "2",
                "--g-points", "2", "--out", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "phase_diagram.meta.json").read_text())
    assert meta["unit_mode"] == "physical"
    assert meta["results"]["energy_unit"] == "eV"


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bcsbec.cli", "bound-state", "--u", "1.5",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "E_b" in proc.stdout


# Imports bcsbec.cli, runs every gap-side subcommand in the same process and
# prints the scipy modules loaded after the import and after each run.
_SCIPY_PROBE = """
import json, sys
import bcsbec.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

report = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    code = bcsbec.cli.main([*argv, "--out", sys.argv[2]])
    report[" ".join(argv)] = (code, loaded())
print(json.dumps(report))
"""


def test_gap_side_never_loads_scipy(tmp_path):
    runs = [
        ["gap-sweep", "--points", "3"],
        ["bound-state"],
        ["phase-diagram", "--u-points", "2", "--g-points", "2"],
        ["eta"],
        # E_J = 0 skips the oscillator oracle, the only chain code using scipy
        ["chain", "--ej", "0", "--epsilon-r", "10", "--area-um2", "1", "--spacing-nm", "2"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report.pop("import") == []
    assert report == {" ".join(argv): [0, []] for argv in runs}
