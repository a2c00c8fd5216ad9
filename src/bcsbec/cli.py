"""Command-line front end: solvers, sweeps, oracles, checks, CSV output.

Subcommands: gap-sweep, bound-state, phase-diagram, overlap, eta, oracle,
pegg-barnett, chain, phase-lock, checks.  Every run writes plot-ready CSV
plus a JSON metadata sidecar (config echo, version, unit mode, tolerances,
wall clock, CSV hashes); rerunning an identical config reproduces the CSV
bytes exactly.

Each subcommand takes only the flags it reads.  --out and --config go to
all ten; --units to gap-sweep, bound-state, phase-diagram, eta and chain;
--seed to oracle, phase-lock and checks; --tol-gap and --tol-number to the
three that solve the gap equations, gap-sweep, phase-diagram and eta.
Any other flag, or config key, is unknown and exits 3.

Configuration precedence: explicit command-line flags override values
from an optional "key = value" config file (--config), which override the
built-in defaults.  Config keys use the flag names with '-' or '_'.

Unit modes: 'dimensionless' works in the natural gap-equation units
(energies in eps0 = hbar^2 k0^2 / 2m with k0 = 1); 'physical' uses the
free-electron mass and a k0 in inverse Angstroms (default 1.41), with
energies reported in eV.  Charging and hopping energies are entered in
micro-eV in physical mode, matching the scales of junction arrays.
Densities are always entered in units of k0^3.

Exit codes: 0 success, 1 check failure, 2 solver non-convergence or a
numeric failure (RuntimeError, ValueError), 3 invalid configuration: a
flag or config value that is out of range or not finite (each numeric
flag declares its range once, as its argparse type), a bad config file or
grid, or an output file that cannot be written (OSError).  Any other
exception is a bug and propagates with a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (
    ChainGroundState,
    charging_energy,
    odlro,
    oscillator_oracle,
    coherence_classify,
)
from .coherent import (
    bcs_overlap,
    bec_overlap,
    build_fock_oracle,
    eta_statistics,
    number_phase_derivative_check,
    pegg_barnett,
    random_pair_ensemble,
    variational_phase_lock,
    PairEnsemble,
)
from .core import E_CHARGE, EPSILON_0, PhysicalParams, critical_coupling
from .diagram import critical_hopping, refine_hopping_boundary, sweep_diagram
from .gap import bound_state_energy, solve_self_consistent, sweep_coupling
from .checks import CHECK_NAMES, run_checks
from .runio import write_csv, write_meta

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_NON_CONVERGENCE = 2
EXIT_INVALID_CONFIG = 3

_EV_PER_UEV = 1e-6

# Unit-mode defaults of the energy flags that have one, in the user-facing
# unit (eps0 dimensionless, micro-eV physical).
_ENERGY_DEFAULTS = {
    "ec": {"dimensionless": 1e-5, "physical": 50.0},
    "g_min": {"dimensionless": 1e-3, "physical": 1000.0},
    "g_max": {"dimensionless": 5e-2, "physical": 50000.0},
}


class ConfigError(Exception):
    """Invalid configuration (bad flag value, bad config file, bad grid)."""


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this contract wants 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_CONFIG)


@dataclass(frozen=True)
class _Range:
    """argparse type: a finite `kind` value in [lo, hi], or (lo, hi] if open_lo.

    `_typed_config` checks config-file values with the same callable.
    """

    kind: type = float
    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False

    def __call__(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            value = math.nan
        above = self.lo < value if self.open_lo else self.lo <= value
        if not (above and value <= self.hi and -math.inf < value < math.inf):
            raise argparse.ArgumentTypeError(
                f"{text!r}: need a finite {self.kind.__name__} in {'(' if self.open_lo else '['}"
                f"{self.lo:g}, {self.hi:g}{']' if self.hi < math.inf else ')'}")
        return value


_FINITE = _Range()
_POSITIVE = _Range(lo=0.0, open_lo=True)
_NON_NEGATIVE = _Range(lo=0.0)


def _flag_groups():
    """Parent parsers of the flag sets that several subcommands share."""
    output, units, seed, tolerances = (argparse.ArgumentParser(add_help=False)
                                       for _ in range(4))
    output.add_argument("--out", default=".", help="output directory")
    output.add_argument("--config", default=None, help="key = value config file")
    units.add_argument(
        "--units",
        choices=("dimensionless", "physical"),
        default="dimensionless",
        help="unit system (default dimensionless)",
    )
    seed.add_argument(
        "--seed", type=_Range(int, 0), default=1234, help="random seed (default 1234)"
    )
    tolerances.add_argument(
        "--tol-gap", type=_POSITIVE, default=1e-10, help="gap residual tolerance"
    )
    tolerances.add_argument(
        "--tol-number", type=_POSITIVE, default=1e-8, help="number residual tolerance"
    )
    return output, units, seed, tolerances


def build_parser():
    output, units, seed, tolerances = _flag_groups()
    solver = [output, units, tolerances]
    parser = _Parser(
        prog="bcsbec",
        description="pairing crossover and phase-coherence toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gap-sweep", parents=solver, help="coupling sweep of the gap equations")
    p.add_argument("--n", type=_POSITIVE, default=2e-2, help="density in k0^3 units")
    p.add_argument("--u-min", type=_POSITIVE, default=0.5, help="lower U/U_c")
    p.add_argument("--u-max", type=_POSITIVE, default=4.0, help="upper U/U_c")
    p.add_argument("--points", type=_Range(int, 1), default=50, help="grid points")
    p.add_argument("--k0", type=_POSITIVE, default=1.41, help="k0 in 1/Angstrom (physical mode)")

    p = sub.add_parser("bound-state", parents=[output, units],
                       help="two-body bound-state energy")
    p.add_argument("--u", type=_POSITIVE, default=2.0, help="coupling in U/U_c")
    p.add_argument("--k0", type=_POSITIVE, default=1.41)

    p = sub.add_parser("phase-diagram", parents=solver, help="regime labels over (U, E_c, G)")
    p.add_argument("--n", type=_POSITIVE, default=2e-2)
    p.add_argument("--u-min", type=_POSITIVE, default=0.5)
    p.add_argument("--u-max", type=_POSITIVE, default=4.0)
    p.add_argument("--u-points", type=_Range(int, 1), default=12)
    p.add_argument("--ec", type=_POSITIVE, default=None,
                   help="charging energy (micro-eV physical, eps0 units dimensionless)")
    p.add_argument("--g-min", type=_NON_NEGATIVE, default=None, help="hopping grid start")
    p.add_argument("--g-max", type=_POSITIVE, default=None, help="hopping grid end")
    p.add_argument("--g-points", type=_Range(int, 1), default=12)
    p.add_argument("--k0", type=_POSITIVE, default=1.41)

    p = sub.add_parser("overlap", parents=[output], help="multimode overlap decay with mode count")
    p.add_argument("--theta", type=_Range(lo=0.0, hi=0.5 * math.pi), default=0.25 * math.pi,
                   help="pairing angle")
    p.add_argument("--dphi", type=_FINITE, default=0.5 * math.pi, help="phase rotation")
    p.add_argument("--alpha", type=_NON_NEGATIVE, default=0.3, help="bosonic amplitude per mode")
    p.add_argument("--m-max", type=_Range(int, 1), default=200, help="largest mode count")

    p = sub.add_parser("eta", parents=solver, help="bosonization statistics of a solved state")
    p.add_argument("--u", type=_POSITIVE, default=2.0, help="coupling in U/U_c")
    p.add_argument("--n", type=_POSITIVE, default=2e-2)
    p.add_argument("--k-max", type=_POSITIVE, default=6.0, help="grid extent in k0")
    p.add_argument("--k-points", type=_Range(int, 1), default=128)
    p.add_argument("--phi", type=_FINITE, default=0.0)
    p.add_argument("--convention", choices=("half-angle", "literal"), default="half-angle")
    p.add_argument("--k0", type=_POSITIVE, default=1.41)

    p = sub.add_parser("oracle", parents=[output, seed],
                       help="exact finite-mode oracle comparison")
    p.add_argument("--modes", type=_Range(int, 1, 12), default=8, help="pair modes (<= 12)")
    p.add_argument("--dphi", type=_FINITE, default=1.0)

    p = sub.add_parser("pegg-barnett", parents=[output], help="phase-operator commutator ladder")
    p.add_argument("--s", type=_Range(int, 1), default=64, help="base dimension minus one")
    p.add_argument("--theta0", type=_FINITE, default=0.0)
    p.add_argument("--omega", type=_POSITIVE, default=4.0, help="probe-state occupation")
    p.add_argument("--state-phase", type=_FINITE, default=None,
                   help="probe-state phase (default theta0 + pi)")
    p.add_argument("--rungs", type=_Range(int, 1), default=3, help="doubling ladder length")

    p = sub.add_parser("chain", parents=[output, units],
                       help="segment chain: variances and ODLRO decay")
    p.add_argument("--ec", type=_POSITIVE, default=None,
                   help="charging energy (micro-eV physical, eps0 units dimensionless)")
    p.add_argument("--ej", type=_NON_NEGATIVE, default=None,
                   help="Josephson energy (same unit as --ec)")
    p.add_argument("--epsilon-r", type=_POSITIVE, default=None, help="relative permittivity")
    p.add_argument("--area-um2", type=_POSITIVE, default=None, help="junction area in um^2")
    p.add_argument("--spacing-nm", type=_POSITIVE, default=None, help="junction gap in nm")
    p.add_argument("--segments", type=_Range(int, 2), default=8)
    p.add_argument("--delta-bar", type=_FINITE, default=1.0,
                   help="uniform per-segment correlation amplitude")

    p = sub.add_parser("phase-lock", parents=[output, seed],
                       help="seeded descent of the quartic free energy")
    p.add_argument("--modes", type=_Range(int, 2, 6), default=3, help="mode count (2..6)")
    p.add_argument("--sign", choices=("attractive", "repulsive"), default="attractive")
    p.add_argument("--length", type=_POSITIVE, default=10.0, help="box length")
    p.add_argument("--step", type=_POSITIVE, default=1e-2)
    p.add_argument("--tol", type=_POSITIVE, default=1e-10)
    p.add_argument("--max-steps", type=_Range(int, 1), default=100000)

    p = sub.add_parser("checks", parents=[output, seed], help="run the self-check inventory")
    p.add_argument("--list", action="store_true", help="list checks without running")

    return parser, sub.choices


# ---- config file handling ------------------------------------------------


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _typed_config(values: dict, subparser) -> dict:
    """Convert raw config strings using the subparser's option types."""
    actions = {a.dest: a for a in subparser._actions}
    typed = {}
    for key, raw in values.items():
        if key == "config" or key not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            lowered = raw.lower()
            if lowered not in ("true", "false", "0", "1"):
                raise ConfigError(f"config key {key!r}: boolean expected, got {raw!r}")
            typed[key] = lowered in ("true", "1")
            continue
        converter = action.type or str
        try:
            value = converter(raw)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {raw!r}") from exc
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"config key {key!r}: {value!r} not in {sorted(action.choices)}"
            )
        typed[key] = value
    return typed


# ---- unit helpers --------------------------------------------------------


def _make_params(cfg: argparse.Namespace) -> PhysicalParams:
    if cfg.units == "physical":
        return PhysicalParams.free_electron(k0=cfg.k0)
    return PhysicalParams.dimensionless()


def _density(cfg: argparse.Namespace, params: PhysicalParams) -> float:
    """The --n density, entered in k0^3 units, in the internal length unit."""
    try:
        n = cfg.n * params.k0**3
    except OverflowError:  # Python floats raise where numpy scalars give inf
        n = math.inf
    if not 0.0 < n < math.inf:
        raise ConfigError(f"density --n {cfg.n:g} k0^3 at k0 = {params.k0:g} "
                          f"is not a positive finite number")
    return n


def _energy_unit(cfg: argparse.Namespace) -> str:
    return "eV" if cfg.units == "physical" else "eps0"


def _input_energy(cfg: argparse.Namespace, key: str) -> float:
    """Energy flag `key` in the internal unit; unset, its unit-mode default."""
    value = getattr(cfg, key)
    if value is None:
        value = _ENERGY_DEFAULTS[key][cfg.units]
    if cfg.units == "physical":
        return value * _EV_PER_UEV
    return value


# ---- output --------------------------------------------------------------


def _solver_tolerances(cfg: argparse.Namespace) -> dict:
    return {"tol_gap": cfg.tol_gap, "tol_number": cfg.tol_number}


def _emit(cfg: argparse.Namespace, stem: str, tables, tolerances: dict,
          extra: dict | None = None) -> list:
    """Write each (csv name, header, rows) table, then the JSON sidecar.

    The sidecar `<stem>.meta.json` echoes the parsed flags, hashes every
    CSV of the run and records the wall clock since `cfg.started`, the end
    of argument parsing.  Returns the CSV paths in order.
    """
    out = Path(cfg.out)
    csv_paths = [write_csv(out / name, header, rows) for name, header, rows in tables]
    write_meta(
        out / f"{stem}.meta.json",
        config={k: v for k, v in vars(cfg).items() if k not in ("config", "started")},
        version=__version__,
        unit_mode=getattr(cfg, "units", None),
        tolerances=tolerances,
        wall_clock_s=time.monotonic() - cfg.started,
        csv_paths=csv_paths,
        extra=extra,
    )
    return csv_paths


# ---- subcommand implementations -----------------------------------------


def cmd_gap_sweep(cfg: argparse.Namespace) -> int:
    params = _make_params(cfg)
    n = _density(cfg, params)
    if cfg.u_max < cfg.u_min:
        raise ConfigError("need u-min <= u-max")
    u_c = critical_coupling(params)
    ratios = np.linspace(cfg.u_min, cfg.u_max, cfg.points)
    solutions = sweep_coupling(
        ratios * u_c, n, params, tol_gap=cfg.tol_gap, tol_number=cfg.tol_number
    )
    eps_f = params.fermi_energy(n)
    rows = []
    for ratio, sol in zip(ratios, solutions):
        rows.append(
            (
                float(ratio),
                sol.mu / eps_f,
                sol.Delta0 / eps_f,
                sol.Delta0 / params.eps0,
                sol.residual_gap,
                sol.residual_number,
                sol.converged,
            )
        )
    header = (
        "U_over_Uc",
        "mu_over_epsF",
        "Delta0_over_epsF",
        "Delta0_over_eps0",
        "residual_gap",
        "residual_number",
        "converged",
    )
    [csv_path] = _emit(cfg, "gap_sweep", [("gap_sweep.csv", header, rows)],
                       _solver_tolerances(cfg))
    failed = [i for i, sol in enumerate(solutions) if not sol.converged]
    if failed:
        print(f"gap-sweep: {len(failed)} of {len(solutions)} points not converged",
              file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    print(f"gap-sweep: {len(solutions)} points -> {csv_path}")
    return EXIT_OK


def cmd_bound_state(cfg: argparse.Namespace) -> int:
    params = _make_params(cfg)
    ratio = cfg.u
    u_c = critical_coupling(params)
    energy = bound_state_energy(ratio * u_c, params)
    exists = energy is not None
    row = (ratio, int(exists), energy / params.eps0 if exists else None)
    _emit(cfg, "bound_state",
          [("bound_state.csv", ("U_over_Uc", "has_bound_state", "E_b_over_eps0"), [row])],
          {})
    if exists:
        print(f"bound-state: E_b = {energy / params.eps0:.12g} eps0 at U/U_c = {ratio}")
    else:
        print(f"bound-state: no bound state at U/U_c = {ratio} (below threshold)")
    return EXIT_OK


def cmd_phase_diagram(cfg: argparse.Namespace) -> int:
    params = _make_params(cfg)
    n = _density(cfg, params)
    e_c = _input_energy(cfg, "ec")
    g_min, g_max = _input_energy(cfg, "g_min"), _input_energy(cfg, "g_max")
    if not g_min < g_max:
        raise ConfigError("need g-min < g-max")
    if cfg.u_max < cfg.u_min:
        raise ConfigError("need u-min <= u-max")

    u_c = critical_coupling(params)
    ratios = np.linspace(cfg.u_min, cfg.u_max, cfg.u_points)
    g_grid = np.linspace(g_min, g_max, cfg.g_points)
    cells = sweep_diagram(ratios * u_c, e_c, g_grid, n, params, tol_gap=cfg.tol_gap,
                          tol_number=cfg.tol_number)

    rows = []
    for cell in cells:
        sol = cell.solution
        rows.append(
            (
                sol.U / u_c,
                sol.mu,
                sol.Delta0,
                cell.E_c,
                cell.G,
                cell.E_J,
                cell.sigma2,
                cell.label.pairing if cell.label else "",
                cell.label.coherence if cell.label else "",
                sol.converged,
            )
        )
    header = (
        "U_over_Uc",
        "mu",
        "Delta0",
        "E_c",
        "G",
        "E_J",
        "sigma_phi2",
        "pairing",
        "coherence",
        "converged",
    )

    boundary_rows = []
    unresolved = 0
    for sol in (cell.solution for cell in cells[::cfg.g_points]):
        if not sol.converged:
            continue
        try:
            g_star = critical_hopping(sol, e_c)
            g_bis = refine_hopping_boundary(sol.Delta0, e_c, sol.U)
        except ValueError as exc:  # no representable G*: leave the row's G* fields empty
            print(f"phase-diagram: no boundary at U/U_c = {sol.U / u_c:g}: {exc}",
                  file=sys.stderr)
            g_star = g_bis = None
            unresolved += 1
        boundary_rows.append((sol.U / u_c, sol.mu, g_star, g_bis))
    csv_path, boundary_path = _emit(
        cfg,
        "phase_diagram",
        [
            ("phase_diagram.csv", header, rows),
            ("boundary.csv", ("U_over_Uc", "mu", "G_star", "G_star_bisect"), boundary_rows),
        ],
        _solver_tolerances(cfg),
        extra={"energy_unit": _energy_unit(cfg)},
    )
    bad = [c for c in cells if not c.solution.converged]
    if bad:
        print(f"phase-diagram: {len(bad)} of {len(cells)} cells unconverged",
              file=sys.stderr)
    if bad or unresolved:
        return EXIT_NON_CONVERGENCE
    print(f"phase-diagram: {len(cells)} cells -> {csv_path}, boundary -> {boundary_path}")
    return EXIT_OK


def cmd_overlap(cfg: argparse.Namespace) -> int:
    theta = cfg.theta
    dphi = cfg.dphi
    alpha = cfg.alpha
    m_max = cfg.m_max
    factor = math.cos(theta) ** 2 + complex(math.cos(dphi), math.sin(dphi)) * math.sin(theta) ** 2
    rate_exact = -math.log(abs(factor)) if abs(factor) > 0.0 else math.inf
    rows = []
    prev_log = 0.0
    for m in range(1, m_max + 1):
        value = bcs_overlap(np.full(m, theta), dphi)
        bose = bec_overlap(np.full(m, alpha), dphi)
        log_abs = math.log(abs(value)) if abs(value) > 0.0 else -math.inf
        rows.append(
            (m, value.real, value.imag, abs(value), prev_log - log_abs, abs(bose))
        )
        prev_log = log_abs
    [csv_path] = _emit(
        cfg,
        "overlap",
        [("overlap.csv", ("M", "bcs_re", "bcs_im", "bcs_abs", "bcs_rate", "bec_abs"), rows)],
        {},
        extra={"rate_exact": rate_exact},
    )
    print(f"overlap: per-mode decay rate {rate_exact:.12g} -> {csv_path}")
    return EXIT_OK


def cmd_eta(cfg: argparse.Namespace) -> int:
    params = _make_params(cfg)
    n = _density(cfg, params)
    ratio = cfg.u
    u_value = ratio * critical_coupling(params)
    solution = solve_self_consistent(
        u_value, n, params, tol_gap=cfg.tol_gap, tol_number=cfg.tol_number
    )
    if not solution.converged:
        print("eta: gap solver did not converge", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    count = cfg.k_points
    k_grid = (np.arange(count) + 0.5) * (cfg.k_max * params.k0 / count)
    ens = PairEnsemble.from_gap_solution(
        solution, params, k_grid, phi=cfg.phi,
        convention=cfg.convention,
    )
    stats = eta_statistics(ens)
    row = (
        ratio,
        solution.mu,
        solution.Delta0,
        ens.n_modes,
        ens.Omega,
        stats["mean"],
        stats["variance"],
    )
    [csv_path] = _emit(
        cfg,
        "eta",
        [("eta.csv",
          ("U_over_Uc", "mu", "Delta0", "modes", "Omega", "eta_mean", "eta_variance"),
          [row])],
        _solver_tolerances(cfg),
        extra={
            "angle_convention": cfg.convention,
            "note": "finite k-grid sample of the continuum; statistics are grid relative",
        },
    )
    print(f"eta: mean {stats['mean']:.6g}, variance {stats['variance']:.6g} -> {csv_path}")
    return EXIT_OK


def cmd_oracle(cfg: argparse.Namespace) -> int:
    modes = cfg.modes
    rng = np.random.default_rng(cfg.seed)
    ens = random_pair_ensemble(modes, rng)
    stats = eta_statistics(ens)
    oracle = build_fock_oracle(ens)
    moments = oracle.eta_moments()
    dphi = cfg.dphi
    overlap_dev = abs(
        bcs_overlap(ens.theta, dphi) - oracle.overlap(ens.phi, ens.phi + dphi)
    )
    grid = 0.3 + 1e-3 * np.arange(-3, 4)
    np_dev = number_phase_derivative_check(oracle, 2 * (modes // 2), grid)
    header = (
        "modes",
        "eta_mean_analytic",
        "eta_mean_oracle",
        "eta_var_analytic",
        "eta_var_oracle",
        "overlap_abs_dev",
        "number_phase_dev",
    )
    row = (
        modes,
        stats["mean"],
        moments["mean"],
        stats["variance"],
        moments["variance"],
        overlap_dev,
        np_dev,
    )
    [csv_path] = _emit(cfg, "oracle", [("oracle.csv", header, [row])], {})
    print(
        f"oracle: eta mean dev {abs(stats['mean'] - moments['mean']):.3e}, "
        f"overlap dev {overlap_dev:.3e} -> {csv_path}"
    )
    return EXIT_OK


def cmd_pegg_barnett(cfg: argparse.Namespace) -> int:
    s = cfg.s
    rungs = cfg.rungs
    rows = []
    for level in range(rungs):
        s_level = s * (1 << level)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = pegg_barnett(
                s_level,
                cfg.theta0,
                cfg.omega,
                state_phase=cfg.state_phase,
            )
        for warning in caught:
            print(f"pegg-barnett: warning: {warning.message}", file=sys.stderr)
        rows.append(
            (
                s_level,
                report.commutator_expectation.real,
                report.commutator_expectation.imag,
                report.deviation_from_canonical,
                report.truncation_error,
                report.truncation_warning,
            )
        )
    [csv_path] = _emit(
        cfg,
        "pegg_barnett",
        [("pegg_barnett.csv",
          ("s", "comm_re", "comm_im", "deviation", "truncation_error", "warned"),
          rows)],
        {},
    )
    print(f"pegg-barnett: deviation {rows[0][3]:.6e} at s={s} -> {csv_path}")
    return EXIT_OK


def cmd_chain(cfg: argparse.Namespace) -> int:
    geometry = [cfg.epsilon_r, cfg.area_um2, cfg.spacing_nm]
    e_c = cfg.ec
    if any(v is not None for v in geometry):
        if e_c is not None:
            raise ConfigError("give either --ec or the geometry trio, not both")
        if any(v is None for v in geometry):
            raise ConfigError("geometry needs --epsilon-r, --area-um2, --spacing-nm together")
        epsilon_r, area_um2, spacing_nm = geometry
        e_c = charging_energy(epsilon_r * EPSILON_0, area_um2 * 1e-12,
                              spacing_nm * 1e-9) / E_CHARGE  # eV
    elif e_c is None:
        raise ConfigError("chain needs --ec or the geometry trio")
    else:
        e_c = _input_energy(cfg, "ec")
    if cfg.ej is None:
        raise ConfigError("chain needs --ej")
    e_j = _input_energy(cfg, "ej")

    ground = ChainGroundState.for_chain(e_c, e_j)
    label = coherence_classify(e_c, e_j)
    bars = np.full(cfg.segments, cfg.delta_bar)
    rows = [(r, odlro(0, r, bars, ground.sigma2)) for r in range(bars.size)]
    oracle = None
    if e_j > 0.0:
        result = oscillator_oracle(e_c, e_j)
        oracle = {
            "ground_energy": result.ground_energy,
            "variance": result.variance,
            "variance_literal_closed_form": math.sqrt(8.0 * e_c / e_j),
        }
    [csv_path] = _emit(
        cfg,
        "chain",
        [("chain.csv", ("separation", "rho"), rows)],
        {},
        extra={
            "E_c": e_c,
            "E_J": e_j,
            "energy_unit": _energy_unit(cfg),
            "sigma2": ground.sigma2,
            "variance_oscillator": ground.variance_oscillator,
            "variance_gaussian_form": ground.variance_gaussian_form,
            "factor_discrepancy": ground.factor_discrepancy,
            "coherence": label,
            "oscillator_oracle": oracle,
        },
    )
    print(
        f"chain: sigma_phi2 {ground.sigma2:.6g}, coherence {label} -> {csv_path}"
    )
    return EXIT_OK


def cmd_phase_lock(cfg: argparse.Namespace) -> int:
    modes = cfg.modes
    sign = -1.0 if cfg.sign == "attractive" else 1.0
    result = variational_phase_lock(
        modes,
        g_sign=sign,
        seed=cfg.seed,
        length=cfg.length,
        step=cfg.step,
        tol=cfg.tol,
        max_steps=cfg.max_steps,
    )
    rows = [
        (k, result.phases[k], result.amplitudes[k]) for k in range(modes)
    ]
    [csv_path] = _emit(
        cfg,
        "phase_lock",
        [("phase_lock.csv", ("mode", "phase", "amplitude"), rows)],
        {"descent_tol": cfg.tol},
        extra={
            "gradient_norm": result.gradient_norm,
            "steps": result.steps,
            "converged": result.converged,
            "equal_phase_residual": result.equal_phase_residual,
            "phase_spread": result.phase_spread,
            "min_amplitude": result.min_amplitude,
        },
    )
    if not result.converged:
        print(
            f"phase-lock: descent did not converge "
            f"(gradient norm {result.gradient_norm:.3e} after {result.steps} steps)",
            file=sys.stderr,
        )
        return EXIT_NON_CONVERGENCE
    print(
        f"phase-lock: spread {result.phase_spread:.3e} after {result.steps} steps "
        f"-> {csv_path}"
    )
    return EXIT_OK


def cmd_checks(cfg: argparse.Namespace) -> int:
    if cfg.list:
        for name, description in CHECK_NAMES.items():
            print(f"{name}: {description}")
        return EXIT_OK
    results = run_checks(cfg.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    _emit(
        cfg,
        "checks",
        [],
        {},
        extra={
            r.name: {"passed": r.passed, "measured": r.measured} for r in results
        },
    )
    if all(r.passed for r in results):
        print(f"checks: all {len(results)} passed")
        return EXIT_OK
    failed = [r.name for r in results if not r.passed]
    print(f"checks: FAILED {failed}", file=sys.stderr)
    return EXIT_CHECK_FAILURE


_COMMANDS = {
    "gap-sweep": cmd_gap_sweep,
    "bound-state": cmd_bound_state,
    "phase-diagram": cmd_phase_diagram,
    "overlap": cmd_overlap,
    "eta": cmd_eta,
    "oracle": cmd_oracle,
    "pegg-barnett": cmd_pegg_barnett,
    "chain": cmd_chain,
    "phase-lock": cmd_phase_lock,
    "checks": cmd_checks,
}


def main(argv=None) -> int:
    parser, command_parsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            file_values = _typed_config(
                _read_config_file(args.config), command_parsers[args.command]
            )
            command_parsers[args.command].set_defaults(**file_values)
            args = parser.parse_args(argv)
        args.started = time.monotonic()
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"bcsbec: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except SystemExit as exc:
        # argparse exits (usage errors already remapped to 3 by _Parser,
        # --help/--version to 0); fold into the return-code contract.
        code = exc.code
        return code if isinstance(code, int) else EXIT_INVALID_CONFIG
    except OSError as exc:  # an --out that cannot be written
        print(f"bcsbec: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (RuntimeError, ValueError) as exc:  # solver, numeric
        print(f"bcsbec: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
