"""Command-line front end: solvers, sweeps, oracles, checks, CSV output.

Subcommands: gap-sweep, bound-state, phase-diagram, overlap, eta, oracle,
pegg-barnett, chain, phase-lock, checks.  A subcommand only computes: it
returns its tables, printed lines, sidecar results and exit code, and
`main` then writes the plot-ready CSVs plus a JSON metadata sidecar
(config echo, version, unit mode, tolerances, wall clock, and the sha256
of each CSV's bytes as written), prints the lines and returns the code.
`checks` writes only its sidecar; `checks --list`, a run that exits 3, a
failed `eta` solve and a numeric failure caught by `main` write nothing.
Rerunning an identical config reproduces the CSV bytes exactly.

Each subcommand takes only the flags it reads.  --out and --config go to
all ten; --units to phase-diagram, eta and chain; --seed to oracle,
phase-lock and checks; --tol-gap and --tol-number to the three that solve
the gap equations, gap-sweep, phase-diagram and eta.  Any other flag, or
config key, is unknown and exits 3; flags are never abbreviated.  A call
that starts with its subcommand parses its argv once, with that
subcommand's parser alone, which is built on first use and then reused
for the rest of the process; the full command tree serves --help,
--version and every other usage error, a flag before the subcommand
among them.

Configuration precedence: explicit command-line flags override values
from an optional "key = value" config file (--config), which override the
built-in defaults.  Keys are the flag names, with '-' or '_'; each line
is parsed as --key=value by the subcommand's parser, and an error names
the file and line.  A flag that takes no value (--help, checks --list)
has no key, nor has --config.

Unit modes: every solve runs in the natural gap-equation units (energies
in eps0 = hbar^2 k0^2 / 2m, momenta in k0, densities in k0^3), where
the model depends on k_F a alone.  'dimensionless' reports those units;
'physical' takes the free-electron mass and a k0 in inverse Angstroms
(default 1.41) and is a presentation step with one rule: the energy
flags (--ec, --ej) are read in micro-eV, matching the scales of junction
arrays, and the energy columns (mu, Delta0, E_J) are written in eV,
while the hopping G (E_J = G^2 Delta0/2), U/U_c and the density n (in
k0^3) are unit-free in both modes.  The gap-sweep CSV holds only ratios,
so gap-sweep, like bound-state, takes no --units or --k0.  The chain
geometry flags (--epsilon-r, --area-um2, --spacing-nm) give E_c in eV
and need --units physical.

Exit codes: 0 success, 1 check failure, 2 solver non-convergence or a
numeric failure (RuntimeError, ValueError), 3 invalid configuration: a
flag or config value that is out of range or not finite (each numeric
flag declares its range once, as its argparse type), a bad config file or
grid, or an output file that cannot be written (OSError).  Any other
exception is a bug and propagates with a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
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
from .core import E_CHARGE, EPSILON_0, U_C, eps0_ev, fermi_energy
from .diagram import critical_hopping, refine_hopping_boundary, sweep_coupling, sweep_diagram
from .gap import bound_state_energy, solve_self_consistent
from .checks import CHECK_NAMES, run_checks
from .runio import render_csv, write_csv, write_meta

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_NON_CONVERGENCE = 2
EXIT_INVALID_CONFIG = 3

_EV_PER_UEV = 1e-6

# Unit-mode default of phase-diagram's --ec, in the user-facing unit
# (eps0 dimensionless, micro-eV physical).
_EC_DEFAULTS = {"dimensionless": 1e-5, "physical": 50.0}


class ConfigError(Exception):
    """Invalid configuration (bad flag value, bad config file, bad grid)."""


class _Parser(argparse.ArgumentParser):
    """Flags match only in full, and usage errors exit 3, not argparse's 2.

    While a config line is parsed, `where` names it ("<file>:<line>: ")
    in every error.
    """

    where = ""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {self.where}{message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_CONFIG)


@dataclass(frozen=True)
class _Range:
    """argparse type: a finite `kind` value in [lo, hi], or (lo, hi] if open_lo."""

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


# ---- flags: the shared sets, then each subcommand's --------------------
# (--help lists a parser's flags in the order they are added)


def _output_flags(p):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", default=None, help="key = value config file")


def _units_flag(p):
    p.add_argument("--units", choices=("dimensionless", "physical"), default="dimensionless",
                   help="unit system (default dimensionless)")


def _seed_flag(p):
    p.add_argument("--seed", type=_Range(int, 0), default=1234, help="random seed (default 1234)")


def _tolerance_flags(p):
    p.add_argument("--tol-gap", type=_POSITIVE, default=1e-10, help="gap residual tolerance")
    p.add_argument("--tol-number", type=_POSITIVE, default=1e-8, help="number residual tolerance")


def _gap_sweep_flags(p):
    _output_flags(p)
    _tolerance_flags(p)
    p.add_argument("--n", type=_POSITIVE, default=2e-2, help="density in k0^3 units")
    p.add_argument("--u-min", type=_POSITIVE, default=0.5, help="lower U/U_c")
    p.add_argument("--u-max", type=_POSITIVE, default=4.0, help="upper U/U_c")
    p.add_argument("--points", type=_Range(int, 1), default=50, help="grid points")


def _bound_state_flags(p):
    _output_flags(p)
    p.add_argument("--u", type=_POSITIVE, default=2.0, help="coupling in U/U_c")


def _phase_diagram_flags(p):
    _output_flags(p)
    _units_flag(p)
    _tolerance_flags(p)
    p.add_argument("--n", type=_POSITIVE, default=2e-2)
    p.add_argument("--u-min", type=_POSITIVE, default=0.5)
    p.add_argument("--u-max", type=_POSITIVE, default=4.0)
    p.add_argument("--u-points", type=_Range(int, 1), default=12)
    p.add_argument("--ec", type=_POSITIVE, default=None,
                   help="charging energy (micro-eV physical, eps0 units dimensionless)")
    p.add_argument("--g-min", type=_NON_NEGATIVE, default=1e-3,
                   help="hopping amplitude grid start (unit-free)")
    p.add_argument("--g-max", type=_POSITIVE, default=5e-2,
                   help="hopping amplitude grid end (unit-free)")
    p.add_argument("--g-points", type=_Range(int, 1), default=12)
    p.add_argument("--k0", type=_POSITIVE, default=1.41)


def _overlap_flags(p):
    _output_flags(p)
    p.add_argument("--theta", type=_Range(lo=0.0, hi=0.5 * math.pi), default=0.25 * math.pi,
                   help="pairing angle")
    p.add_argument("--dphi", type=_FINITE, default=0.5 * math.pi, help="phase rotation")
    p.add_argument("--alpha", type=_NON_NEGATIVE, default=0.3, help="bosonic amplitude per mode")
    p.add_argument("--m-max", type=_Range(int, 1), default=200, help="largest mode count")


def _eta_flags(p):
    _output_flags(p)
    _units_flag(p)
    _tolerance_flags(p)
    p.add_argument("--u", type=_POSITIVE, default=2.0, help="coupling in U/U_c")
    p.add_argument("--n", type=_POSITIVE, default=2e-2)
    p.add_argument("--k-max", type=_POSITIVE, default=6.0, help="grid extent in k0")
    p.add_argument("--k-points", type=_Range(int, 1), default=128)
    p.add_argument("--convention", choices=("half-angle", "literal"), default="half-angle")
    p.add_argument("--k0", type=_POSITIVE, default=1.41)


def _oracle_flags(p):
    _output_flags(p)
    _seed_flag(p)
    p.add_argument("--modes", type=_Range(int, 1, 12), default=8, help="pair modes (<= 12)")
    p.add_argument("--dphi", type=_FINITE, default=1.0)


def _pegg_barnett_flags(p):
    _output_flags(p)
    p.add_argument("--s", type=_Range(int, 1), default=64, help="base dimension minus one")
    p.add_argument("--omega", type=_POSITIVE, default=4.0, help="probe-state occupation")
    p.add_argument("--state-phase", type=_FINITE, default=None,
                   help="probe-state phase; the branch cut is at 0 (default pi)")
    p.add_argument("--rungs", type=_Range(int, 1), default=3, help="doubling ladder length")


def _chain_flags(p):
    _output_flags(p)
    _units_flag(p)
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


def _phase_lock_flags(p):
    _output_flags(p)
    _seed_flag(p)
    p.add_argument("--modes", type=_Range(int, 2, 6), default=3, help="mode count (2..6)")
    p.add_argument("--sign", choices=("attractive", "repulsive"), default="attractive")
    p.add_argument("--length", type=_POSITIVE, default=10.0, help="box length")
    p.add_argument("--step", type=_POSITIVE, default=1e-2,
                   help="first descent step, unit-free: divided by the gradient scale "
                        "2 sqrt(M) E_M + 3 M^3/L over its value at L = 10")
    p.add_argument("--tol", type=_POSITIVE, default=1e-10,
                   help="gradient-norm stop, unit-free: relative to the gradient scale "
                        "2 sqrt(M) E_M + 3 M^3/L over its value at L = 10")
    p.add_argument("--max-steps", type=_Range(int, 1), default=100000,
                   help="budget of gradient evaluations and Newton steps")


def _checks_flags(p):
    _output_flags(p)
    _seed_flag(p)
    p.add_argument("--list", action="store_true", help="list checks without running")


def build_parser():
    """The full command tree, for --help, --version and top-level usage errors."""
    parser = _Parser(
        prog="bcsbec",
        description="pairing crossover and phase-coherence toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, add_flags, _) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser, sub.choices


@functools.cache
def _command_parser(name: str) -> _Parser:
    """The parser of one subcommand, the same as build_parser()[1][name].

    Built on first use and shared by every later call in the process;
    parsing leaves it unchanged, `where` aside, which `_config_namespace`
    resets.
    """
    parser = _Parser(prog=f"bcsbec {name}")
    _, add_flags, _ = _COMMANDS[name]
    add_flags(parser)
    return parser


# ---- config file handling ------------------------------------------------


def _config_namespace(parser: _Parser, path: str) -> argparse.Namespace:
    """Parse each "key = value" line of a config file as --key=value.

    `parser` is the subcommand's; its errors name the file and line.  The
    namespace also holds every default, so parsing the command line into it
    afterwards lets an explicit flag win.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    namespace = argparse.Namespace()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parser.where = f"{path}:{lineno}: "
            if "=" not in line:
                parser.error("expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            _, unknown = parser.parse_known_args([f"--{key}={value.strip()}"], namespace)
            if unknown or key == "config":
                parser.error(f"unknown config key {key!r}")
    finally:  # the parser is shared: no later error may carry this file's prefix
        parser.where = ""
    return namespace


# ---- unit helpers --------------------------------------------------------


def _energy_scale(cfg: argparse.Namespace) -> float:
    """eV per eps0 in physical mode, 1 in dimensionless mode.

    The solvers work in eps0 only; this factor is the one unit conversion.
    """
    if cfg.units != "physical":
        return 1.0
    scale = eps0_ev(cfg.k0)
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"eps0 at k0 = {cfg.k0:g} is not a positive finite number of eV")
    return scale


def _energy_unit(cfg: argparse.Namespace) -> str:
    return "eV" if cfg.units == "physical" else "eps0"


def _input_value(cfg: argparse.Namespace, key: str) -> float:
    """Energy flag `key` as given (micro-eV read as eV in physical mode); unset, --ec's default."""
    value = getattr(cfg, key)
    if value is None:
        value = _EC_DEFAULTS[cfg.units]
    if cfg.units == "physical":
        return value * _EV_PER_UEV
    return value


# ---- output --------------------------------------------------------------

# sidecar `tolerances` key of each flag that sets a stopping tolerance;
# descent_tol is phase-lock's unit-free --tol, the gradient-norm stop
# relative to the free energy's scale in the default box L = 10
_TOLERANCE_FLAGS = {"tol_gap": "tol_gap", "tol_number": "tol_number", "tol": "descent_tol"}


@dataclass(frozen=True)
class _Run:
    """What one subcommand produced; `main` writes, prints and exits from it.

    `tables` holds (csv name, header, rows) entries; None writes nothing,
    not even the sidecar.  `results` is the sidecar's results block.
    """

    tables: list | None
    out: list = field(default_factory=list)
    err: list = field(default_factory=list)
    results: dict | None = None
    code: int = EXIT_OK


def _emit(cfg: argparse.Namespace, tables, results: dict | None) -> None:
    """Write each (csv name, header, rows) table, then the JSON sidecar.

    `--out` is made once.  Each table is rendered to bytes once, and the
    sidecar's sha256 and byte count are taken from the bytes written, so
    no file is read back.  The sidecar `<command>.meta.json` ('-' read as
    '_') echoes the parsed flags and their stopping tolerances, and records
    the wall clock since `cfg.started`, the end of argument parsing.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, header, rows in tables:
        data = render_csv(header, rows)
        write_csv(out / name, data)
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    payload = {
        "config": {k: v for k, v in vars(cfg).items() if k not in ("config", "started")},
        "version": __version__,
        "tolerances": {key: getattr(cfg, flag) for flag, key in _TOLERANCE_FLAGS.items()
                       if hasattr(cfg, flag)},
        "wall_clock_s": time.monotonic() - cfg.started,
        "files": files,
    }
    if hasattr(cfg, "units"):
        payload["unit_mode"] = cfg.units
    if results:
        payload["results"] = results
    write_meta(out / f"{cfg.command.replace('-', '_')}.meta.json", payload)


# ---- subcommand implementations -----------------------------------------


def cmd_gap_sweep(cfg: argparse.Namespace) -> _Run:
    if cfg.u_max < cfg.u_min:
        raise ConfigError("need u-min <= u-max")
    ratios = np.linspace(cfg.u_min, cfg.u_max, cfg.points)
    solutions = sweep_coupling(
        ratios * U_C, cfg.n, tol_gap=cfg.tol_gap, tol_number=cfg.tol_number
    )
    eps_f = fermi_energy(cfg.n)
    rows = []
    for ratio, sol in zip(ratios, solutions):
        rows.append(
            (
                float(ratio),
                sol.mu / eps_f,
                sol.Delta0 / eps_f,
                sol.Delta0,
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
    tables = [("gap_sweep.csv", header, rows)]
    failed = sum(not sol.converged for sol in solutions)
    if failed:
        return _Run(tables, err=[f"gap-sweep: {failed} of {len(solutions)} points not converged"],
                    code=EXIT_NON_CONVERGENCE)
    return _Run(tables,
                [f"gap-sweep: {len(solutions)} points -> {Path(cfg.out) / 'gap_sweep.csv'}"])


def cmd_bound_state(cfg: argparse.Namespace) -> _Run:
    ratio = cfg.u
    energy = bound_state_energy(ratio * U_C)  # in eps0, the same at any k0
    exists = energy is not None
    row = (ratio, int(exists), energy)
    if exists:
        line = f"bound-state: E_b = {energy:.12g} eps0 at U/U_c = {ratio}"
    else:
        line = f"bound-state: no bound state at U/U_c = {ratio} (below threshold)"
    return _Run([("bound_state.csv", ("U_over_Uc", "has_bound_state", "E_b_over_eps0"), [row])],
                [line])


def cmd_phase_diagram(cfg: argparse.Namespace) -> _Run:
    scale = _energy_scale(cfg)
    e_c_in = _input_value(cfg, "ec")
    e_c = e_c_in / scale
    if not 0.0 < e_c < math.inf:
        raise ConfigError(f"--ec is not a positive finite number of eps0 at k0 = {cfg.k0:g}")
    if not cfg.g_min < cfg.g_max:
        raise ConfigError("need g-min < g-max")
    if cfg.u_max < cfg.u_min:
        raise ConfigError("need u-min <= u-max")

    ratios = np.linspace(cfg.u_min, cfg.u_max, cfg.u_points)
    g_grid = np.linspace(cfg.g_min, cfg.g_max, cfg.g_points)
    cells = sweep_diagram(ratios * U_C, e_c, g_grid, cfg.n, tol_gap=cfg.tol_gap,
                          tol_number=cfg.tol_number)

    rows = []
    for cell in cells:
        sol = cell.solution
        rows.append(
            (
                sol.U / U_C,
                sol.mu * scale,
                sol.Delta0 * scale,
                e_c_in,
                cell.G,
                None if cell.E_J is None else cell.E_J * scale,
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
    err = []
    for sol in (cell.solution for cell in cells[::cfg.g_points]):
        if not sol.converged:
            continue
        try:
            g_star = critical_hopping(sol, e_c)
            g_bis = refine_hopping_boundary(sol.Delta0, e_c, sol.U)
        except ValueError as exc:  # no representable G*: leave the row's G* fields empty
            err.append(f"phase-diagram: no boundary at U/U_c = {sol.U / U_C:g}, "
                       f"E_c = {e_c_in:g} {_energy_unit(cfg)}: {exc}")
            g_star = g_bis = None
        boundary_rows.append((sol.U / U_C, sol.mu * scale, g_star, g_bis))
    tables = [
        ("phase_diagram.csv", header, rows),
        ("boundary.csv", ("U_over_Uc", "mu", "G_star", "G_star_bisect"), boundary_rows),
    ]
    results = {"energy_unit": _energy_unit(cfg)}
    bad = sum(not c.solution.converged for c in cells)
    if bad:
        err.append(f"phase-diagram: {bad} of {len(cells)} cells unconverged")
    if err:
        return _Run(tables, err=err, results=results, code=EXIT_NON_CONVERGENCE)
    out = Path(cfg.out)
    return _Run(tables, [f"phase-diagram: {len(cells)} cells -> {out / 'phase_diagram.csv'}, "
                         f"boundary -> {out / 'boundary.csv'}"], results=results)


def cmd_overlap(cfg: argparse.Namespace) -> _Run:
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
    return _Run(
        [("overlap.csv", ("M", "bcs_re", "bcs_im", "bcs_abs", "bcs_rate", "bec_abs"), rows)],
        [f"overlap: per-mode decay rate {rate_exact:.12g} -> {Path(cfg.out) / 'overlap.csv'}"],
        results={"rate_exact": rate_exact},
    )


def cmd_eta(cfg: argparse.Namespace) -> _Run:
    scale = _energy_scale(cfg)
    solution = solve_self_consistent(
        cfg.u * U_C, cfg.n, tol_gap=cfg.tol_gap, tol_number=cfg.tol_number
    )
    if not solution.converged:
        return _Run(None, err=["eta: gap solver did not converge"], code=EXIT_NON_CONVERGENCE)
    count = cfg.k_points
    k_grid = (np.arange(count) + 0.5) * (cfg.k_max / count)
    ens = PairEnsemble.from_gap_solution(solution, k_grid, convention=cfg.convention)
    stats = eta_statistics(ens)
    row = (
        cfg.u,
        solution.mu * scale,
        solution.Delta0 * scale,
        ens.n_modes,
        ens.Omega,
        stats["mean"],
        stats["variance"],
    )
    return _Run(
        [("eta.csv",
          ("U_over_Uc", "mu", "Delta0", "modes", "Omega", "eta_mean", "eta_variance"),
          [row])],
        [f"eta: mean {stats['mean']:.6g}, variance {stats['variance']:.6g} "
         f"-> {Path(cfg.out) / 'eta.csv'}"],
        results={
            "angle_convention": cfg.convention,
            "note": "finite k-grid sample of the continuum; statistics are grid relative",
        },
    )


def cmd_oracle(cfg: argparse.Namespace) -> _Run:
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
    return _Run([("oracle.csv", header, [row])],
                [f"oracle: eta mean dev {abs(stats['mean'] - moments['mean']):.3e}, "
                 f"overlap dev {overlap_dev:.3e} -> {Path(cfg.out) / 'oracle.csv'}"])


def cmd_pegg_barnett(cfg: argparse.Namespace) -> _Run:
    rows, err = [], []
    for level in range(cfg.rungs):
        s_level = cfg.s * (1 << level)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = pegg_barnett(s_level, Omega=cfg.omega, state_phase=cfg.state_phase)
        err += [f"pegg-barnett: warning: {warning.message}" for warning in caught]
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
    return _Run(
        [("pegg_barnett.csv",
          ("s", "comm_re", "comm_im", "deviation", "truncation_error", "warned"),
          rows)],
        [f"pegg-barnett: deviation {rows[0][3]:.6e} at s={cfg.s} "
         f"-> {Path(cfg.out) / 'pegg_barnett.csv'}"],
        err,
    )


def cmd_chain(cfg: argparse.Namespace) -> _Run:
    geometry = [cfg.epsilon_r, cfg.area_um2, cfg.spacing_nm]
    e_c = cfg.ec
    if any(v is not None for v in geometry):
        if e_c is not None:
            raise ConfigError("give either --ec or the geometry trio, not both")
        if any(v is None for v in geometry):
            raise ConfigError("geometry needs --epsilon-r, --area-um2, --spacing-nm together")
        if cfg.units != "physical":
            raise ConfigError("the geometry trio gives E_c in eV: it needs --units physical")
        epsilon_r, area_um2, spacing_nm = geometry
        e_c = charging_energy(epsilon_r * EPSILON_0, area_um2 * 1e-12,
                              spacing_nm * 1e-9) / E_CHARGE  # eV
    elif e_c is None:
        raise ConfigError("chain needs --ec or the geometry trio")
    else:
        e_c = _input_value(cfg, "ec")
    if cfg.ej is None:
        raise ConfigError("chain needs --ej")
    e_j = _input_value(cfg, "ej")

    ground = ChainGroundState.for_chain(e_c, e_j)
    label = coherence_classify(e_c, e_j)
    bars = np.full(cfg.segments, cfg.delta_bar)
    rows = [(r, odlro(0, r, bars, ground.sigma2)) for r in range(bars.size)]
    oracle = None
    if e_j > 0.0:
        result = oscillator_oracle(e_c, e_j)
        oracle = {"ground_energy": result.ground_energy, "variance": result.variance}
    return _Run(
        [("chain.csv", ("separation", "rho"), rows)],
        [f"chain: sigma_phi2 {ground.sigma2:.6g}, coherence {label} "
         f"-> {Path(cfg.out) / 'chain.csv'}"],
        results={
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


def cmd_phase_lock(cfg: argparse.Namespace) -> _Run:
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
    tables = [("phase_lock.csv", ("mode", "phase", "amplitude"), rows)]
    results = {
        "gradient_norm": result.gradient_norm,
        "steps": result.steps,
        "converged": result.converged,
        "phase_spread": result.phase_spread,
        "min_amplitude": result.min_amplitude,
        "newton_steps": result.newton_steps,
        "end_state": result.end_state,
        "sign_pattern": result.sign_pattern,
    }
    steps = f"{result.steps} steps ({result.newton_steps} Newton)"
    if not result.converged:
        return _Run(tables, err=[f"phase-lock: {result.end_state} "
                                 f"(gradient norm {result.gradient_norm:.3e} after {steps})"],
                    results=results, code=EXIT_NON_CONVERGENCE)
    pattern = f" [{result.sign_pattern}]" if result.sign_pattern else ""
    return _Run(tables, [f"phase-lock: {result.end_state}{pattern}, spread "
                         f"{result.phase_spread:.3e} after {steps} "
                         f"-> {Path(cfg.out) / 'phase_lock.csv'}"], results=results)


def cmd_checks(cfg: argparse.Namespace) -> _Run:
    if cfg.list:
        return _Run(None, [f"{name}: {description}" for name, description in CHECK_NAMES.items()])
    checks = run_checks(cfg.seed)
    out = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in checks]
    results = {r.name: {"passed": r.passed, "measured": r.measured} for r in checks}
    failed = [r.name for r in checks if not r.passed]
    if failed:
        return _Run([], out, [f"checks: FAILED {failed}"], results, EXIT_CHECK_FAILURE)
    return _Run([], [*out, f"checks: all {len(checks)} passed"], results=results)


# name: (help line, flag declarations, implementation), in the order
# `bcsbec --help` lists them
_COMMANDS = {
    "gap-sweep": ("coupling sweep of the gap equations", _gap_sweep_flags, cmd_gap_sweep),
    "bound-state": ("two-body bound-state energy (unit-free: E_b/eps0 at U/U_c)",
                    _bound_state_flags, cmd_bound_state),
    "phase-diagram": ("regime labels over (U, E_c, G)", _phase_diagram_flags,
                      cmd_phase_diagram),
    "overlap": ("multimode overlap decay with mode count", _overlap_flags, cmd_overlap),
    "eta": ("bosonization statistics of a solved state", _eta_flags, cmd_eta),
    "oracle": ("exact finite-mode oracle comparison", _oracle_flags, cmd_oracle),
    "pegg-barnett": ("phase-operator commutator ladder", _pegg_barnett_flags, cmd_pegg_barnett),
    "chain": ("segment chain: variances and ODLRO decay", _chain_flags, cmd_chain),
    "phase-lock": ("seeded descent of the quartic free energy, finished by "
                   "curvature-guarded Newton steps", _phase_lock_flags, cmd_phase_lock),
    "checks": ("run the self-check inventory", _checks_flags, cmd_checks),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a call that starts with its subcommand builds only that parser;
        # anything else goes through the full tree, which serves --help
        # and --version and reports every usage error, including anything
        # before a subcommand
        if not (argv and argv[0] in _COMMANDS):
            top, _ = build_parser()
            name = top.parse_known_args(argv)[0].command
            top.error(f"unrecognized arguments: {' '.join(argv[:argv.index(name)])}")
        name, rest = argv[0], argv[1:]
        parser = _command_parser(name)
        # one parse; with --config the file's values go first and the
        # command line is parsed again on top of them, so the user's flags
        # win; the subcommand's parser reports what it does not know, with
        # its own usage
        args, unknown = parser.parse_known_args(rest)
        if args.config:
            args = parser.parse_args(rest, _config_namespace(parser, args.config))
        elif unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        args.command, args.started = name, time.monotonic()
        _, _, cmd = _COMMANDS[name]
        run = cmd(args)
        if run.tables is not None:
            _emit(args, run.tables, run.results)
        for line in run.out:
            print(line)
        for line in run.err:
            print(line, file=sys.stderr)
        return run.code
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
