"""Zero-temperature BCS-BEC crossover toolkit.

Modules
-------
core        natural units, dispersion, form factor, threshold coupling U_C
quadrature  adaptive radial quadrature for isotropic 3D momentum integrals
gap         gap/number self-consistency, two-body bound state
coherent    overlaps, pair-collective-mode diagnostics, exact Fock oracle,
            truncated phase operator, variational phase locking
chain       Josephson-segment chains: energies, phase fluctuations, ODLRO
diagram     coupling sweeps and the (U, E_c, G) phase diagram
checks      runnable self-check inventory with measured tolerances
runio       deterministic CSV and metadata sidecar writers
cli         command-line interface
"""

__version__ = "0.1.0"

from .core import U_C, dispersion, eps0_ev, fermi_energy, nsr_form_factor
from .gap import (
    GapSolution,
    bound_state_energy,
    gap_residual,
    locate_mu_zero,
    number_residual,
    solve_self_consistent,
)
from .coherent import (
    FockOracle,
    PairEnsemble,
    PeggBarnettReport,
    PhaseLockResult,
    bcs_overlap,
    bec_overlap,
    box_mode_tensor,
    build_fock_oracle,
    eta_statistics,
    number_phase_derivative_check,
    pegg_barnett,
    random_pair_ensemble,
    variational_phase_lock,
)
from .chain import (
    ChainGroundState,
    OscillatorResult,
    charging_energy,
    coherence_classify,
    josephson_energy,
    odlro,
    oscillator_oracle,
    sigma_phi2,
)
from .diagram import (
    DiagramCell,
    RegimeLabel,
    classify_point,
    critical_hopping,
    refine_hopping_boundary,
    sweep_coupling,
    sweep_diagram,
)
from .checks import CHECK_NAMES, CheckResult, run_checks

__all__ = [
    "__version__",
    "U_C",
    "GapSolution",
    "dispersion",
    "nsr_form_factor",
    "fermi_energy",
    "eps0_ev",
    "gap_residual",
    "number_residual",
    "solve_self_consistent",
    "bound_state_energy",
    "sweep_coupling",
    "locate_mu_zero",
    "FockOracle",
    "PairEnsemble",
    "PeggBarnettReport",
    "PhaseLockResult",
    "bcs_overlap",
    "bec_overlap",
    "box_mode_tensor",
    "build_fock_oracle",
    "eta_statistics",
    "number_phase_derivative_check",
    "pegg_barnett",
    "random_pair_ensemble",
    "variational_phase_lock",
    "ChainGroundState",
    "OscillatorResult",
    "charging_energy",
    "coherence_classify",
    "josephson_energy",
    "odlro",
    "oscillator_oracle",
    "sigma_phi2",
    "DiagramCell",
    "RegimeLabel",
    "classify_point",
    "critical_hopping",
    "refine_hopping_boundary",
    "sweep_diagram",
    "CheckResult",
    "CHECK_NAMES",
    "run_checks",
]
