"""Zero-temperature BCS-BEC crossover toolkit.

Modules
-------
core        model parameters, dispersion, form factor, critical coupling
quadrature  adaptive radial quadrature for isotropic 3D momentum integrals
gap         gap/number self-consistency, two-body bound state, coupling sweeps
coherent    overlaps, pair-collective-mode diagnostics, exact Fock oracle,
            truncated phase operator, variational phase locking
chain       Josephson-segment chains: energies, phase fluctuations, ODLRO
diagram     coupling/charging-energy/hopping phase diagram
checks      runnable self-check inventory with measured tolerances
runio       deterministic CSV and metadata sidecar writers
cli         command-line interface
"""

__version__ = "0.1.0"

from .core import PhysicalParams, critical_coupling, dispersion, nsr_form_factor
from .gap import (
    GapSolution,
    bound_state_energy,
    gap_residual,
    locate_mu_zero,
    number_residual,
    solve_self_consistent,
    sweep_coupling,
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
    equal_phase_residual,
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
    sweep_diagram,
)
from .checks import CHECK_NAMES, CheckResult, run_checks

__all__ = [
    "__version__",
    "PhysicalParams",
    "GapSolution",
    "critical_coupling",
    "dispersion",
    "nsr_form_factor",
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
    "equal_phase_residual",
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
