"""Coherent-state algebra for the paired Fermi gas.

Subpackage layout:

    ensembles       PairEnsemble container and builders
    overlaps        multimode overlap closed forms and eta statistics
    fock            exact 2^M pair-occupancy oracle (small M, brute force)
    phase_operator  finite-dimensional Hermitian phase operator
    phase_locking   quartic free-energy stationarity and descent
"""

from .ensembles import PairEnsemble, random_pair_ensemble
from .overlaps import bec_overlap, bcs_overlap, eta_statistics
from .fock import FockOracle, build_fock_oracle, number_phase_derivative_check
from .phase_operator import PeggBarnettReport, pegg_barnett
from .phase_locking import (
    PhaseLockResult,
    box_mode_tensor,
    equal_phase_residual,
    phase_gradient,
    variational_phase_lock,
)

__all__ = [
    "PairEnsemble",
    "random_pair_ensemble",
    "bec_overlap",
    "bcs_overlap",
    "eta_statistics",
    "FockOracle",
    "build_fock_oracle",
    "number_phase_derivative_check",
    "PeggBarnettReport",
    "pegg_barnett",
    "PhaseLockResult",
    "box_mode_tensor",
    "equal_phase_residual",
    "phase_gradient",
    "variational_phase_lock",
]
