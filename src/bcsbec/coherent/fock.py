"""Exact finite-mode oracle for the pair algebra (brute force, small M).

Each pairing mode k is a two-level system: the pair (k up, -k down) is
either empty or occupied, so M modes span a 2^M dimensional space indexed
by bit patterns (bit k = occupancy of mode k).  On that space the pair
annihilator S-^(k) of mode k is an exact sparse matrix; its transpose
S+^(k) creates the pair, (S+)^2 = 0, and the particle number is
N = 2 sum_k n_k with n_k = S+^(k) S-^(k).

The collective mode is b = Omega^{-1/2} sum_k theta_k S-^(k); its
commutator defect eta = 1 - [b, b+] is diagonal, and every analytic
statement about overlaps and eta statistics can be checked against dense
state vectors here with no approximation.  The construction is deliberately
brute force and capped at M <= 12 (dim 4096) as a memory guard; it is an
oracle, not a production method.

The paired product state with common phase phi is

    |phi> = prod_k [cos(theta_k) + e^{i phi} sin(theta_k) S+^(k)] |0>,

so the amplitude on a basis state with m occupied modes carries e^{i m phi}
and the particle-number operator acts as a phase derivative.  The identity
N = 2i d/dphi holds on the bra-side amplitudes <phi|n>; on the ket-side
<n|phi> the sign flips, so the derivative check below differentiates the
conjugated amplitudes.  Pair states carry even particle number only, so
every odd-sector overlap vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .ensembles import PairEnsemble

# scipy.sparse is imported inside the methods that build matrices, so that
# importing the package loads no scipy module
if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["FockOracle", "build_fock_oracle", "number_phase_derivative_check"]

_MAX_MODES = 12


@dataclass
class FockOracle:
    """Sparse operator set and state builder on the 2^M pair space."""

    theta: np.ndarray
    phi: float = 0.0

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.n_modes = int(self.theta.size)
        if self.n_modes < 1:
            raise ValueError("at least one mode required")
        if self.n_modes > _MAX_MODES:
            raise ValueError(
                f"M={self.n_modes} exceeds the exact-oracle cap {_MAX_MODES}"
            )
        self.dim = 1 << self.n_modes
        self.Omega = float(np.sum(self.theta**2))
        self._indices = np.arange(self.dim)

    # ---- operator matrices -------------------------------------------

    def s_minus(self, k: int) -> sparse.csr_matrix:
        """Pair annihilator of mode k: |...1_k...> -> |...0_k...>."""
        from scipy import sparse

        self._check_mode(k)
        bit = 1 << k
        cols = self._indices[(self._indices & bit) != 0]
        rows = cols ^ bit
        data = np.ones(cols.size)
        return sparse.csr_matrix(
            (data, (rows, cols)), shape=(self.dim, self.dim)
        )

    @property
    def b(self) -> sparse.csr_matrix:
        """Collective annihilator Omega^{-1/2} sum_k theta_k S-^(k)."""
        from scipy import sparse

        acc = sparse.csr_matrix((self.dim, self.dim))
        for k in range(self.n_modes):
            acc = acc + self.theta[k] * self.s_minus(k)
        return (acc / np.sqrt(self.Omega)).tocsr()

    @property
    def commutator_b(self) -> sparse.csr_matrix:
        """[b, b+] as a sparse (diagonal) matrix."""
        b = self.b
        bd = b.T.tocsr()
        return (b @ bd - bd @ b).tocsr()

    @property
    def eta_op(self) -> sparse.csr_matrix:
        """eta = 1 - [b, b+] = (2/Omega) sum_k theta_k^2 n_k."""
        from scipy import sparse

        return (sparse.identity(self.dim, format="csr") - self.commutator_b).tocsr()

    # ---- states and expectations -------------------------------------

    def state(self, phi: float | None = None) -> np.ndarray:
        """Dense vector of the paired product state at phase phi."""
        if phi is None:
            phi = self.phi
        factors = [
            np.array([np.cos(t), np.exp(1j * phi) * np.sin(t)])
            for t in self.theta
        ]
        # kron's first factor is the most significant index block, so the
        # list runs from mode M-1 down to mode 0 to keep bit k = mode k
        return reduce(np.kron, factors[::-1])

    def overlap(self, phi_prime: float, phi: float) -> complex:
        """Exact inner product <phi'|phi> of two product states."""
        return complex(np.vdot(self.state(phi_prime), self.state(phi)))

    def expectation(self, op: sparse.spmatrix, psi: np.ndarray) -> complex:
        return complex(np.vdot(psi, op @ psi))

    def eta_moments(self, phi: float | None = None) -> dict:
        """<eta> and <eta^2> - <eta>^2 on the product state."""
        psi = self.state(phi)
        eta = self.eta_op
        m1 = self.expectation(eta, psi).real
        m2 = self.expectation((eta @ eta).tocsr(), psi).real
        return {"mean": m1, "variance": m2 - m1 * m1}

    def _check_mode(self, k: int):
        if not 0 <= k < self.n_modes:
            raise ValueError(f"mode index {k} outside 0..{self.n_modes - 1}")


def build_fock_oracle(ens: PairEnsemble) -> FockOracle:
    """Exact 2^M oracle for the ensemble's angles (M <= 12)."""
    return FockOracle(theta=ens.theta, phi=ens.phi)


def number_phase_derivative_check(
    oracle: FockOracle, n_target: int, phi_grid
) -> float:
    """Max deviation of N acting as 2i d/dphi on bra-side amplitudes.

    For every basis vector |n> with n_target particles the check compares
    N_n <phi|n> against 2i times the central difference of <phi|n> over
    the uniform phi_grid, returning the largest absolute deviation over
    interior grid points.  The error is O(h^2) in the spacing.  Odd
    n_target has no basis vectors at all (pairs carry even number); those
    overlaps vanish identically and the deviation is 0 by construction.
    """
    if n_target < 0:
        raise ValueError("n_target must be >= 0")
    grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    if grid.size < 5:
        raise ValueError("phi_grid needs at least 5 points")
    spacing = np.diff(grid)
    h = spacing[0]
    if h <= 0.0 or np.any(np.abs(spacing - h) > 1e-9 * abs(h)):
        raise ValueError("phi_grid must be uniformly increasing")

    if n_target % 2 == 1:
        return 0.0

    pairs = n_target // 2
    sel = np.array(
        [i for i in range(oracle.dim) if bin(i).count("1") == pairs],
        dtype=int,
    )
    if sel.size == 0:
        return 0.0

    # bra-side amplitudes <phi|n> = conj(<n|phi>) on the grid
    amps = np.empty((grid.size, sel.size), dtype=complex)
    for j, phi in enumerate(grid):
        amps[j] = np.conj(oracle.state(phi)[sel])

    lhs = float(n_target) * amps[1:-1]
    rhs = 2j * (amps[2:] - amps[:-2]) / (2.0 * h)
    return float(np.max(np.abs(lhs - rhs)))
