"""Exact finite-mode oracle for the pair algebra (brute force, small M).

Each pairing mode k is a two-level system (Anderson's pseudo-spin): the
pair (k up, -k down) is either empty or occupied, so M modes span a 2^M
dimensional space indexed by bit patterns (bit k = occupancy of mode k).
The pair annihilator S-^(k) of mode k maps bit k from 1 to 0, its adjoint
S+^(k) creates the pair, (S+)^2 = 0, and the particle number is
N = 2 sum_k n_k with n_k = S+^(k) S-^(k).

The collective mode is b = Omega^{-1/2} sum_k theta_k S-^(k).  No matrix
is built: viewed as shape (2^(M-1-k), 2, 2^k), a state vector's middle
axis is bit k, so b psi is M strided slice-adds of the occupied half onto
the empty one, and b+ psi the mirror image.  The commutator defect
eta = 1 - [b, b+] follows from [b, b+] psi = b (b+ psi) - b+ (b psi), and
every analytic statement about overlaps and eta statistics is checked
against dense state vectors here with no approximation.  The oracle is
deliberately brute force, never the closed form eta = (2/Omega)
sum_k theta_k^2 n_k that it checks, and is capped at M <= 12 (dim 4096),
which bounds each operator application to M 2^M work.

The paired product state with common phase phi is

    |phi> = prod_k [cos(theta_k) + e^{i phi} sin(theta_k) S+^(k)] |0>,

so the amplitude on a basis state with m occupied modes carries e^{i m phi}
and the particle-number operator acts as a phase derivative.  The state is
built as the Kronecker product of the mode factors [cos theta_k,
e^{i phi} sin theta_k], mode M-1 first, each new mode becoming the lowest
bit: the cosines and sines are taken once per oracle, and each mode writes
its two halves with `out=` into the even and odd entries of one of two
preallocated vectors, so a build allocates nothing per mode.  The identity
N = 2i d/dphi holds on the bra-side amplitudes <phi|n>; on the ket-side
<n|phi> the sign flips, so the derivative check below differentiates the
conjugated amplitudes.  Pair states carry even particle number only, so
every odd-sector overlap vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import PairEnsemble

__all__ = ["FockOracle", "build_fock_oracle", "number_phase_derivative_check"]

_MAX_MODES = 12


@dataclass
class FockOracle:
    """Matrix-free pair operators and state builder on the 2^M pair space."""

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
        self._weights = self.theta / np.sqrt(self.Omega)
        self._cos = np.cos(self.theta)
        self._sin = np.sin(self.theta)

    # ---- operators, applied to a state vector ------------------------

    def _pair_hop(self, psi: np.ndarray, to_bit: int) -> np.ndarray:
        """sum_k w_k |to_bit><1 - to_bit| on mode k, applied to psi: b for 0, b+ for 1.

        w = theta / sqrt(Omega).
        """
        psi = np.asarray(psi)
        if psi.shape != (self.dim,):
            raise ValueError(f"state vector must have shape ({self.dim},)")
        out = np.zeros_like(psi)
        from_bit = 1 - to_bit
        for k, w in enumerate(self._weights.tolist()):
            shape = (-1, 2, 1 << k)
            half = out.reshape(shape)[:, to_bit]
            half += w * psi.reshape(shape)[:, from_bit]
        return out

    def b(self, psi: np.ndarray) -> np.ndarray:
        """Collective annihilator Omega^{-1/2} sum_k theta_k S-^(k) applied to psi."""
        return self._pair_hop(psi, 0)

    def b_dagger(self, psi: np.ndarray) -> np.ndarray:
        """Collective creator b+ applied to psi."""
        return self._pair_hop(psi, 1)

    def commutator_b(self, psi: np.ndarray) -> np.ndarray:
        """[b, b+] psi = b (b+ psi) - b+ (b psi)."""
        return self.b(self.b_dagger(psi)) - self.b_dagger(self.b(psi))

    def eta(self, psi: np.ndarray) -> np.ndarray:
        """eta psi = psi - [b, b+] psi."""
        return psi - self.commutator_b(psi)

    # ---- states and expectations -------------------------------------

    def state(self, phi: float | None = None) -> np.ndarray:
        """Dense vector of the paired product state at phase phi."""
        if phi is None:
            phi = self.phi
        occupied = np.exp(1j * phi) * self._sin
        psi = np.empty(self.dim, dtype=complex)
        spare = np.empty(self.dim, dtype=complex)
        psi[0] = 1.0
        # modes M-1 down to 0, each doubling the vector as its new lowest
        # bit, keep bit k = mode k and multiply in the order of the Kronecker
        # product of the mode factors: the first n entries of psi go, times
        # each factor, into the even and odd entries of spare's first 2n
        n = 1
        for k in range(self.n_modes - 1, -1, -1):
            np.multiply(psi[:n], self._cos[k], out=spare[0:2 * n:2])
            np.multiply(psi[:n], occupied[k], out=spare[1:2 * n:2])
            psi, spare = spare, psi
            n *= 2
        return psi

    def overlap(self, phi_prime: float, phi: float) -> complex:
        """Exact inner product <phi'|phi> of two product states."""
        return complex(np.vdot(self.state(phi_prime), self.state(phi)))

    def eta_moments(self, phi: float | None = None) -> dict:
        """<eta> and <eta^2> - <eta>^2 on the product state.

        eta is Hermitian, so <eta^2> = ||eta psi||^2.
        """
        psi = self.state(phi)
        eta_psi = self.eta(psi)
        m1 = float(np.vdot(psi, eta_psi).real)
        m2 = float(np.vdot(eta_psi, eta_psi).real)
        return {"mean": m1, "variance": m2 - m1 * m1}


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
    sel = np.flatnonzero(np.bitwise_count(np.arange(oracle.dim)) == pairs)
    if sel.size == 0:
        return 0.0

    # bra-side amplitudes <phi|n> = conj(<n|phi>) on the grid
    amps = np.empty((grid.size, sel.size), dtype=complex)
    for j, phi in enumerate(grid):
        amps[j] = np.conj(oracle.state(phi)[sel])

    lhs = float(n_target) * amps[1:-1]
    rhs = 2j * (amps[2:] - amps[:-2]) / (2.0 * h)
    return float(np.max(np.abs(lhs - rhs)))
