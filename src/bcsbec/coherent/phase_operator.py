"""Hermitian phase operator on a truncated (s+1)-level number space.

The s+1 phase states

    |theta_m> = (s+1)^{-1/2} sum_n e^{i n theta_m} |n>,
    theta_m = theta0 + 2 pi m / (s+1),   m = 0..s,

form an orthonormal basis, and the phase operator is the spectral sum
theta_hat = sum_m theta_m |theta_m><theta_m|.  It is Hermitian at every
finite s and e^{i theta_hat} is exactly unitary.  Its number-basis matrix
elements have a closed form (Pegg & Barnett, Phys. Rev. A 39, 1665
(1989)): they depend only on d = n - n', and for d != 0

    <n|theta_hat|n'> = theta_d = e^{i d theta0} (2 pi/(s+1)) / (e^{2 pi i d/(s+1)} - 1)
                               = -i (pi/(s+1)) e^{i d (theta0 - pi/(s+1))} / sin(pi d/(s+1)),

the second form being the one evaluated.  The commutator with N is
<n|[theta_hat, N]|n'> = -d theta_d, so on |psi> = sum_n c_n |n>

    <psi|[theta_hat, N]|psi> = sum_{d != 0} theta_d (-d) R(d),
    R(d) = sum_n conj(c_n) c_{n-d},

a Toeplitz sum over the autocorrelation R of the coefficients (one
np.correlate), without forming any (s+1)^2 matrix.  Probe weights below
sqrt(tiny), about 1.5e-154, are zeroed before normalising.  A coherent
tail decays faster than geometrically, so past s of a few hundred it
holds subnormal numbers (16 of them at Omega = 4, s >= 512), and a
subnormal operand costs about 10x in np.correlate (1.25 ms against
0.13 ms at s = 512).  Once they are zeroed, every product of two kept
weights is a normal number, and what is dropped lies far below the last
bit of every reported figure: the tests match the full sum bit for bit.
The dense spectral build survives only as the oracle in the tests.

The expectation does not reach the canonical value -i as s -> infinity,
even on states contained well inside the branch window
[theta0, theta0 + 2 pi).  The deviation |<[theta_hat, N]> + i| tends to
the floor

    (s+1) |<theta0|psi>|^2 = |sum_n c_n e^{-i n theta0}|^2,

the weight of the state on the branch-cut phase state, and only the excess
over that floor falls, as O(s^-2).  For the default probe (Omega = 4, phase
antipodal to the cut) the floor is 1.1223066e-3; the deviation is
1.12296e-3 at s = 64 and 1.12232e-3 at s = 512, and the excess shrinks by
3.94, 3.97 and 3.98 per doubling of s over that range.

The convergence report evaluates that expectation on a coherent state of
mean occupation Omega truncated to the s+1 levels (renormalized, with the
discarded tail weight reported), together with the floor.  The state's
phase defaults to theta0 + pi, antipodal to the branch cut: a state
centered on the cut sees the 2 pi jump of the phase eigenvalues and the
commutator expectation is off by order unity, which is a property of the
branch choice rather than of the truncation.  Number-state weights are
accumulated in log space (math.lgamma) so large Omega does not overflow the
factorials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["PeggBarnettReport", "pegg_barnett"]

# sqrt(tiny), tiny = 2^-1022 the smallest normal double
_SQRT_TINY = 2.0**-511


@dataclass
class PeggBarnettReport:
    """Commutator expectation on a truncated coherent state."""

    Omega: float
    state_phase: float
    commutator_expectation: complex
    deviation_from_canonical: float
    floor: float
    truncation_error: float
    truncation_warning: bool


def pegg_barnett(
    s: int,
    theta0: float = 0.0,
    Omega: float = 4.0,
    state_phase: float | None = None,
) -> PeggBarnettReport:
    """Commutator report of the (s+1)-level phase operator.

    Parameters
    ----------
    s : space dimension minus one (s >= 1).
    theta0 : reference phase; the operator branch is [theta0, theta0+2pi).
    Omega : mean occupation of the probe coherent state (> 0).
    state_phase : phase of the probe state; defaults to theta0 + pi so the
        state sits antipodal to the branch cut.

    Returns a report of <alpha|[theta_hat, N]|alpha>, its distance from
    the canonical -i, the floor (s+1)|<theta0|alpha>|^2 that distance
    tends to, and the truncated tail weight.  A warning fires when Omega
    is within a factor 4 of s: the coherent tail then leaks past the
    truncation and the report is unreliable.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if Omega <= 0.0:
        raise ValueError("Omega must be positive")
    dim = s + 1

    warn = Omega >= s / 4.0
    if warn:
        warnings.warn(
            f"coherent tail not contained: Omega={Omega} within a factor 4 "
            f"of s={s}; commutator report unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    if state_phase is None:
        state_phase = theta0 + np.pi
    n = np.arange(dim)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    log_weight = -0.5 * Omega + 0.5 * n * np.log(Omega) - 0.5 * log_factorial
    weight = np.exp(log_weight)
    # no subnormal operand for np.correlate; see the module docstring
    weight[weight < _SQRT_TINY] = 0.0
    coeff = weight * np.exp(1j * n * state_phase)
    truncation_error = float(1.0 - np.sum(np.abs(coeff) ** 2))
    coeff = coeff / np.linalg.norm(coeff)

    d = np.arange(-s, dim)
    d = d[d != 0]
    theta_d = (
        -1j * (np.pi / dim) * np.exp(1j * d * (theta0 - np.pi / dim))
        / np.sin(np.pi * d / dim)
    )
    # np.correlate(c, c, "full")[k] = sum_n c_{n+k-s} conj(c_n); reversed,
    # entry d+s is R(d) = sum_n conj(c_n) c_{n-d}
    R = np.correlate(coeff, coeff, "full")[::-1]
    value = complex(np.sum(theta_d * -d * R[d + s]))
    return PeggBarnettReport(
        Omega=float(Omega),
        state_phase=float(state_phase),
        commutator_expectation=value,
        deviation_from_canonical=float(abs(value + 1j)),
        floor=float(abs(np.sum(coeff * np.exp(-1j * n * theta0))) ** 2),
        truncation_error=truncation_error,
        truncation_warning=bool(warn),
    )
