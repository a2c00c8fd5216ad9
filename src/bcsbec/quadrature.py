"""Adaptive radial quadrature for isotropic 3D momentum integrals.

Isotropic integrals reduce to the radial form

    Integral d^3k/(2 pi)^3 f(k)  =  Integral_0^inf dk  k^2/(2 pi^2) f(k),

evaluated here by adaptive Gauss-Legendre panels on [0, k_max] plus an exact
treatment of the tail: on (k_max, inf) the substitution u = k_max/k maps the
remainder onto (0, 1], where the transformed integrand is smooth and bounded
for every integrand in this package (they decay at least like k^-2 radially,
thanks to Gamma^2).  A sharp truncation at k_max alone would lose O(1/k_max)
of the gap integral, far above the solver tolerances, so the tail is
integrated rather than bounded.

Panels are refined by bisecting wherever the embedded error estimate
(difference between an n-node and a 2n-node rule on the same panel) exceeds
its share of the tolerance.  Integrands are evaluated vectorized over every
pending node of a refinement wave, and may be vector-valued (several
integrands sharing one set of panels).

One wave runs in a few numpy calls.  Each panel carries one layout of
3n points, the n nodes and then the 2n nodes, so the wave's points are
one (panels, 3n) array.  f is called once on them, and its values times
the radial weights fill a (columns, points) buffer.  There each column is
a contiguous (panels, 3n) block, and one matmul per rule reduces the
stack block by block, one product per column.  A column's sums therefore
never depend on the other columns.  The first wave covers the direct
panels and the tail's, whose points and weights never change and are
kept in a table.  The rule's nodes and weights and that table are built
on first use, keyed on the module constants, so numpy.polynomial stays off
the import path and a patched constant gets tables of its own.

radial_integral is the one entry point, and every integral uses the one
rule that the module constants fix: _PANELS initial panels of _NODES
nodes on [0, _K_MAX], tolerances _TOL_ABS and _TOL_REL, and a
refinement budget of _MAX_PANELS panels.  Momenta are in units of k0 and
integrands in natural units (eps0 = k0 = 1), so the absolute tolerance is
one fixed fraction of the model's own scales.  It returns the integral alone: a
converged integral is within tolerance by construction, and one that
cannot converge raises QuadratureError, which carries the best value and
its error estimate.

Only the first `steer` components of a vector-valued integrand steer the
refinement: they alone enter the error test and pick the panels to bisect.
Any further components ride along, integrated on the panels the steering
ones chose, with no error test of their own.  The steering components
therefore come out bit-identical to a call without the riders.  The gap
solver carries its Jacobian integrands this way.  Steering on them would
cost far more panels than the residuals need, and deep in the BCS regime
round-off in their sharp 1/xi^3 peaks stalls their error estimates above
tolerance until the panel budget runs out.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "radial_integral"]

# The one integration rule.  _K_MAX, in units of k0, marks the boundary
# between the direct and the reciprocal-mapped region, not a truncation.
# Doubling _PANELS changes any converged integral by less than _TOL_REL
# (both runs refine to tolerance).
_PANELS = 16          # initial panel count on [0, _K_MAX]
_K_MAX = 40.0         # direct/tail boundary, units of k0
_TOL_ABS = 1e-14
_TOL_REL = 1e-12
_NODES = 12           # nodes per panel; error from the 2*_NODES rule
_MAX_PANELS = 4000    # refinement budget per integral


class QuadratureError(RuntimeError):
    """Raised when panel refinement exhausts its budget.

    Carries the best value and the achieved error estimate so callers can
    report how far from tolerance the integral remained.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


# the radial weight k^2/(2 pi^2) is k^2 / _RADIAL
_RADIAL = 2.0 * np.pi**2


@lru_cache(maxsize=8)
def _rule(nodes):
    """One panel's layout of the n- and 2n-node Gauss-Legendre pair, read-only.

    Returns (x, w1, w2): the 3n node offsets on [-1, 1], the n-node rule
    first, and the weights of the two rules.  Built on first use, so
    numpy.polynomial stays off the import path.
    """
    x1, w1 = np.polynomial.legendre.leggauss(nodes)
    x2, w2 = np.polynomial.legendre.leggauss(2 * nodes)
    rule = (np.concatenate([x1, x2]), w1, w2)
    for array in rule:
        array.flags.writeable = False
    return rule


def _layout(a, b, x):
    """Points of the node layout x on panels [a_i, b_i], panel by panel, and half widths."""
    half = 0.5 * (b - a)
    pts = np.multiply.outer(half, x)
    pts += (0.5 * (a + b))[:, None]
    return pts.ravel(), half


def _direct(k):
    """Momenta and radial weights k^2/(2 pi^2) at points k of the direct region."""
    return k, k**2 / _RADIAL


def _tail(u):
    """Momenta k = _K_MAX/u and weights (k^2/(2 pi^2)) dk/du at points u of the tail."""
    k = _K_MAX / u
    return k, k**2 / _RADIAL * (_K_MAX / u**2)


def _estimates(f, k, weight, half, rule):
    """Panel estimates of f at the `_layout` points of `rule` = (x, w1, w2).

    k and weight are the momenta and weights at those points, and half the
    panels' half widths.  Each column of f, times the weights, fills one
    row of a (columns, points) buffer, where it forms one contiguous
    (panels, 3n) block; matmul reduces the stack block by block, one
    product per column and rule, so no column's sums depend on another
    column.  Returns est of shape (2, columns, panels): est[0] holds the
    2n-node estimates, est[1] their distance from the n-node ones.
    """
    _, w1, w2 = rule
    v = np.asarray(f(k), dtype=float)
    buf = np.empty((1 if v.ndim == 1 else v.shape[1], k.size))
    np.multiply(v.T, weight, out=buf)
    blocks = buf.reshape(buf.shape[0], half.size, -1)
    est = np.empty((2, *blocks.shape[:2]))
    np.multiply(half, blocks[..., w1.size:] @ w2, out=est[0])
    if not np.isfinite(est[0]).all():
        raise QuadratureError("non-finite integrand value inside a panel")
    np.subtract(est[0], half * (blocks[..., :w1.size] @ w1), out=est[1])
    np.abs(est[1], out=est[1])
    return est


def _adaptive(f, region, a, b, est, steer):
    """Refine the panels [a_i, b_i] of one region until its steering columns converge.

    region maps points to (momenta, weights), and est holds the panels'
    `_estimates`.  The first `steer` columns (all when None) steer the
    refinement; the rest are integrated on the same panels.  Returns the
    integral.
    """
    rule = _rule(_NODES)
    while True:
        total, err_tot = est.sum(axis=2)
        # a few floats, where Python's arithmetic beats numpy's per-call cost
        tol = [max(_TOL_ABS, _TOL_REL * abs(t)) for t in total[:steer].tolist()]
        if all(e <= t for e, t in zip(err_tot[:steer].tolist(), tol)):
            return total
        tol = np.array(tol)
        if a.size >= _MAX_PANELS:
            raise QuadratureError(
                "panel budget %d exhausted; achieved error %s against tolerance %s"
                % (_MAX_PANELS, err_tot[:steer], tol),
                value=total, error=err_tot,
            )
        # bisect every panel holding more than its per-panel share of the
        # worst-converged column's tolerance
        share = (est[1, :steer] / np.maximum(tol, 1e-300)[:, None]).max(axis=0)
        refine = share > 0.5 / a.size
        if not refine.any():
            refine = share >= share.max()
        keep = ~refine
        ra, rb = a[refine], b[refine]
        mid = 0.5 * (ra + rb)
        new_a = np.concatenate([ra, mid])
        new_b = np.concatenate([mid, rb])
        pts, half = _layout(new_a, new_b, rule[0])
        new_est = _estimates(f, *region(pts), half, rule)
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        est = np.concatenate([est[..., keep], new_est], axis=2)


def _initial_edges(lo, hi, breakpoints, count):
    """Edges of `count` initial panels on [lo, hi], seeded by the breakpoints.

    The breakpoints inside (lo, hi) become edges; then the longest segment
    (the first one on ties) is halved until there are `count` panels.
    """
    inner = () if breakpoints is None else {p for p in breakpoints if lo < p < hi}
    edges = [lo, *sorted(inner), hi]
    # lists of a few dozen floats, where numpy's per-call cost would
    # dominate; each length is the difference of its segment's edges
    lengths = [r - l for l, r in zip(edges, edges[1:])]
    while len(lengths) < count:
        i = lengths.index(max(lengths))
        mid = 0.5 * (edges[i] + edges[i + 1])
        edges.insert(i + 1, mid)
        lengths[i:i + 1] = (mid - edges[i], edges[i + 2] - mid)
    return np.array(edges)


@lru_cache(maxsize=8)
def _tail_table(panels, nodes, k_max):
    """The tail's initial panels and first-wave momenta and weights, read-only.

    Returns (a, b, half, k, weight) for max(2, panels // 4) panels on
    (0, 1]; k_max, the _K_MAX that `_tail` reads, only keys the table.
    """
    edges = _initial_edges(0.0, 1.0, None, max(2, panels // 4))
    a, b = edges[:-1], edges[1:]
    u, half = _layout(a, b, _rule(nodes)[0])
    table = (a, b, half, *_tail(u))
    for array in table:
        array.flags.writeable = False
    return table


def radial_integral(f, breakpoints=None, steer=None):
    """Integral d^3k/(2 pi)^3 f(k) = Integral_0^inf dk k^2/(2 pi^2) f(k) for isotropic f.

    f maps a 1D array of k values (in k0) to shape (npts,) or (npts, nf).
    breakpoints, a sequence of momenta, seeds the initial panel edges (see
    `_initial_edges`).  Returns the integral, of shape (nf,).  The direct
    region is [0, _K_MAX];
    the tail uses u = _K_MAX/k on (0, 1].  The first wave of both regions is
    evaluated in one call of f; refinement waves call f per region.  Only
    the first `steer` components (all when None) steer the refinement; the
    others ride along on the same panels.
    """
    rule = _rule(_NODES)
    edges = _initial_edges(0.0, _K_MAX, breakpoints, _PANELS)
    ta, tb, t_half, t_k, t_weight = _tail_table(_PANELS, _NODES, _K_MAX)
    a, b = edges[:-1], edges[1:]
    k, half = _layout(a, b, rule[0])
    est = _estimates(f, np.concatenate([k, t_k]), np.concatenate([_direct(k)[1], t_weight]),
                     np.concatenate([half, t_half]), rule)
    n = a.size
    return (_adaptive(f, _direct, a, b, est[..., :n], steer)
            + _adaptive(f, _tail, ta, tb, est[..., n:], steer))
