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


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(a, b, nodes):
    """Points of the n- and 2n-node Gauss-Legendre rules on panels [a_i, b_i].

    a, b are 1D arrays of panel edges.  Returns (points, half): the flat point
    array that `_panel_sums` expects values at, and the panel half widths.
    """
    x1, _ = _gl_nodes(nodes)
    x2, _ = _gl_nodes(2 * nodes)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts1 = mid[:, None] + half[:, None] * x1[None, :]
    pts2 = mid[:, None] + half[:, None] * x2[None, :]
    return np.concatenate([pts1.ravel(), pts2.ravel()]), half


def _panel_sums(vals, half, nodes):
    """High-order estimates and embedded errors from values at `_panel_nodes`.

    vals has shape (npts, nf).  Returns (high, err) of shape (npanels, nf).
    """
    _, w1 = _gl_nodes(nodes)
    _, w2 = _gl_nodes(2 * nodes)
    npan = half.size
    nf = vals.shape[1]
    v1 = vals[: npan * nodes].reshape(npan, nodes, nf)
    v2 = vals[npan * nodes:].reshape(npan, 2 * nodes, nf)
    lo = half[:, None] * np.einsum("pnf,n->pf", v1, w1)
    hi = half[:, None] * np.einsum("pnf,n->pf", v2, w2)
    if not np.all(np.isfinite(hi)):
        raise QuadratureError("non-finite integrand value inside a panel")
    return hi, np.abs(hi - lo)


def _adaptive(f, edges, first, steer=None):
    """Refine panels with edges `edges` until the steering components converge.

    `first` holds f at the `_panel_nodes` of the initial panels, so the
    caller can evaluate the first wave of several regions in one call.
    The first `steer` components (all when None) steer the refinement; the
    rest are integrated on the same panels.  Returns the integral.
    """
    a = edges[:-1]
    b = edges[1:]
    vals, errs = _panel_sums(first, 0.5 * (b - a), _NODES)
    while True:
        total = vals.sum(axis=0)
        err_tot = errs.sum(axis=0)
        tol = np.maximum(_TOL_ABS, _TOL_REL * np.abs(total[:steer]))
        if np.all(err_tot[:steer] <= tol):
            return total
        if a.size >= _MAX_PANELS:
            raise QuadratureError(
                "panel budget %d exhausted; achieved error %s against tolerance %s"
                % (_MAX_PANELS, err_tot[:steer], tol),
                value=total, error=err_tot,
            )
        # bisect every panel holding more than its per-panel share of the
        # worst-converged component's tolerance
        ratio = errs[:, :steer] / np.maximum(tol, 1e-300)[None, :]
        share = np.max(ratio, axis=1)
        refine = share > 0.5 / a.size
        if not np.any(refine):
            refine = share >= np.max(share)
        ra, rb = a[refine], b[refine]
        mid = 0.5 * (ra + rb)
        new_a = np.concatenate([a[~refine], ra, mid])
        new_b = np.concatenate([b[~refine], mid, rb])
        pts, half = _panel_nodes(np.concatenate([ra, mid]), np.concatenate([mid, rb]), _NODES)
        new_vals, new_errs = _panel_sums(f(pts), half, _NODES)
        keep_vals = vals[~refine]
        keep_errs = errs[~refine]
        a, b = new_a, new_b
        vals = np.concatenate([keep_vals, new_vals])
        errs = np.concatenate([keep_errs, new_errs])


def _initial_edges(lo, hi, breakpoints, count):
    """Edges of `count` initial panels on [lo, hi], seeded by the breakpoints.

    The breakpoints inside (lo, hi) become edges; then the longest segment
    (the first one on ties) is halved until there are `count` panels.  The
    returned array is shared between calls and therefore read-only.
    """
    pts = {lo, hi}
    if breakpoints is not None:
        pts.update(float(p) for p in np.atleast_1d(breakpoints) if lo < p < hi)
    return _split_edges(tuple(sorted(pts)), count)


@lru_cache(maxsize=256)
def _split_edges(seeds, count):
    # list inserts on a few dozen floats: numpy's per-call overhead would
    # dominate at this size
    edges = list(seeds)
    while len(edges) - 1 < count:
        i = max(range(len(edges) - 1), key=lambda j: edges[j + 1] - edges[j])
        edges.insert(i + 1, 0.5 * (edges[i] + edges[i + 1]))
    edges = np.array(edges, dtype=float)
    edges.flags.writeable = False
    return edges


@lru_cache(maxsize=32)
def _tail_nodes(count, nodes):
    """Initial tail edges on (0, 1] and their first-wave nodes, read-only."""
    edges = _initial_edges(0.0, 1.0, None, count)
    u, _ = _panel_nodes(edges[:-1], edges[1:], nodes)
    u.flags.writeable = False
    return edges, u


def radial_integral(f, breakpoints=None, steer=None):
    """Integral d^3k/(2 pi)^3 f(k) = Integral_0^inf dk k^2/(2 pi^2) f(k) for isotropic f.

    f maps a 1D array of k values (in k0) to shape (npts,) or (npts, nf).
    Returns the integral, of shape (nf,).  The direct region is [0, _K_MAX];
    the tail uses u = _K_MAX/k on (0, 1].  The first wave of both regions is
    evaluated in one call of f; refinement waves call f per region.  Only
    the first `steer` components (all when None) steer the refinement; the
    others ride along on the same panels.
    """

    def weighted(k):
        v = np.asarray(f(k), dtype=float)
        return (v[:, None] if v.ndim == 1 else v) * (k**2 / (2.0 * np.pi**2))[:, None]

    def tail_integrand(u):
        return weighted(_K_MAX / u) * (_K_MAX / u**2)[:, None]

    edges = _initial_edges(0.0, _K_MAX, breakpoints, _PANELS)
    tail_edges, u = _tail_nodes(max(2, _PANELS // 4), _NODES)
    k, _ = _panel_nodes(edges[:-1], edges[1:], _NODES)
    first = weighted(np.concatenate([k, _K_MAX / u]))
    direct = _adaptive(weighted, edges, first[: k.size], steer)
    tail = _adaptive(tail_integrand, tail_edges, first[k.size:] * (_K_MAX / u**2)[:, None], steer)
    return direct + tail
