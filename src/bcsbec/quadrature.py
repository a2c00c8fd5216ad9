"""Adaptive radial quadrature for isotropic 3D momentum integrals.

Isotropic integrals reduce to the radial form

    Integral d^3k/(2 pi)^3 f(k)  =  Integral_0^inf dk  k^2/(2 pi^2) f(k),

evaluated here by adaptive Gauss-Legendre panels in two mapped variables.
The direct region [0, k_t] is mapped by k = c + w sinh(s) (Johnston &
Elliott, Int. J. Numer. Meth. Engng 62 (2005) 564), where the caller names
the integrand's one scale as peak = (c, w): a centre c >= 0 and a width w.
Near c the map is linear with step w, so a peak of width w, and the
log-singular 1/xi of the gap integral, are smooth in s; far from c it is
logarithmic, so one panel count covers scales from w to k_t.  Panels are
uniform in s, and s = 0 is an edge when c > 0, so a step of the integrand
at k = c falls between panels.  f receives the offsets t = k - c, which
carry no rounding of c near the peak.  The tail (k_t, inf), with k_t =
max(_K_MAX, c + _K_MAX w), is mapped by u = k_t/k onto (0, 1], where the
transformed integrand is smooth and bounded for every integrand in this
package (they decay at least like k^-2 radially, thanks to Gamma^2).  A
sharp truncation at k_t alone would lose O(1/k_t) of the gap integral, far
above the solver tolerances, so the tail is integrated rather than bounded.

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
panels and the tail's, and both come from read-only tables.  The direct
panels are uniform in s on each side of s = 0, so for each split of the
_PANELS panels between the sides a table holds their points, half widths
and edges in units of the region's ends: s = s_lo A + s_hi B, one
product (s_lo, s_hi) @ table per integral, with one of A and B zero in
every entry.  Those edges are the only ones the first wave has, so a
panel that refinement bisects is exactly the panel whose estimate the
wave computed.  The tail's points and weights never change; its table
holds them for a tail at _K_MAX, scaled to any other k_t.  The offsets
and weights of both regions are written into one pair of arrays, and
one test of both regions' sums passes a region whose steering columns
meet the tolerance without refinement.  The rule's nodes and weights and
both tables are built on first use, keyed on the module constants, so
numpy.polynomial stays off the import path and a patched constant gets
tables of its own.

radial_integral is the one entry point, and every integral uses the one
rule that the module constants and the peak fix: _PANELS = 12 initial
panels in s and _TAIL_PANELS = 2 in u, each of _NODES = 12 nodes, so a
first wave of (12 + 2) x 3 x 12 = 504 points; tolerances _TOL_ABS and
_TOL_REL; and a refinement budget of _MAX_PANELS panels per region.  The
first wave is sized to the error test: the tail's two panels meet it
without refinement in every gap-solver integral probed, and the direct
region's twelve leave about one integral in fifty to a refinement wave.
Momenta are in units of k0 and integrands in natural units (eps0 = k0 =
1), so the absolute tolerance is one fixed fraction of the model's own
scales.  It returns the integral alone: a converged integral is within tolerance by construction, and one that
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

import math
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "radial_integral"]

# The one integration rule.  The tail starts at _K_MAX k0 or _K_MAX peak
# widths past the peak's centre, whichever is further out; that is the
# boundary between the direct and the reciprocal-mapped region, not a
# truncation.  Doubling _PANELS changes any converged integral by less
# than _TOL_REL (both runs refine to tolerance).  The first wave's size is
# argued in the module docstring.
_PANELS = 12          # initial panel count of the direct region, in s
_TAIL_PANELS = 2      # initial panel count of the tail, in u
_K_MAX = 40.0         # lowest direct/tail boundary, units of k0
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


def _sinh_map(s, c, w, t=None, weight=None):
    """Offsets t = k - c and weights (k^2/(2 pi^2)) dk/ds at points s of k = c + w sinh(s).

    Written into the arrays t and weight when given.
    """
    t = np.sinh(s, out=t)
    t *= w
    weight = np.cosh(s, out=weight)
    k = t + c
    k *= k
    weight *= k
    weight *= w / _RADIAL
    return t, weight


def _tail(u, k_t, c):
    """Offsets t = k - c and weights (k^2/(2 pi^2)) dk/du at points u of k = k_t/u."""
    k = k_t / u
    return k - c, k * k * (k_t / _RADIAL) / (u * u)


def _estimates(f, t, weight, half, rule):
    """Panel estimates of f at the `_layout` points of `rule` = (x, w1, w2).

    t and weight are the offsets and weights at those points, and half the
    panels' half widths.  Each column of f, times the weights, fills one
    row of a (columns, points) buffer, where it forms one contiguous
    (panels, 3n) block; matmul reduces the stack block by block, one
    product per column and rule, so no column's sums depend on another
    column.  Returns est of shape (2, columns, panels): est[0] holds the
    2n-node estimates, est[1] their distance from the n-node ones.  Both
    estimates are checked before they are differenced: a non-finite value
    at a node of either rule raises QuadratureError, and two equal
    infinities are never subtracted.
    """
    _, w1, w2 = rule
    v = np.asarray(f(t), dtype=float)
    buf = np.empty((1 if v.ndim == 1 else v.shape[1], t.size))
    np.multiply(v.T, weight, out=buf)
    blocks = buf.reshape(buf.shape[0], half.size, -1)
    est = np.empty((2, *blocks.shape[:2]))
    np.multiply(half, blocks[..., w1.size:] @ w2, out=est[0])
    np.multiply(half, blocks[..., :w1.size] @ w1, out=est[1])
    if not np.isfinite(est).all():
        raise QuadratureError("non-finite integrand value inside a panel")
    np.subtract(est[0], est[1], out=est[1])
    np.abs(est[1], out=est[1])
    return est


def _converged(total, err):
    """Whether each error estimate meets the tolerance of its total (lists of floats)."""
    for t, e in zip(total, err):
        if not (e <= _TOL_ABS or e <= _TOL_REL * abs(t)):
            return False
    return True


def _adaptive(f, region, a, b, est, steer):
    """Refine the panels [a_i, b_i] of one region until its steering columns converge.

    region maps points to (offsets, weights), and est holds the panels'
    `_estimates`.  The first `steer` columns (all when None) steer the
    refinement; the rest are integrated on the same panels.  Returns the
    integral.
    """
    rule = _rule(_NODES)
    while True:
        total, err_tot = est.sum(axis=2)
        # a few floats, where Python's arithmetic beats numpy's per-call cost
        if _converged(total[:steer].tolist(), err_tot[:steer].tolist()):
            return total
        tol = np.maximum(_TOL_ABS, _TOL_REL * np.abs(total[:steer]))
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


@lru_cache(maxsize=8)
def _tail_table(panels, nodes, k_max):
    """The tail's initial panels and first-wave momenta and weights, read-only.

    Returns (a, b, half, k, weight) for `panels` uniform panels on (0, 1],
    with the tail starting at k_max.
    """
    edges = np.linspace(0.0, 1.0, panels + 1)
    a, b = edges[:-1], edges[1:]
    u, half = _layout(a, b, _rule(nodes)[0])
    table = (a, b, half, *_tail(u, k_max, 0.0))
    for array in table:
        array.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _direct_table(left, right, nodes):
    """The direct region's first-wave layout in units of its ends s_lo and s_hi, read-only.

    The region has `left` uniform panels on [s_lo, 0] and `right` on [0,
    s_hi].  Returns a (2, m) array whose columns hold the `_layout` points
    of every panel, then the panels' half widths, then their left + right
    + 1 edges, each as the pair (A, B) of s = s_lo A + s_hi B.  One of A
    and B is zero in every column, so (s_lo, s_hi) @ table rounds each
    entry once.
    """
    panels, x = left + right, _rule(nodes)[0]
    table = np.zeros((2, (x.size + 2) * panels + 1))
    points, half, edges = np.split(table, [x.size * panels, (x.size + 1) * panels], axis=1)
    unit_lo = 1.0 - np.arange(left + 1) / max(left, 1)   # s_lo to 0 in units of s_lo
    unit_hi = np.arange(right + 1) / right                # 0 to s_hi in units of s_hi
    points[0, :x.size * left], half[0, :left] = _layout(unit_lo[:-1], unit_lo[1:], x)
    points[1, x.size * left:], half[1, left:] = _layout(unit_hi[:-1], unit_hi[1:], x)
    edges[0, :left], edges[1, left:] = unit_lo[:-1], unit_hi
    table.flags.writeable = False
    return table


def radial_integral(f, peak=None, steer=None):
    """Integral d^3k/(2 pi)^3 f(k) = Integral_0^inf dk k^2/(2 pi^2) f(k) for isotropic f.

    peak = (c, w), a finite centre c >= 0 and a finite width w > 0 in k0,
    maps the direct region onto k = c + w sinh(s) (default (0, 1)); the
    tail starts at k_t = max(_K_MAX, c + _K_MAX w) and uses u = k_t/k on
    (0, 1].  Any other peak, or one whose c/w or k_t/w overflows, raises
    ValueError.  f maps a 1D array of offsets t = k - c (k itself when c =
    0) to shape (npts,) or (npts, nf).  Returns the integral, of shape
    (nf,).  The first wave of both regions is evaluated in one call of f;
    a region whose first wave misses the tolerance is refined on its own,
    one call of f per wave.  Only the first `steer` components (all when
    None) steer the refinement; the others ride along on the same panels.
    """
    c, w = (0.0, 1.0) if peak is None else peak
    if not (0.0 <= c < math.inf and 0.0 < w < math.inf):
        raise ValueError(f"peak (c, w) = ({c!r}, {w!r}) needs a finite c >= 0 "
                         "and a finite w > 0")
    k_t = max(_K_MAX, c + _K_MAX * w)
    s_lo, s_hi = math.asinh(-c / w), math.asinh((k_t - c) / w)
    if not s_hi - s_lo < math.inf:
        raise ValueError(f"peak (c, w) = ({c!r}, {w!r}): c/w or k_t/w overflows")
    # uniform panels on each side of the centre s = 0, split in proportion
    # to the sides' lengths; s = 0 is an edge when c > 0, so a step of f
    # at t = 0 falls between panels
    left = min(max(round(_PANELS * s_lo / (s_lo - s_hi)), 1), _PANELS - 1) if c > 0 else 0
    layout = np.dot((s_lo, s_hi), _direct_table(left, _PANELS - left, _NODES))
    m = layout.size - 2 * _PANELS - 1                    # direct points
    s, half, edges = layout[:m], layout[m:m + _PANELS], layout[m + _PANELS:]
    ta, tb, t_half, t_k, t_weight = _tail_table(_TAIL_PANELS, _NODES, _K_MAX)
    # offsets and weights of both regions, the direct points first; the
    # tail's table holds k_t = _K_MAX, where scale is 1
    t, weight = np.empty((2, m + t_k.size))
    _sinh_map(s, c, w, t[:m], weight[:m])
    scale = k_t / _K_MAX
    np.multiply(t_k, scale, out=t[m:])
    t[m:] -= c
    # a product, which overflows to inf where scale**3 would raise
    np.multiply(t_weight, scale * scale * scale, out=weight[m:])
    est = _estimates(f, t, weight, np.concatenate([half, t_half]), _rule(_NODES))
    sums = np.empty((2, *est.shape[:2]))               # (region, total/error, column)
    est[..., :_PANELS].sum(axis=2, out=sums[0])
    est[..., _PANELS:].sum(axis=2, out=sums[1])
    # one test of both regions' steering columns, on a few floats, where
    # Python's arithmetic beats numpy's per-call cost
    met = [_converged(*region) for region in sums[:, :, :steer].tolist()]
    direct = sums[0, 0] if met[0] else _adaptive(
        f, lambda s: _sinh_map(s, c, w), edges[:-1], edges[1:], est[..., :_PANELS], steer)
    tail = sums[1, 0] if met[1] else _adaptive(
        f, lambda u: _tail(u, k_t, c), ta, tb, est[..., _PANELS:], steer)
    return direct + tail
