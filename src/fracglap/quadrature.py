"""1-D quadrature on one fixed Gauss-Legendre rule graded toward both
ends of a segment: integrals over many segments at once, integrals from
zero after the substitution tau = t u, and radial integrals over
[r0, inf) after the substitution tau = rho^(-m)."""

from __future__ import annotations

import functools
import math

import numpy as np

# bracket width, relative to its upper end, at which bisection stops
BISECT_REL_TOL = 1e-12
# the graded rule of every integral here (``integrate_zero_to``,
# ``integrate_radial`` and the solver's power-exterior tail): panels per
# half segment and Gauss-Legendre points per panel
FAR_PANELS = 40
FAR_POINTS = 8
# nodes per block of ``integrate_zero_to`` and of the solver's
# power-exterior tail, whose temporaries (at most 64 KiB each) malloc
# serves from its heap.  At 2^14 nodes (128 KiB each) freeing a block's
# temporaries could return the heap's top to the system, depending on
# the heap's layout, for the next block to fault in again: a power_log
# build then took twice as long.
BLOCK_NODES = 2**13


@functools.lru_cache(maxsize=8)
def graded_rule(panels, npts):
    """Nodes and weights on [0, 1] of a composite Gauss-Legendre rule,
    ``npts`` points per panel, ``panels`` panels per half: the panel
    edges of the left half are 2^-1, 2^-2, ..., 2^-panels and 0, and the
    right half is its mirror image.  Panels that halve toward an end
    resolve an integrable power-type corner there."""
    x, w = np.polynomial.legendre.leggauss(npts)
    hi = 0.5 * np.exp2(-np.arange(panels, dtype=float))
    lo = np.append(hi[1:], 0.0)
    half = 0.5 * (hi - lo)
    left = (0.5 * (hi + lo))[:, None] + half[:, None] * x
    wl = half[:, None] * w
    nodes = np.concatenate([left.ravel(), 1.0 - left.ravel()[::-1]])
    weights = np.concatenate([wl.ravel(), wl.ravel()[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate_graded(fn, lo, hi, panels, npts):
    """Integral of ``fn`` over each segment [lo_k, hi_k] by the
    ``graded_rule`` mapped onto it.

    ``fn`` receives the (segments, points) array of nodes and returns
    integrand values of that shape, or a tuple of such arrays, several
    integrands on the same nodes, for a tuple of integrals back; segments
    with hi_k = lo_k give 0.  Each segment is summed by numpy's row sum,
    so its integral has the same bits whichever segments share the call.
    """
    x, w = graded_rule(panels, npts)
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    vals = fn(lo[:, None] + span[:, None] * x)
    if isinstance(vals, tuple):
        return tuple(span * (v * w).sum(axis=1) for v in vals)
    return span * (vals * w).sum(axis=1)


def integrate_zero_to(fn, t):
    """Integral of ``fn`` from 0 to each entry of ``t`` (scalar or array,
    entries >= 0) as t int_0^1 fn(t u) du on the ``graded_rule``, whose
    panels halving toward u = 0 resolve a power or log corner at zero.
    ``fn`` receives the (rows, points) nodes tau = t u and the unit nodes
    u, so log(t / tau) = -log u needs no t.  Rows go in blocks of at most
    ``BLOCK_NODES`` nodes.
    """
    t = np.asarray(t, dtype=float)
    tv = np.atleast_1d(t).ravel()
    if np.any(tv < 0):
        raise ValueError("upper integration limit must be >= 0")
    u, w = graded_rule(FAR_PANELS, FAR_POINTS)
    out = np.zeros_like(tv)
    pos = np.flatnonzero(tv > 0)
    rows = max(1, BLOCK_NODES // u.size)
    for start in range(0, pos.size, rows):
        sel = pos[start:start + rows]
        # a row sum, as in ``integrate_graded``: the same bits in any block
        out[sel] = tv[sel] * (fn(tv[sel, None] * u, u) * w).sum(axis=1)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def integrate_radial(fn, r0, m, breaks=()):
    """Integral over [r0, inf) of ``fn`` (entrywise in an array of
    radii), of order rho^(-1-m) at most at large rho, up to a log:

        int_r0^inf fn(rho) drho = (1/m) int_0^T0 fn(rho) rho / tau dtau

    with tau = rho^(-m), T0 = r0^(-m); that integrand is bounded at 0 up
    to a power or log corner.  The graded rule runs on each segment
    between 0, the images of the radii ``breaks`` past r0, and T0.
    Nodes whose radius overflows contribute 0, which leaves out a share
    of order (r0 / 1.8e308)^m, below 1e-13 for m >= 0.045.  For m <= 0
    the integral diverges: inf.  Close to divergence the nodes reach
    radii about r0 (5.5e13)^(1/m); where ``fn`` raises OverflowError
    there, a ValueError says so.
    """
    if r0 <= 0:
        raise ValueError("radial integrals start at a positive radius")
    if m <= 0:
        return math.inf
    edges = np.array([0.0, *sorted(b ** -m for b in breaks if b > r0),
                      r0 ** -m])

    def integrand(tau):
        with np.errstate(over="ignore"):
            rho = tau ** (-1.0 / m)
        out = np.zeros_like(tau)
        ok = np.isfinite(rho)
        try:
            out[ok] = fn(rho[ok]) * rho[ok] / tau[ok]
        except OverflowError as exc:
            raise ValueError("the far field is too close to divergence "
                             f"(decay exponent m = {m:.3g}): {exc}") from exc
        return out

    return float(np.sum(integrate_graded(integrand, edges[:-1], edges[1:],
                                         FAR_PANELS, FAR_POINTS))) / m


def bisect_increasing(fn, y, hi=None, hi_cap=None):
    """Solve fn(t) = y on t >= 0 for an increasing vectorized ``fn``,
    entrywise; the root of y = 0 is 0.

    Brackets by doubling ``hi`` (default 1, capped at ``hi_cap``) until
    fn(hi) >= y, then bisects [0, hi] until the bracket width is below
    ``BISECT_REL_TOL`` relative to its upper end and returns the
    midpoint.  This is the package's one root finder.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    yv = np.atleast_1d(y).astype(float)
    if np.any(yv < 0):
        raise ValueError("targets must be >= 0")
    lo_v = np.zeros_like(yv)
    hi_v = np.where(yv > 0, 1.0 if hi is None else hi, 0.0)
    for _ in range(200):
        need = fn(hi_v) < yv
        if not np.any(need):
            break
        grown = 2.0 * hi_v if hi_cap is None else np.minimum(2.0 * hi_v, hi_cap)
        if np.all(grown[need] == hi_v[need]):
            raise RuntimeError(
                "bracketing failed: target not reached at the cap "
                f"hi={hi_v.max():.3e}"
            )
        hi_v = np.where(need, grown, hi_v)
    else:
        raise RuntimeError(
            "bracketing failed: target not reached below "
            f"hi={hi_v.max():.3e}"
        )
    # halving terminates: adjacent doubles (subnormals included) are
    # closer than BISECT_REL_TOL relative to max(hi, 1e-300)
    while np.any(hi_v - lo_v > BISECT_REL_TOL * np.maximum(hi_v, 1e-300)):
        mid = 0.5 * (lo_v + hi_v)
        high = fn(mid) >= yv
        hi_v = np.where(high, mid, hi_v)
        lo_v = np.where(high, lo_v, mid)
    root = 0.5 * (lo_v + hi_v)
    if scalar:
        return float(root[0])
    return root.reshape(y.shape)
