"""1-D quadrature: adaptive dyadic Gauss-Legendre panels for integrals
from zero, a fixed Gauss-Legendre rule graded toward both ends of each
of many segments, and log-domain integration of power-law-decaying
radial integrands with analytic extrapolation past a cutoff."""

from __future__ import annotations

import functools
import math

import numpy as np

# bracket width, relative to its upper end, at which bisection stops
BISECT_REL_TOL = 1e-12
# ``integrate_zero_to``: relative tolerance, dyadic panels per integral,
# and integrals evaluated together
ZERO_TO_TOL = 5e-11
ZERO_TO_PANELS = 48
ZERO_TO_CHUNK = 2048
# ``integrate_radial``: the log-space body ends at RADIAL_CUTOFF * r0,
# after at most RADIAL_LEVELS halvings of the Simpson step
RADIAL_CUTOFF = 1e6
RADIAL_LEVELS = 16


@functools.lru_cache(maxsize=32)
def _gl_rule(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def _gl_panels(fn, lo, hi, npts):
    """Gauss-Legendre on each panel [lo_k, hi_k]; lo/hi arrays of equal shape."""
    x, w = _gl_rule(npts)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    # nodes shape (*panels, npts)
    nodes = mid[..., None] + half[..., None] * x
    vals = fn(nodes)
    return half * (vals @ w)


def integrate_zero_to(fn, t):
    """Integrate ``fn`` from 0 to ``t`` (scalar or array, entries >= 0).

    [0, t] is split into ``ZERO_TO_PANELS`` dyadic panels accumulated
    from the outside in, so an integrable power-type corner of ``fn`` at
    zero is isolated in panels of negligible relative weight.  Each panel
    is evaluated with nested Gauss-Legendre rules, halving the effective
    spacing until the observed discrepancy is below ``ZERO_TO_TOL``
    relative to the running total.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tv = np.atleast_1d(t).ravel().astype(float)
    if np.any(tv < 0):
        raise ValueError("upper integration limit must be >= 0")
    out = np.zeros_like(tv)
    pos = np.flatnonzero(tv > 0)
    for start in range(0, pos.size, ZERO_TO_CHUNK):
        sel = pos[start:start + ZERO_TO_CHUNK]
        out[sel] = _integrate_chunk(fn, tv[sel])
    if scalar:
        return float(out[0])
    return out.reshape(t.shape)


def _integrate_chunk(fn, tv):
    # panel edges t*2^-k, k = 0..panels-1; last panel closes down to 0
    k = np.arange(ZERO_TO_PANELS, dtype=float)
    hi = tv[:, None] * np.exp2(-k)
    lo = np.empty_like(hi)
    lo[:, :-1] = hi[:, 1:]
    lo[:, -1] = 0.0
    for npts in (16, 32, 64, 128):
        coarse = _gl_panels(fn, lo, hi, npts)
        fine = _gl_panels(fn, lo, hi, 2 * npts)
        total = fine.sum(axis=1)
        err = np.abs(fine - coarse).sum(axis=1)
        if np.all(err <= ZERO_TO_TOL * np.maximum(np.abs(total), 1e-300)):
            return total
    raise RuntimeError(
        "dyadic Gauss-Legendre quadrature did not reach the requested "
        f"tolerance {ZERO_TO_TOL:g} at order 256"
    )


@functools.lru_cache(maxsize=8)
def graded_rule(panels, npts):
    """Nodes and weights on [0, 1] of a composite Gauss-Legendre rule,
    ``npts`` points per panel, ``panels`` panels per half: the panel
    edges of the left half are 2^-1, 2^-2, ..., 2^-panels and 0, and the
    right half is its mirror image.  Panels that halve toward an end
    resolve an integrable power-type corner there."""
    x, w = _gl_rule(npts)
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
    integrand values of that shape; segments with hi_k = lo_k give 0.
    """
    x, w = graded_rule(panels, npts)
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    return span * (fn(lo[:, None] + span[:, None] * x) @ w)


def integrate_radial(fn, r0, tol=1e-10):
    """Integral of ``fn`` over [r0, inf) for integrands that settle into
    a power law at large radius.

    Returns ``(value, diverged)``.  ``fn`` must accept an array of radii
    and may return either a vector (one integrand) or a matrix of rows
    sharing the radii (a family of integrands); ``value``/``diverged``
    then follow that shape.

    [r0, RADIAL_CUTOFF*r0] is integrated by composite Simpson in log
    space with interval halving until the relative change drops below
    ``tol``.  Past the cutoff the local log-log slope m of fn is
    measured and the remainder closed analytically as
    fn(Rc)*Rc/(-1-m); a slope >= -1 marks divergence.
    """
    if r0 <= 0:
        raise ValueError("radial integrals start at a positive radius")
    a = math.log(r0)
    b = math.log(r0 * RADIAL_CUTOFF)

    def h(u):
        rho = np.exp(u)
        return fn(rho) * rho  # substitution rho = e^u

    n = 64
    prev = _simpson(h, a, b, n)
    for _ in range(RADIAL_LEVELS):
        n *= 2
        cur = _simpson(h, a, b, n)
        if np.all(np.abs(cur - prev) <= tol * np.maximum(np.abs(cur), 1e-300)):
            prev = cur
            break
        prev = cur
    body = prev

    rc = r0 * RADIAL_CUTOFF
    step = 1.05
    f_lo = np.asarray(fn(np.array([rc / step])))[..., 0]
    f_hi = np.asarray(fn(np.array([rc * step])))[..., 0]
    f_c = np.asarray(fn(np.array([rc])))[..., 0]
    # slope of |fn|; the sign at the cutoff closes a signed integrand too
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (np.log(np.abs(f_hi)) - np.log(np.abs(f_lo))) \
            / (2.0 * math.log(step))
    dead = f_c == 0.0
    slope = np.where(dead, -np.inf, slope)
    diverged = slope >= -1.0 - 1e-9
    denom = np.where(dead | diverged, 1.0, -1.0 - slope)
    remainder = np.where(dead | diverged, 0.0, f_c * rc / denom)
    value = np.where(diverged, np.inf, body + remainder)
    if value.ndim == 0:
        return float(value), bool(diverged)
    return value, diverged


def _simpson(h, a, b, n):
    u = np.linspace(a, b, n + 1)
    vals = np.asarray(h(u), dtype=float)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * n) * (vals @ w)


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
