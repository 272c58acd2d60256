"""Growth profiles: the pair (G, g) with G' = g that sets the
nonlinearity of the nonlocal operator, in one object (``NFunction``)
together with the far-tail profile H, inverses, the Legendre conjugate,
and checks of the structural inequalities every admissible profile must
satisfy.

The profile is characterized by lower/upper growth indices (p, q) with

    1 < p <= t*g(t)/G(t) <= q < infty   for all t > 0,

which is the only structural assumption; doubling constants and all
scaling inequalities used downstream follow from it.  Supported
families:

* ``power``      -- g(t) = t**(p-1); closed forms throughout, p == q.
* ``power_log``  -- g(t) = t**(p-1)*log(1+t); indices (p, p+1); G is
                    evaluated by a certified piecewise-Chebyshev
                    accelerator, by its two-term series below the
                    accelerator's range and by the graded-rule
                    quadrature ``quadrature.integrate_zero_to`` above.
* ``table``      -- strictly increasing samples of g, monotone
                    piecewise-linear interpolation; G integrates the
                    interpolant exactly; indices derived exactly from
                    the data unless declared.  g has a kink at each
                    interior sample (``NFunction.knots``).

All evaluation methods accept scalars or numpy arrays and are pure;
instances are not modified after construction and are safe to share
across workers.
"""

from __future__ import annotations

import bisect
import math
from functools import cached_property

import numpy as np

from .quadrature import bisect_increasing, integrate_zero_to
from .reports import EstimateReport, ratio_array

REPRESENTABLE_MAX = 1e30
# accelerator tables are certified to half of this against the
# quadrature they replace (``quadrature.integrate_zero_to``, accurate to
# about 1e-14)
CERTIFY_TOL = 1e-11
# power_log G and H below this take their two-term series (relative
# error about t^2); the accelerator starts here
SERIES_MAX = 1e-14

_FAMILIES = ("power", "power_log", "table")


def _check_domain(t, what="argument"):
    # one pass for each bound; fmin and fmax skip NaN as the comparisons
    # would, and the initial 0 lets an empty or all-NaN array pass
    if np.fmin.reduce(t, axis=None, initial=0.0) < 0:
        raise ValueError(f"{what} must be >= 0")
    if np.fmax.reduce(t, axis=None, initial=0.0) > REPRESENTABLE_MAX:
        raise OverflowError(
            f"{what} exceeds the representable range [0, {REPRESENTABLE_MAX:g}]"
        )


def _checked(body, what="argument"):
    """The public form of an evaluation body: ``body`` gets a float
    array whose entries lie in [0, REPRESENTABLE_MAX] (``_check_domain``),
    and a scalar argument gets a float back."""
    def method(self, t):
        t = np.asarray(t, dtype=float)
        _check_domain(t, what)
        val = body(self, t)
        return float(val) if t.ndim == 0 else val

    method.__doc__ = body.__doc__
    return method


def _anchored_table(table):
    """The (m, 2) samples (t_i, g_i) of a tabulated g, strictly
    increasing in both coordinates, with the anchor (0, 0) prepended
    when t_0 > 0."""
    tab = np.asarray(table, dtype=float)
    if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
        raise ValueError("table must be an (m, 2) array with m >= 2")
    if np.any(np.diff(tab[:, 0]) <= 0) or np.any(np.diff(tab[:, 1]) <= 0):
        raise ValueError("table samples must be strictly increasing "
                         "in both coordinates")
    if tab[0, 0] < 0 or tab[0, 1] < 0:
        raise ValueError("table samples must be nonnegative")
    if tab[0, 0] > 0:
        return np.vstack([[0.0, 0.0], tab])
    if tab[0, 1] != 0.0:
        raise ValueError("g(0) must be 0")
    return tab


def _clenshaw(c, idx, x):
    """Chebyshev series at x (shape (n,)) with the coefficient column
    idx[i] of c (shape (degree + 1, intervals)) at x[i]; numpy's chebval
    recurrence, gathering one coefficient row per step."""
    x2 = 2.0 * x
    c0, c1 = c[-2].take(idx), c[-1].take(idx)
    for k in range(3, len(c) + 1):
        c0, c1 = c[-k].take(idx) - c1, c0 + c1 * x2
    return c0 + c1 * x


class _ChebLogG:
    """Piecewise-Chebyshev fits in x = log t on equal intervals of
    [log lo, log hi]: one of log G(e^x), and the antiderivative in x of
    a fit of G(e^x), which is H up to the constant H(lo).  Both are
    certified at construction against the direct quadrature on off-node
    points: ``err`` is the G fit's worst relative error, which the
    caller judges, and a failed H fit leaves ``hcoef`` None.
    """

    def __init__(self, exact, lo, hi, intervals, degree, target, exact_H):
        self.lo = lo
        self.hi = hi
        self.edges = np.linspace(math.log(lo), math.log(hi), intervals + 1)
        self.width = self.edges[1] - self.edges[0]
        k = np.arange(degree + 1)
        ref = np.cos(math.pi * (k + 0.5) / (degree + 1))  # Chebyshev points
        a = self.edges[:-1][:, None]
        b = self.edges[1:][:, None]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * ref  # (intervals, degree+1)
        Gn = exact(np.exp(nodes.ravel())).reshape(nodes.shape)
        # one column of coefficients per interval
        self.coef = np.polynomial.chebyshev.chebfit(ref, np.log(Gn).T, degree)
        # certify on off-node points
        probe = np.linspace(-0.97, 0.97, 9)
        xs = (0.5 * (a + b) + 0.5 * (b - a) * probe).ravel()
        truth = exact(np.exp(xs))
        self.err = np.max(np.abs(self(np.exp(xs)) - truth) / truth)

        # dH/dx = G(e^x): integrate a fit of G itself, certified the same way
        self.hcoef = None
        gcoef = np.polynomial.chebyshev.chebfit(ref, Gn.T, degree)
        cols = np.repeat(np.arange(intervals), probe.size)
        fit = _clenshaw(gcoef, cols, np.tile(probe, intervals))
        if np.max(np.abs(fit - truth) / truth) <= target:
            self.hcoef = np.polynomial.chebyshev.chebint(gcoef, lbnd=-1,
                                                         scl=0.5 * self.width)
            steps = self.hcoef.sum(axis=0)  # interval integrals (x_i = 1)
            self.H_left = float(exact_H(np.array([lo]))[0]) \
                + np.concatenate([[0.0], np.cumsum(steps[:-1])])

    def _locate(self, t):
        # equal-width intervals in x = log t; the clip makes truncation
        # toward zero a floor
        x = np.log(t)
        idx = np.clip(((x - self.edges[0]) / self.width).astype(np.intp), 0,
                      self.coef.shape[1] - 1)
        a, b = self.edges[idx], self.edges[idx + 1]
        return idx, (2.0 * x - (a + b)) / (b - a)

    def __call__(self, t):
        idx, xi = self._locate(t)
        return np.exp(_clenshaw(self.coef, idx, xi))

    def H(self, t):
        idx, xi = self._locate(t)
        return self.H_left[idx] + _clenshaw(self.hcoef, idx, xi)


def _segment_H(t0, g0, G0, slope, dt):
    """int_{t0}^{t0+dt} G(tau)/tau dtau where G is the quadratic
    G0 + g0 u + slope u^2/2 in u = tau - t0.  Dividing by tau = t0 + u
    leaves a linear quotient and the remainder a/(t0 + u), whose
    integral is a log term; a = G(0) = 0 on the segment at the origin."""
    c = 0.5 * slope
    a = G0 - g0 * t0 + c * t0 * t0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(t0 > 0, a * np.log1p(dt / t0), 0.0)
    return 0.5 * c * dt * dt + (g0 - c * t0) * dt + log_term


class NFunction:
    """A growth profile: the density g (strictly increasing, g(0) = 0)
    and the convex G(t) = int_0^t g, with growth indices (p, q),
    doubling constant ``kappa`` (G(2t) <= kappa*G(t)) and reverse
    doubling constant ``ell`` (G(t) <= G(ell*t)/(2*ell)).

    ``family`` selects the evaluation rule, ``exponent`` is the power p
    of the closed-form families and ``table`` the (t_i, g_i) samples of
    a tabulated g, anchored at (0, 0); ``t_max`` ends the domain.  The
    indices of a table are exact (``_table_indices``); declared indices
    may widen the band but not cut into it.  Construction validates the
    structural inequalities on a sampled grid; kappa = 2**q and
    ell = 2**(1/(p-1)) hold under the index sandwich.
    """

    def __init__(self, family, exponent=None, table=None, p=None, q=None):
        if family not in _FAMILIES:
            raise ValueError(f"unknown growth family {family!r}")
        self.family = family
        self.exponent = self.table = self._accel = None
        self.t_max = REPRESENTABLE_MAX
        if family == "table":
            self.table = _anchored_table(table)
            self.t_max = float(self.table[-1, 0])
            p0, q0 = self._table_indices()
        elif exponent is None or not exponent > 1.0:
            raise ValueError("power-type families need an exponent > 1")
        else:
            self.exponent = p0 = float(exponent)
            q0 = p0 if family == "power" else p0 + 1.0

        tol = 1e-6 * max(1.0, q0)
        if p is None:
            p = p0
        elif p > p0 + tol:
            raise ValueError(
                f"declared lower index p={p:g} exceeds the observed "
                f"infimum {p0:g} of t*g(t)/G(t)")
        if q is None:
            q = q0
        elif q < q0 - tol:
            raise ValueError(
                f"declared upper index q={q:g} is below the observed "
                f"supremum {q0:g} of t*g(t)/G(t)")
        if not (1.0 < p <= q):
            raise ValueError("indices must satisfy 1 < p <= q")
        self.p = float(p)
        self.q = float(q)
        try:
            self.kappa = 2.0 ** self.q
        except OverflowError:
            raise ValueError("doubling constant kappa = 2^q overflows at "
                             f"q={self.q:g}") from None
        try:
            self.ell = 2.0 ** (1.0 / (self.p - 1.0))
        except OverflowError:
            raise ValueError("reverse doubling constant ell = 2^(1/(p-1)) "
                             f"overflows at p={self.p:g}") from None

        # samples past the float range fail the certification or
        # ``_validate`` by name, without a warning first
        with np.errstate(all="ignore"):
            if family == "power_log":
                self._accel = self._build_accelerator()
            self._validate()

    @property
    def knots(self):
        """The interior table knots, where g has a kink (none otherwise)."""
        return np.empty(0) if self.table is None else self.table[1:-1, 0]

    # -- evaluation ----------------------------------------------------

    def _g_unchecked(self, t):
        """Growth density g(t)."""
        if self.family == "power":
            return t ** (self.exponent - 1.0)
        if self.family == "power_log":
            return t ** (self.exponent - 1.0) * np.log1p(t)
        if np.any(t > self.t_max * (1 + 1e-12)):
            raise ValueError("argument outside the tabulated range")
        return np.interp(t, self.table[:, 0], self.table[:, 1])

    def _G_unchecked(self, t):
        """Antiderivative G(t) = int_0^t g(s) ds.

        Closed form for the power family, exact integration of the
        interpolant for tables, and for power_log a certified table in
        log t (relative accuracy ``CERTIFY_TOL``) with the graded-rule
        quadrature ``quadrature.integrate_zero_to`` above it.
        """
        if self.family == "power":
            pw = self.exponent
            val = t ** pw
            val *= 1.0 / pw
            return val
        if self.family == "table":
            return self._table_G(t)
        return self._accelerated(np.atleast_1d(t), self._accel,
                                 self._quad_exact,
                                 self._series_G).reshape(t.shape)

    # the checked entries; ``_G_unchecked`` and ``_g_unchecked`` serve
    # callers that bound their arguments themselves
    g = _checked(_g_unchecked)
    G = _checked(_G_unchecked)

    @_checked
    def H(self, t):
        """H(t) = int_0^t G(tau)/tau dtau, the profile of the far tail
        of a level exterior model (see ``NonlocalProblem._far_tail``).

        t**p/p**2 for the power family, the exact piecewise closed form
        for tables, and for power_log a certified table in log t
        (relative accuracy ``CERTIFY_TOL``) with the graded-rule
        quadrature of int_0^t g(u) log(t/u) du above it.
        """
        if self.family == "power":
            pw = self.exponent
            val = t ** pw
            val *= 1.0 / pw ** 2
            return val
        if self.family == "table":
            return self._table_H(t)
        fast = self._accel.H if self._accel.hcoef is not None else None
        return self._accelerated(np.atleast_1d(t), fast, self._quad_H_exact,
                                 self._series_H).reshape(t.shape)

    def inv_G(self, y):
        """t with G(t) = y, by doubling bracket + bisection (relative
        width 1e-12); inv_G(0) = 0."""
        return bisect_increasing(self.G, y, hi_cap=REPRESENTABLE_MAX)

    def _inv_g_unchecked(self, y):
        """Preimage g^{-1}(y): the closed form y**(1/(p-1)) for the
        power family, bisection on g for power_log, monotone
        interpolation for tables."""
        if self.family == "power":
            return y ** (1.0 / (self.exponent - 1.0))
        if self.family == "power_log":
            return bisect_increasing(self._g_unchecked, y,
                                     hi_cap=REPRESENTABLE_MAX)
        if np.any(y > self.table[-1, 1] * (1 + 1e-12)):
            raise ValueError("target outside the tabulated range of g")
        return np.interp(y, self.table[:, 1], self.table[:, 0])

    inv_g = _checked(_inv_g_unchecked, "target")

    @_checked
    def conjugate(self, t):
        """Legendre conjugate G*(t) = sup_{s>=0} (s*t - G(s)).

        The objective is concave with derivative t - g(s), so the sup is
        attained at s = g^{-1}(t).
        """
        s = np.asarray(self.inv_g(t), dtype=float)
        return np.maximum(s * t - self.G(s), 0.0)

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self):
        return self.q / (self.q - 1.0)

    # -- power_log internals -------------------------------------------

    def _quad_exact(self, t):
        # power_log: g(tau) = t^(p-1) u^(p-1) log1p(tau) at tau = t u, so
        # the power of t leaves the integral over the unit nodes u
        pm1 = self.exponent - 1.0
        return t ** pm1 * integrate_zero_to(
            lambda tau, u: u ** pm1 * np.log1p(tau), t)

    def _quad_H_exact(self, t):
        # swapping the two integrals of H gives int_0^t g(tau) log(t/tau)
        # dtau, and log(t/tau) = -log u; the power leaves as in G
        pm1 = self.exponent - 1.0
        return t ** pm1 * integrate_zero_to(
            lambda tau, u: u ** pm1 * -np.log(u) * np.log1p(tau), t)

    def _series_G(self, t):
        # log1p(u) = u - u^2/2 + O(u^3) under int_0^t u^(p-1) log1p(u) du
        p = self.exponent
        return t ** (p + 1) / (p + 1) - t ** (p + 2) / (2 * (p + 2))

    def _series_H(self, t):
        # int_0^t G(tau)/tau dtau of the two terms of ``_series_G``
        p = self.exponent
        return t ** (p + 1) / (p + 1) ** 2 - t ** (p + 2) / (2 * (p + 2) ** 2)

    def _accelerated(self, t, fast_fn, exact_fn, series_fn):
        """``series_fn`` on t < SERIES_MAX (where t = 0 gives 0),
        ``fast_fn`` on the accelerator's range and ``exact_fn`` on the
        rest.  The range of t classifies a call whose
        arguments share one piece, which then gets them whole; any other
        call classifies its arguments once, by ``searchsorted``."""
        edges = [SERIES_MAX]
        fns = [series_fn]
        if fast_fn is not None:
            # ``exact_fn`` below the accelerator's range too, an empty
            # piece unless the range starts above SERIES_MAX
            edges += [self._accel.lo, math.nextafter(self._accel.hi, math.inf)]
            fns += [exact_fn, fast_fn]
        fns.append(exact_fn)
        lo = t.min(initial=math.inf)
        first = bisect.bisect_right(edges, lo)
        last = bisect.bisect_right(edges, t.max(initial=-math.inf))
        if first == last and not math.isnan(lo):
            return fns[first](t)
        # NaN sorts past the last edge: it goes to ``exact_fn``
        cls = np.searchsorted(edges, t, side="right")
        out = np.empty_like(t)
        for c, fn in enumerate(fns):
            sel = cls == c
            if sel.any():
                out[sel] = fn(t[sel])
        return out

    def _build_accelerator(self):
        """64 intervals of degree 24 on the part of [SERIES_MAX, 1e14]
        where G is a normal float.  Every p the profile can be built for
        certifies (1.000977 <= p <= 48.96: below, ell overflows, above,
        ``_validate``'s grid does); a miss is a ``ValueError`` naming p.

        On [0, t], tau / 2 <= log1p(tau) for t <= 1 and log1p(tau) <=
        log1p(t), so t^(p+1) / (2 (p+1)) <= G(t) <= t^p log1p(t) / p;
        the ends solve these bounds for the smallest and the largest
        normal float (p up to about 21 keeps the whole range).
        """
        p = self.exponent
        fi = np.finfo(float)
        lo = math.exp((math.log(2.0 * (p + 1.0)) + math.log(fi.tiny))
                      / (p + 1.0))
        hi = math.exp((math.log(fi.max) + math.log(p)
                       - math.log(math.log1p(1e14))) / p)
        accel = _ChebLogG(self._quad_exact, max(SERIES_MAX, lo),
                          min(1e14, hi), 64, 24, CERTIFY_TOL / 2,
                          self._quad_H_exact)
        if not accel.err <= CERTIFY_TOL / 2:  # NaN too: G left the floats
            raise ValueError("the power_log accelerator misses its "
                             f"certification at p={p:g}: error {accel.err:.3g}")
        return accel

    # -- table internals -----------------------------------------------

    @cached_property
    def _table_knots(self):
        """Knots t_k, g_k, G_k, H_k and segment slopes of a table."""
        tk, gk = self.table[:, 0], self.table[:, 1]
        dt = np.diff(tk)
        slope = np.diff(gk) / dt
        Gk = np.concatenate([[0.0], np.cumsum(0.5 * (gk[1:] + gk[:-1]) * dt)])
        Hseg = _segment_H(tk[:-1], gk[:-1], Gk[:-1], slope, dt)
        Hk = np.concatenate([[0.0], np.cumsum(Hseg)])
        return tk, gk, Gk, Hk, slope

    def _table_segment(self, t):
        tk = self.table[:, 0]
        if np.any(t > tk[-1] * (1 + 1e-12)):
            raise ValueError("argument outside the tabulated range")
        idx = np.clip(np.searchsorted(tk, t, side="right") - 1, 0, len(tk) - 2)
        return idx, t - tk[idx]

    def _table_G(self, t):
        idx, dt = self._table_segment(t)
        tk, gk, Gk, _, slope = self._table_knots
        return Gk[idx] + gk[idx] * dt + 0.5 * slope[idx] * dt * dt

    def _table_H(self, t):
        idx, dt = self._table_segment(t)
        tk, gk, Gk, Hk, slope = self._table_knots
        return Hk[idx] + _segment_H(tk[idx], gk[idx], Gk[idx], slope[idx], dt)

    def _table_indices(self):
        """inf and sup of t g(t)/G(t) for the piecewise-linear g.

        On the segment anchored at the origin g is linear and the ratio
        is exactly 2, so 2 always belongs to the index band.  On a later
        segment, with u = t - t_k and slope sig, (t g/G)' = 0 reduces
        (the cubic terms cancel) to c0 + c1 u + c2 u^2 = 0 with
        c0 = (g_k + sig t_k) G_k - t_k g_k^2, c1 = sig (2 G_k - t_k g_k)
        and c2 = (sig/2)(g_k - sig t_k), so the extremes lie at the
        knots or at the roots inside the segments.
        """
        tk, gk, Gk, _, slope = self._table_knots
        t0, g0, G0, sig = tk[1:-1], gk[1:-1], Gk[1:-1], slope[1:]
        c0 = (g0 + sig * t0) * G0 - t0 * g0 * g0
        c1 = sig * (2.0 * G0 - t0 * g0)
        c2 = 0.5 * sig * (g0 - sig * t0)
        # stable roots qq/c2 and c0/qq; c2 = 0 leaves the linear root c0/qq,
        # and a complex pair gives its vertex, a harmless extra sample
        disc = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0))
        qq = -0.5 * (c1 + np.copysign(disc, c1))
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.concatenate([qq / c2, c0 / qq])
            inside = (u > 0.0) & (u < np.tile(np.diff(tk)[1:], 2))
        start = np.tile(t0, 2)
        t = np.concatenate([tk[1:], start[inside] + u[inside]])
        r = t * self._g_unchecked(t) / self._table_G(t)
        p0 = min(2.0, float(r.min()))
        q0 = max(2.0, float(r.max()))
        if p0 <= 1.0 + 1e-9:
            raise ValueError("tabulated g has lower growth index <= 1")
        return p0, q0

    # -- validation ----------------------------------------------------

    def _validate(self):
        if self.table is not None:
            t = np.geomspace(self.table[1, 0], self.t_max, 600)
        else:
            t = np.geomspace(1e-6, 1e6, 61)
        td = t[2.0 * t <= self.t_max]
        tn = t[self.ell * t <= self.t_max]
        gv, Gv = self.g(t), self.G(t)
        r = t * gv / Gv
        mid = self.G(0.5 * (t[:-1] + t[1:]))
        dbl = self.G(2.0 * td), self.kappa * self.G(td) * (1 + 1e-7)
        rev = self.G(tn), self.G(self.ell * tn) / (2 * self.ell) * (1 + 1e-7)
        # a sample past the float range would make a comparison below
        # arbitrary
        if not all(np.isfinite(x).all() for x in (gv, r, mid, *dbl, *rev)):
            raise ValueError(
                "the profile overflows the float range on its validation "
                f"grid [{t[0]:g}, {t[-1]:g}] (p = {self.p:g}, q = {self.q:g})")
        if self.g(0.0) != 0.0:
            raise ValueError("g(0) must be 0")
        if np.any(np.diff(gv) <= 0):
            raise ValueError("g must be strictly increasing")
        slack = 1e-6 * self.q
        if r.min() < self.p - slack or r.max() > self.q + slack:
            raise ValueError(
                "growth sandwich violated on the sampled grid: "
                f"t*g/G in [{r.min():.6g}, {r.max():.6g}] vs [{self.p:g}, {self.q:g}]"
            )
        # midpoint convexity on neighbouring grid points
        if np.any(mid > 0.5 * (Gv[:-1] + Gv[1:]) * (1 + 1e-9)):
            raise ValueError("G failed the midpoint convexity check")
        # doubling constants on the sampled grid
        if np.any(dbl[0] > dbl[1]):
            raise ValueError("doubling constant kappa does not hold")
        if np.any(rev[0] > rev[1]):
            raise ValueError("reverse doubling constant ell does not hold")

    def __repr__(self):
        return f"NFunction({self.family}, p={self.p:g}, q={self.q:g})"


# -- factory helpers ----------------------------------------------------

def make_power(p):
    """g(t) = t**(p-1), G(t) = t**p / p."""
    return NFunction("power", exponent=float(p))


def make_power_log(p):
    """g(t) = t**(p-1) * log(1+t), indices (p, p+1)."""
    return NFunction("power_log", exponent=float(p))


def make_table(points, p=None, q=None):
    """Tabulated g from (t_i, g_i) samples."""
    return NFunction("table", table=np.asarray(points, float), p=p, q=q)


def from_config(cfg):
    """Build from the JSON fragment used in problem configs: ``p`` is
    the exponent of a power family and a declared lower index of a
    table; ``q`` is a declared upper index of any family."""
    fam = cfg["family"]
    if fam == "table":
        return make_table(cfg.get("points"), p=cfg.get("p"), q=cfg.get("q"))
    return NFunction(fam, exponent=cfg.get("p"), q=cfg.get("q"))


# -- structural inequality checks ---------------------------------------

def check_growth_sandwich(nf, sample_grid, tol=1e-8):
    """Range of t*g(t)/G(t) over the grid against [p, q]."""
    t = np.asarray(sample_grid, dtype=float)
    if t.size == 0 or np.any(t <= 0):
        raise ValueError("sample grid must be nonempty with positive entries")
    r = t * nf.g(t) / nf.G(t)
    i_max = int(np.argmax(r))
    i_min = int(np.argmin(r))
    constant = max(r[i_max] / nf.q, nf.p / r[i_min])
    bad = (r > nf.q * (1 + tol)) | (r < nf.p / (1 + tol))
    return EstimateReport(
        name="growth_sandwich",
        lhs=float(r[i_max]),
        rhs_terms={"q": nf.q},
        empirical_constant=float(constant),
        tolerance=1.0 + tol,
        passed=bool(constant <= 1.0 + tol),
        witnesses={"t_at_max": float(t[i_max]), "t_at_min": float(t[i_min])},
        details={"ratio_min": float(r[i_min]), "ratio_max": float(r[i_max]),
                 "violations": int(bad.sum()),
                 "failure_points": t[bad][:16].tolist()},
    )


def check_young(nf, pairs, eps=0.5, tol=1e-8):
    """Product inequality t*s <= G(t) + G*(s), its eps-weighted form
    t*s <= eps^(1-q) G(t) + eps G*(s), the conjugate identity
    G*(g(t)) = t g(t) - G(t), and the bound G*(g(t)) <= (q-1) G(t), at
    the pairs with s in the range of g."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    pairs = pairs[pairs[:, 1] <= nf.g(nf.t_max)]
    t, s = pairs[:, 0], pairs[:, 1]
    Gt = nf.G(t)
    Gs_conj = nf.conjugate(s)
    prod = t * s

    def worst(lhs, rhs):
        c = ratio_array(lhs, rhs)
        i = int(np.argmax(c)) if c.size else 0
        return float(c.max(initial=0.0)), i

    c0, i0 = worst(prod, Gt + Gs_conj)
    ce, ie = worst(prod, eps ** (1.0 - nf.q) * Gt + eps * Gs_conj)

    gt = nf.g(t)
    lhs_id = nf.conjugate(gt)
    rhs_id = t * gt - Gt
    relerr = np.abs(lhs_id - rhs_id) / np.maximum(1.0, np.abs(rhs_id))
    cb, ib = worst(lhs_id, (nf.q - 1.0) * Gt)

    constant = max(c0, ce, cb, 1.0 + float(relerr.max(initial=0.0)))
    i_w = i0 if c0 >= max(ce, cb) else (ie if ce >= cb else ib)
    return EstimateReport(
        name="young",
        lhs=float(prod[i0]) if prod.size else 0.0,
        rhs_terms={"G(t)": float(Gt[i0]) if Gt.size else 0.0,
                   "G*(s)": float(Gs_conj[i0]) if Gs_conj.size else 0.0},
        empirical_constant=float(constant),
        tolerance=1.0 + tol,
        passed=bool(constant <= 1.0 + tol),
        witnesses={"t": float(t[i_w]), "s": float(s[i_w]), "eps": eps},
        details={"product": c0, "product_eps": ce,
                 "conjugate_identity_relerr": float(relerr.max(initial=0.0)),
                 "conjugate_bound": cb},
    )


def check_scaling(nf, samples, tol=1e-8):
    """Two-sided scaling sandwiches for G and G* at factors a != 1:

        a^q G(t) <= G(at) <= a^p G(t)        (0 < a < 1)
        a^p G(t) <= G(at) <= a^q G(t)        (a > 1)

    and the conjugate version with the Holder-conjugate exponents, each
    at the samples with t and a t in its domain (G* ends at g(t_max)).
    """
    samples = np.asarray(samples, dtype=float).reshape(-1, 2)
    if np.any(samples[:, 0] <= 0):
        raise ValueError("scaling factors must be positive")
    t_max = nf.t_max
    worst = 0.0
    witness = {}
    for label, F, cap, lo_ex, hi_ex in (
        ("G", nf.G, t_max, nf.q, nf.p),
        ("G*", nf.conjugate, nf.g(t_max), nf.p_conj, nf.q_conj),
    ):
        a, t = samples[np.maximum(samples[:, 0], 1.0) * samples[:, 1]
                       <= cap].T
        Ft = F(t)
        Fat = F(a * t)
        low = np.where(a < 1.0, a ** lo_ex, a ** hi_ex) * Ft
        high = np.where(a < 1.0, a ** hi_ex, a ** lo_ex) * Ft
        for lhs, rhs in ((Fat, high), (low, Fat)):
            c = ratio_array(lhs, rhs)
            if c.size and c.max() > worst:
                i = int(np.argmax(c))
                worst = float(c.max())
                witness = {"which": label, "a": float(a[i]), "t": float(t[i])}
    return EstimateReport(
        name="scaling_sandwich",
        lhs=worst,
        rhs_terms={"unit": 1.0},
        empirical_constant=worst,
        tolerance=1.0 + tol,
        passed=bool(worst <= 1.0 + tol),
        witnesses=witness,
    )


def check_doubling(nf, grid, tol=1e-8):
    """Doubling G(2t) <= kappa G(t) and reverse doubling
    G(t) <= G(ell t)/(2 ell) at the stored constants."""
    t = np.asarray(grid, dtype=float)
    t = t[(t > 0) & (2.0 * t <= nf.t_max) & (nf.ell * t <= nf.t_max)]
    Gt = nf.G(t)
    c_dbl = float(np.max(nf.G(2.0 * t) / (nf.kappa * Gt), initial=0.0))
    c_rev = float(np.max(Gt * 2.0 * nf.ell / nf.G(nf.ell * t), initial=0.0))
    worst = max(c_dbl, c_rev)
    return EstimateReport(
        name="doubling",
        lhs=worst,
        rhs_terms={"unit": 1.0},
        empirical_constant=worst,
        tolerance=1.0 + tol,
        passed=bool(worst <= 1.0 + tol),
        details={"doubling": c_dbl, "reverse_doubling": c_rev,
                 "kappa": nf.kappa, "ell": nf.ell},
    )
