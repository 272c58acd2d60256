"""Discrete fractional Orlicz-Sobolev quantities on a lattice.

A function lives on a finite lattice covering a computational box and
carries an exterior model, its radial far field f(rho) = c rho^a
(``ExteriorModel``; a level f = c when a = 0 or c = 0); modulars and
norms discretize integrals with node measure h^n, ball membership by
node-center inclusion, and the double-sum modulars drop the diagonal.
The Luxemburg norm solves modular(t f) = 1 for t = 1/lam with
``quadrature.bisect_increasing``: the modular increases in t.
The nonlocal tail splits into a lattice Riemann sum over box nodes plus
a 1-D radial integral of the far-field profile, taken after the
solver's substitution tau = rho^(-m) (``far_integral``, the checks'
one far integral).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from .pairs import OffsetTable
from .quadrature import bisect_increasing, integrate_radial
from .reports import write_atomic


def sphere_measure(n):
    """Surface measure of the unit sphere in R^n (2 for n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def knot_radii(arg, knots, r0, turns=(), far=0.0):
    """Radii past ``r0`` where ``arg(rho)``, the argument of g in a
    radial integral, crosses one of ``knots`` (``NFunction.knots``,
    where g has a kink): the breaks of ``integrate_radial``.

    ``arg`` (entrywise on arrays) is monotone between consecutive radii
    of ``turns`` and tends to ``far`` as rho -> inf.  Each piece is
    walked from its start, so a crossing is the root of an increasing
    function of the distance u from it, arg or 1/arg
    (``bisect_increasing``).
    """
    knots = np.asarray(knots, dtype=float)
    if not knots.size:
        return []
    edges = [r0, *sorted(t for t in turns if t > r0), math.inf]
    radii = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        v_lo = arg(np.array([lo]))[0]
        v_hi = far if hi == math.inf else arg(np.array([hi]))[0]
        y = knots[(knots > min(v_lo, v_hi)) & (knots < max(v_lo, v_hi))]
        if not y.size:
            continue
        span = None if hi == math.inf else hi - lo
        with np.errstate(divide="ignore"):
            if v_hi > v_lo:
                u = bisect_increasing(lambda u: arg(lo + u), y,
                                      hi=span or lo, hi_cap=span)
            else:
                u = bisect_increasing(lambda u: 1.0 / arg(lo + u), 1.0 / y,
                                      hi=span or lo, hi_cap=span)
        radii.extend(lo + u)
    return radii


def far_integral(arg, a, c, r0, s, n, nf, turns=(), breaks=(),
                 weight=None):
    """|S^(n-1)| int_r0^inf g(arg(rho)) rho^(-1-s) drho for a far field
    of size ~ |c| rho^a, or the integral of ``weight(rho, gv)`` of the
    g-values gv instead when given.  ``arg`` (entrywise on arrays) is
    monotone between the radii of ``turns`` and tends to
    lim |c| rho^(a - s); the rule breaks at ``breaks`` and at
    ``knot_radii``.  m of tau = rho^(-m) (``integrate_radial``) is the
    solver's s - max(a, 0) below a = s; from there the integrand decays
    like rho^(-1-mu), mu = s - (a - s)(p - 1), inf iff mu <= 0."""
    if a < s:
        far, m = 0.0, s - max(a, 0.0)
    else:
        far = abs(c) if a == s else math.inf
        m = s - (a - s) * (nf.p - 1.0)

    def integrand(rho):
        gv = nf.g(arg(rho))
        return gv * rho ** (-1.0 - s) if weight is None else weight(rho, gv)

    knot_breaks = knot_radii(arg, nf.knots, r0, turns=turns, far=far)
    return sphere_measure(n) * integrate_radial(
        integrand, r0, m, breaks=(*breaks, *knot_breaks))


def _dist(coords, center):
    return np.linalg.norm(coords - np.asarray(center, float), axis=-1)


@dataclass(frozen=True)
class Lattice:
    """Uniform lattice with spacing ``h`` on an axis-aligned box; node
    coordinates are lo + h * multi_index."""

    dim: int
    h: float
    lo: tuple
    counts: tuple

    @classmethod
    def from_box(cls, lo, hi, h):
        lo = tuple(float(x) for x in np.atleast_1d(lo))
        hi = tuple(float(x) for x in np.atleast_1d(hi))
        if h <= 0:
            raise ValueError("spacing must be positive")
        counts = []
        for a, b in zip(lo, hi):
            side = b - a
            m = side / h
            if side <= 0 or abs(m - round(m)) > 1e-9 * max(1.0, m):
                raise ValueError("box sides must be positive integer multiples of h")
            counts.append(int(round(m)) + 1)
        return cls(dim=len(lo), h=float(h), lo=lo, counts=tuple(counts))

    @property
    def hi(self):
        return tuple(a + self.h * (c - 1) for a, c in zip(self.lo, self.counts))

    @property
    def n_nodes(self):
        return int(np.prod(self.counts))

    @cached_property
    def coords(self):
        axes = [self.lo[d] + self.h * np.arange(self.counts[d])
                for d in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def select(self, region):
        """Node mask for ``region``: None (all), a Ball, or a (lo, hi) box."""
        if region is None:
            return np.ones(self.n_nodes, dtype=bool)
        if isinstance(region, Ball):
            return region.contains(self.coords)
        lo, hi = region
        c = self.coords
        mask = np.ones(self.n_nodes, dtype=bool)
        for d in range(self.dim):
            mask &= (c[:, d] >= lo[d] - 1e-12) & (c[:, d] <= hi[d] + 1e-12)
        return mask

    def circumradius(self, center):
        corners = np.array(list(product(*zip(self.lo, self.hi))))
        return float(_dist(corners, center).max())

    def center(self):
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def refined(self):
        """Same box at half the spacing."""
        return Lattice(self.dim, self.h / 2.0, self.lo,
                       tuple(2 * c - 1 for c in self.counts))

    def multi_indices(self):
        return np.stack(np.unravel_index(np.arange(self.n_nodes), self.counts),
                        axis=1)


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center",
                           tuple(float(x) for x in np.atleast_1d(self.center)))

    def contains(self, coords):
        return _dist(coords, self.center) <= self.radius + 1e-12


@dataclass(frozen=True)
class ExteriorModel:
    """Radial description of a function outside the computational box:
    the signed far field f(rho) = ``value * rho**exponent`` at radius rho
    from ``center``.  A zero model is value 0, a constant one exponent 0.

    The model takes over beyond ``start_radius``; both ``center`` and
    ``start_radius`` default to the box midpoint and its circumradius
    when the model is attached to a lattice.
    """

    value: float = 0.0
    exponent: float = 0.0
    center: tuple | None = None
    start_radius: float | None = None

    def resolved(self, lattice):
        center = self.center if self.center is not None else lattice.center()
        start = self.start_radius
        if start is None:
            start = lattice.circumradius(center)
        return replace(self, center=tuple(float(x) for x in center),
                       start_radius=float(start))

    @property
    def level(self):
        """c when f = c is constant in rho (a = 0 or c = 0), else None."""
        if self.value == 0.0:
            return 0.0
        return self.value if self.exponent == 0.0 else None

    @property
    def growth_exponent(self):
        """a with |f(rho)| ~ rho^a; 0 for a level model."""
        return 0.0 if self.level is not None else self.exponent

    def signed_profile(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.level is not None:
            return np.full_like(rho, self.level)
        return self.value * rho ** self.exponent

    def shifted_abs_profile(self, rho, shift):
        """Worst-case |f| on the sphere of radius ``rho`` about a point
        at distance ``shift`` from the model center."""
        rho = np.asarray(rho, dtype=float)
        if self.level is not None:
            return np.full_like(rho, abs(self.level))
        eff = rho + shift if self.exponent >= 0 else np.maximum(rho - shift, 1e-300)
        return abs(self.value) * eff ** self.exponent

    @classmethod
    def from_config(cls, cfg):
        """The config's ``kind`` as (value, exponent): ``zero`` is (0, 0),
        ``constant`` (value, 0) and ``power`` (value, exponent); numbers
        the kind does not use are ignored."""
        if cfg is None:
            return cls()
        kind = cfg["kind"]
        if kind not in ("zero", "constant", "power"):
            raise ValueError(f"unknown exterior model kind {kind!r}")
        value = float(cfg.get("value", 0.0)) if kind != "zero" else 0.0
        exponent = float(cfg.get("exponent", 0.0)) if kind == "power" else 0.0
        return cls(value=value, exponent=exponent,
                   center=tuple(cfg["center"]) if "center" in cfg else None,
                   start_radius=cfg.get("start_radius"))


@dataclass(frozen=True)
class Kernel:
    """Symmetric interaction kernel K(x, y) = a(x, y) |x-y|^(-n) with
    ellipticity bounds lam <= a <= Lam; ``coefficient`` None means the
    pure kernel a == 1."""

    lam: float = 1.0
    Lam: float = 1.0
    coefficient: object = None
    far_coefficient: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam <= self.Lam:
            raise ValueError("need 0 < lambda <= Lambda")
        if self.coefficient is None and not self.lam <= 1.0 <= self.Lam:
            raise ValueError("pure kernel requires lambda <= 1 <= Lambda")

    def coefficient_values(self, xa, xb):
        if self.coefficient is None:
            return np.ones(len(xa))
        return np.asarray(self.coefficient(xa, xb), dtype=float)

    def pair_values(self, xa, xb, dist):
        n = xa.shape[1]
        return self.coefficient_values(xa, xb) * dist ** (-float(n))

    def validate_on(self, coords):
        """Spot-check symmetry and the ellipticity sandwich on the
        consecutive pairs of up to 64 evenly spaced nodes."""
        m = len(coords)
        idx = np.unique(np.linspace(0, m - 1, min(64, m)).astype(int))
        xa = coords[idx[:-1]]
        xb = coords[idx[1:]]
        keep = np.any(xa != xb, axis=1)
        xa, xb = xa[keep], xb[keep]
        a_fwd = self.coefficient_values(xa, xb)
        a_bwd = self.coefficient_values(xb, xa)
        if np.max(np.abs(a_fwd - a_bwd), initial=0.0) > 1e-10 * self.Lam:
            raise ValueError("kernel coefficient is not symmetric")
        if np.any(a_fwd < self.lam - 1e-10) or np.any(a_fwd > self.Lam + 1e-10):
            raise ValueError("kernel coefficient violates the ellipticity bounds")

    @classmethod
    def from_config(cls, cfg):
        lam = float(cfg.get("lambda", 1.0))
        Lam = float(cfg.get("Lambda", 1.0))
        if cfg.get("form", "pure") == "pure":
            return cls(lam=lam, Lam=Lam)
        kind = cfg.get("kind", "oscillating")
        if kind != "oscillating":
            raise ValueError(f"unknown weighted kernel kind {kind!r}")
        freq = float(cfg.get("frequency", 1.0))
        mid = 0.5 * (lam + Lam)
        amp = 0.5 * (Lam - lam)

        def coeff(xa, xb):
            phase = np.sum(xa + xb, axis=-1)
            return mid + amp * np.cos(freq * phase)

        far = mid
        return cls(lam=lam, Lam=Lam, coefficient=coeff, far_coefficient=far)


@dataclass(eq=False)
class GridFunction:
    """Values on the lattice nodes plus the exterior far-field model."""

    lattice: Lattice
    values: np.ndarray
    exterior: ExteriorModel | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.lattice.n_nodes:
            raise ValueError("value count does not match the lattice")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        self.values = v
        if self.exterior is not None:
            self.exterior = self.exterior.resolved(self.lattice)

    def with_values(self, values):
        return GridFunction(self.lattice, values, self.exterior)

    def to_csv(self, path):
        """One row per node: its multi-index and ``repr`` of its value.
        The bytes are those of ``csv.writer`` row by row (no field needs
        quoting, rows end in CRLF); each column is formatted once and the
        rows are written in one go."""
        header = [f"i{d}" for d in range(self.lattice.dim)] + ["value"]
        multi = self.lattice.multi_indices()
        cols = [map(str, col.tolist()) for col in multi.T]
        cols.append(map(repr, self.values.tolist()))
        text = "\r\n".join([",".join(header), *map(",".join, zip(*cols))])
        write_atomic(path, lambda fh: fh.write(text + "\r\n"), newline="")

    @classmethod
    def from_csv(cls, path, lattice, exterior=None):
        vals = np.empty(lattice.n_nodes)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                idx = np.ravel_multi_index(
                    tuple(int(x) for x in row[:-1]), lattice.counts)
                vals[idx] = float(row[-1])
        return cls(lattice, vals, exterior)


@dataclass
class MembershipReport:
    member: bool
    consistent: bool
    tails: tuple
    weighted_integral: float
    witnesses: dict


# -- modulars, norms, tail ----------------------------------------------

def gagliardo_modular(fs, region, s, nf):
    """Double Riemann sum of G(|f(x)-f(y)| / |x-y|^s) |x-y|^(-n) over
    ordered node pairs of the region, diagonal excluded, with pair
    measure h^(2n), for each function f of ``fs`` (all on one lattice),
    in order.  The functions share one walk over the region's tiles
    (``OffsetTable.tiles``, each unordered pair once): a tile's d^s and
    d^n are gathered once, and each function sums its own terms over the
    same tiles, so its value does not depend on the others."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    lat = fs[0].lattice
    if any(f.lattice != lat for f in fs):
        raise ValueError("the functions must share one lattice")
    idx = np.flatnonzero(lat.select(region))
    if idx.size == 0:
        raise ValueError("region contains no lattice nodes")
    vs = [f.values[idx] for f in fs]
    n = lat.dim
    w_pair = lat.h ** (2 * n)
    table = OffsetTable(lat)
    ds = table.dist ** s
    dn = table.dist ** n
    totals = [0.0] * len(fs)
    for rows, cols, kc, mult in table.tiles(idx):
        dds = ds.take(kc)
        ddn = dn.take(kc)
        for j, v in enumerate(vs):
            dv = np.abs(v[rows, None] - v[None, cols])
            totals[j] += mult * float(np.sum(nf.G(dv / dds) / ddn)) * w_pair
    return totals


def luxemburg_norm(f, region, nf):
    """inf of lam > 0 with sum_i G(|f_i| / lam) h^n <= 1; 0 exactly when
    f vanishes on the region.  The modular is taken of f / max|f|, so
    its arguments stay in [0, t], and lam = max|f| / t for the root t of
    modular(t) = 1."""
    lat = f.lattice
    idx = np.flatnonzero(lat.select(region))
    if idx.size == 0:
        raise ValueError("region contains no lattice nodes")
    v = np.abs(f.values[idx])
    vmax = float(v.max())
    if vmax == 0.0:
        return 0.0
    u = v / vmax
    hn = lat.h ** lat.dim
    t = bisect_increasing(
        lambda t: np.array([float(np.sum(nf.G(u * t[0]))) * hn]), 1.0)
    return vmax * (1.0 / t)


def tail(f, x0, R, s, nf):
    """Nonlocal tail of ``f`` outside the ball B_R(x0):

        int_{|x-x0|>R} g(|f(x)| / |x-x0|^s) |x-x0|^(-n-s) dx,

    as a lattice sum over box nodes beyond R plus the radial integral of
    the exterior model (worst-case radius correction when the query
    center differs from the model center).  Returns inf when the far
    integral diverges.
    """
    if R <= 0:
        raise ValueError("tail radius must be positive")
    if f.exterior is None:
        raise ValueError("tail needs an exterior model on the grid function")
    lat = f.lattice
    x0 = np.asarray(x0, dtype=float)
    d = _dist(lat.coords, x0)
    outside = d > R
    part_a = 0.0
    if outside.any():
        dd = d[outside]
        va = np.abs(f.values[outside])
        part_a = float(np.sum(nf.g(va / dd ** s) * dd ** (-(lat.dim + s)))) \
            * lat.h ** lat.dim

    model = f.exterior
    if model.level == 0.0:
        return part_a
    shift = float(_dist(x0[None, :], model.center)[0])
    r_far = max(R, model.start_radius + shift)

    def arg(rho):
        return model.shifted_abs_profile(rho, shift) / rho ** s

    # |f| rho^(-s) falls, except that past a > s it rises again beyond
    # its minimum at rho* = s shift / (a - s)
    a = model.growth_exponent
    return part_a + far_integral(
        arg, a, model.value, r_far, s, lat.dim, nf,
        turns=(s * shift / (a - s),) if a > s else ())


def membership_check(f, s, nf):
    """Tail finiteness at two centers/radii plus the globally weighted
    integral with weight (1+|x|)^(-n-s); the three verdicts must agree
    for a consistent membership classification."""
    lat = f.lattice
    lo = np.asarray(lat.lo)
    hi = np.asarray(lat.hi)
    c1 = 0.5 * (lo + hi)
    c2 = c1 + 0.25 * (hi - lo)
    r1 = 0.25 * float(np.min(hi - lo))
    r2 = 0.5 * r1
    t1 = tail(f, c1, r1, s, nf)
    t2 = tail(f, c2, r2, s, nf)

    n = lat.dim
    absx = np.linalg.norm(lat.coords, axis=1)
    w = (1.0 + absx) ** (-(n + s))
    body = float(np.sum(nf.g(np.abs(f.values) / (1.0 + absx) ** s) * w)) \
        * lat.h ** n

    model = f.exterior
    far = 0.0
    if model.level != 0.0:
        c_norm = float(np.linalg.norm(model.center))

        def base(rho):
            return 1.0 + np.maximum(rho - c_norm, 0.0)

        def arg(rho):
            return model.shifted_abs_profile(rho, 0.0) / base(rho) ** s

        def weight(rho, gv):
            b = base(rho)
            return gv * (rho / b) ** (n - 1.0) * b ** (-1.0 - s)

        # the weight's kink at rho = |center| is a breakpoint; past it
        # |c| rho^a base^(-s) turns at rho* = a (|center| - 1) / (a - s)
        a = model.growth_exponent
        turns = (c_norm, a * (c_norm - 1.0) / (a - s)) if a != s \
            else (c_norm,)
        far = far_integral(arg, a, model.value, model.start_radius, s, n, nf,
                           turns=turns, breaks=(c_norm,), weight=weight)
    weighted = body + far

    finite = [math.isfinite(t1), math.isfinite(t2), math.isfinite(weighted)]
    return MembershipReport(
        member=all(finite),
        consistent=(finite[0] == finite[1] == finite[2]),
        tails=(t1, t2),
        weighted_integral=weighted,
        witnesses={"centers": (tuple(c1), tuple(c2)), "radii": (r1, r2)},
    )
