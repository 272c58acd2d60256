"""Discrete fractional Orlicz-Sobolev quantities on a lattice.

A function lives on a finite lattice covering a computational box and
carries an exterior model, its radial far field f(rho) = c rho^a
(``ExteriorModel``; a level f = c when a = 0 or c = 0); modulars and
norms discretize integrals with node measure h^n, ball membership by
node-center inclusion, and the double-sum modulars drop the diagonal.
The Luxemburg norm and the pair seminorm solve modular(t f) = 1 for
t = 1/lam with ``quadrature.bisect_increasing``: the modular increases
in t.
The nonlocal tail splits into a lattice Riemann sum over box nodes plus
a 1-D radial integral of the far-field profile, taken after the
solver's substitution tau = rho^(-m) (``quadrature.integrate_radial``,
with m from ``far_exponent``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from .pairs import BALL_ROWS, distance_blocks
from .quadrature import bisect_increasing, integrate_radial
from .reports import write_atomic


def sphere_measure(n):
    """Surface measure of the unit sphere in R^n (2 for n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def far_exponent(a, s, p):
    """m of tau = rho^(-m) for int g(|f| / rho^s) rho^(-1-s) drho with
    |f| ~ rho^a and g ~ t^(p-1): the solver's s - max(a, 0) below a = s;
    from there the integrand decays like rho^(-1-mu),
    mu = s - (a - s)(p - 1), and diverges iff mu <= 0."""
    if a < s:
        return s - max(a, 0.0)
    return s - (a - s) * (p - 1.0)


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
        multi = self.lattice.multi_indices()

        def write(fh):
            writer = csv.writer(fh)
            writer.writerow([f"i{d}" for d in range(self.lattice.dim)] + ["value"])
            for row, val in zip(multi, self.values):
                writer.writerow([*map(int, row), repr(float(val))])

        write_atomic(path, write, newline="")

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

def gagliardo_modular(f, region, s, nf):
    """Double Riemann sum of G(|f(x)-f(y)| / |x-y|^s) |x-y|^(-n) over
    ordered node pairs of the region, diagonal excluded, with pair
    measure h^(2n)."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    lat = f.lattice
    idx = np.flatnonzero(lat.select(region))
    if idx.size == 0:
        raise ValueError("region contains no lattice nodes")
    c = lat.coords[idx]
    v = f.values[idx]
    n = lat.dim
    w_pair = lat.h ** (2 * n)
    total = 0.0
    for sl, d in distance_blocks(c, c, BALL_ROWS):
        off = d > 0
        dv = np.abs(v[sl, None] - v[None, :])[off]
        dd = d[off]
        total += float(np.sum(nf.G(dv / dd ** s) / dd ** n)) * w_pair
    return total


def _unit_scale(modular):
    """lam = 1/t for the root t of modular(t) = 1, where ``modular`` is
    increasing in t (``bisect_increasing``)."""
    return 1.0 / bisect_increasing(lambda t: np.array([modular(t[0])]), 1.0)


def gagliardo_seminorm(f, region, s, nf):
    """Luxemburg-type seminorm derived from the pair modular: the
    infimal lam with gagliardo_modular(f / lam) <= 1.  The modular is
    the primary quantity; the seminorm is reported alongside it since
    no canonical normalization ties the two."""
    if gagliardo_modular(f, region, s, nf) == 0.0:
        return 0.0
    return _unit_scale(lambda t: gagliardo_modular(
        f.with_values(t * f.values), region, s, nf))


def luxemburg_norm(f, region, nf):
    """inf of lam > 0 with sum_i G(|f_i| / lam) h^n <= 1; 0 exactly when
    f vanishes on the region.  The modular is taken of f / max|f|, so
    its arguments stay in [0, t]."""
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
    return vmax * _unit_scale(lambda t: float(np.sum(nf.G(u * t))) * hn)


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

    def integrand(rho):
        prof = model.shifted_abs_profile(rho, shift)
        return nf.g(prof / rho ** s) * rho ** (-1.0 - s)

    m = far_exponent(model.growth_exponent, s, nf.p)
    return part_a + sphere_measure(lat.dim) * integrate_radial(integrand,
                                                               r_far, m)


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
    if model is None:
        raise ValueError("membership check needs an exterior model")
    far = 0.0
    if model.level != 0.0:
        c_norm = float(np.linalg.norm(model.center))

        def integrand(rho):
            prof = model.shifted_abs_profile(rho, 0.0)
            base = 1.0 + np.maximum(rho - c_norm, 0.0)
            return nf.g(prof / base ** s) * (rho / base) ** (n - 1.0) \
                * base ** (-1.0 - s)

        # the weight's kink at rho = |center| is a breakpoint
        m = far_exponent(model.growth_exponent, s, nf.p)
        far = sphere_measure(n) * integrate_radial(
            integrand, model.start_radius, m, breaks=(c_norm,))
    weighted = body + far

    finite = [math.isfinite(t1), math.isfinite(t2), math.isfinite(weighted)]
    return MembershipReport(
        member=all(finite),
        consistent=(finite[0] == finite[1] == finite[2]),
        tails=(t1, t2),
        weighted_integral=weighted,
        witnesses={"centers": (tuple(c1), tuple(c2)), "radii": (r1, r2)},
    )
