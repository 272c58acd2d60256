"""Quantitative instantiations of the a priori estimates: truncation
energy (Caccioppoli-type), logarithmic bound, integral Sobolev-Poincare
inequality, the geometric iteration lemma, local boundedness, and
oscillation decay with Holder-exponent recovery.

The proved constants are never numeric, so every check reports an
empirical constant lhs / sum(rhs terms) and passes against a declared
bound; sweeps probe the stability of those constants rather than any
reference value.  Checks are deterministic pure functions of their
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import funcspace as fsp
from .funcspace import Ball, GridFunction
from .pairs import BALL_ROWS, distance_blocks
from .quadrature import integrate_radial
from .reports import EstimateReport


# -- geometric iteration lemma -------------------------------------------

@dataclass
class DeGiorgiResult:
    sequence: list
    threshold: float
    below_threshold: bool
    bound_holds: bool | None
    first_violation: int | None
    diverged: bool


def de_giorgi_iterate(C, B, beta, A0, steps=60):
    """Run the extremal recursion A_{i+1} = C B^i A_i^(1+beta).

    Reports whether A0 sits at or below the smallness threshold
    C^(-1/beta) B^(-1/beta^2) and, when it does, verifies the geometric
    bound A_i <= B^(-i/beta) A0 along the computed sequence.  The
    recursion is expanding (a relative perturbation grows by the factor
    1+beta per step), so the verdict allows the forward rounding error
    eps * ((1+beta)^i - 1) / beta of the float iteration; any genuine
    violation exceeds that envelope.  Overflow is reported as
    divergence, never raised.
    """
    if C <= 0 or B <= 1 or beta <= 0 or A0 < 0:
        raise ValueError("need C > 0, B > 1, beta > 0, A0 >= 0")
    seq = [float(A0)]
    diverged = False
    for i in range(steps):
        try:
            nxt = C * B ** i * seq[-1] ** (1.0 + beta)
        except OverflowError:
            diverged = True
            break
        if not math.isfinite(nxt) or nxt > 1e300:
            diverged = True
            break
        seq.append(nxt)
        if 0.0 < nxt < 1e-250:
            break  # vanished; further powers would underflow to noise
    threshold = C ** (-1.0 / beta) * B ** (-1.0 / beta ** 2)
    below = A0 <= threshold * (1.0 + 1e-12)
    # several pow evaluations per step, each worth a few ulp
    eps = 64.0 * np.finfo(float).eps
    first_violation = None
    for i, a in enumerate(seq):
        try:
            slack = eps * ((1.0 + beta) ** i - 1.0) / beta + eps
        except OverflowError:
            break  # rounding envelope swallows the bound from here on
        if slack >= 1.0:
            break
        if a > B ** (-i / beta) * A0 * (1.0 + slack):
            first_violation = i
            break
    bound_holds = (first_violation is None) if below else None
    return DeGiorgiResult(seq, threshold, below, bound_holds,
                          first_violation, diverged)


# -- Sobolev-Poincare ------------------------------------------------------

def sobolev_poincare_check(f, ball, s, nf, theta, bound=math.inf):
    """Improved integrability of G(|f - mean| / r^s) on a ball against
    the average pair modular: lhs is the theta-mean of G(...)^theta,
    rhs the node average of the pair sum

        sum_y G(|f(x)-f(y)| / |x-y|^s) |x-y|^(-n) h^n,

    that is ``gagliardo_modular`` over the ball divided by m h^n for m
    nodes.  Both sides are invariant under x -> x/r with h scaled
    alike."""
    n = f.lattice.dim
    if not 1.0 < theta < n / (n - s / 2.0):
        raise ValueError("theta must lie in (1, n / (n - s/2))")
    idx = np.flatnonzero(f.lattice.select(ball))
    if idx.size < 2:
        raise ValueError("ball must contain at least two lattice nodes")
    v = f.values[idx]
    r = ball.radius
    mean = float(v.mean())
    dev = np.abs(v - mean)
    # deviations at the rounding level of the mean are geometry, not data
    dev[dev <= 8.0 * np.finfo(float).eps * (abs(mean) + np.abs(v).max())] = 0.0
    lhs = float(np.mean(nf.G(dev / r ** s) ** theta)) ** (1.0 / theta)

    hn = f.lattice.h ** n
    rhs = fsp.gagliardo_modular(f, ball, s, nf) / (idx.size * hn)
    return EstimateReport.from_sides(
        "sobolev_poincare", lhs, {"pair_modular_avg": rhs}, bound,
        witnesses={"center": tuple(ball.center), "radius": r,
                   "theta": theta, "nodes": int(idx.size)})


# -- local boundedness -----------------------------------------------------

def boundedness_check(u, ball, s, nf, kernel=None, bound=math.inf,
                      omega_mask=None):
    """Sup bound on the half ball against the G-mean term and the
    nonlocal tail at radius r/2:

        max |u| on B_{r/2} vs  r^s G^{-1}(mean_{B_r} G(|u|/r^s))
                              + r^s g^{-1}(r^s tail(u; x0, r/2)).
    """
    lat = u.lattice
    x0 = np.asarray(ball.center, float)
    r = ball.radius
    lo, hi = np.asarray(lat.lo), np.asarray(lat.hi)
    if np.any(x0 - r < lo - 1e-12) or np.any(x0 + r > hi + 1e-12):
        raise ValueError("ball is not compactly contained in the box")
    idx = np.flatnonzero(lat.select(ball))
    if idx.size == 0:
        raise ValueError("ball contains no lattice nodes")
    if omega_mask is not None and not omega_mask[idx].all():
        raise ValueError("ball must be compactly contained in the domain")
    d = np.linalg.norm(lat.coords[idx] - x0, axis=1)
    inner = idx[d <= r / 2.0 + 1e-12]
    if inner.size == 0:
        raise ValueError("half ball contains no lattice nodes")
    lhs = float(np.abs(u.values[inner]).max())
    avg_G = float(np.mean(nf.G(np.abs(u.values[idx]) / r ** s)))
    term_local = r ** s * nf.inv_G(avg_G)
    tl = fsp.tail(u, x0, r / 2.0, s, nf)
    term_tail = r ** s * nf.inv_g(r ** s * tl) if math.isfinite(tl) else math.inf
    return EstimateReport.from_sides(
        "boundedness", lhs, {"local": term_local, "tail": term_tail}, bound,
        witnesses={"center": tuple(ball.center), "radius": r},
        details={"tail_value": tl, "mean_modular": avg_G,
                 "kernel_bounds": None if kernel is None
                 else (kernel.lam, kernel.Lam)})


# -- Caccioppoli-type truncation estimate ---------------------------------

@dataclass(frozen=True)
class Cutoff:
    """Radial ramp cutoff: 1 inside ``plateau``, 0 outside ``support``,
    linear in between.  The discrete Lipschitz constant actually
    realized on the lattice is recorded by the check that uses it."""

    plateau: float
    support: float

    def __post_init__(self):
        if not 0.0 < self.plateau < self.support:
            raise ValueError("need 0 < plateau < support")

    def __call__(self, dist):
        return np.clip((self.support - dist) / (self.support - self.plateau),
                       0.0, 1.0)


def caccioppoli_check(u, ball, k, cutoff, sign, s, nf, bound=math.inf):
    """Truncation-energy estimate at level k on a ball.

    lhs: pair sum of G(|w(x)-w(y)| / d^s) min(phi^q(x), phi^q(y)) d^-n,
    with w the positive or negative truncation (u-k)_+/-; rhs: the
    cutoff-difference term G(|phi(x)-phi(y)| / d^s * max(w(x), w(y)))
    plus the w phi^q mass times the sup over supp(phi) of the exterior
    tail-type integral of w.
    """
    if k < 0:
        raise ValueError("truncation level must be >= 0")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    lat = u.lattice
    x0 = np.asarray(ball.center, float)
    r = ball.radius
    if cutoff.support >= r - 1e-12:
        raise ValueError("cutoff must vanish near the ball boundary")
    idx = np.flatnonzero(lat.select(ball))
    if idx.size == 0:
        raise ValueError("ball contains no lattice nodes")
    n = lat.dim
    hn = lat.h ** n
    coords = lat.coords
    c = coords[idx]
    d0 = np.linalg.norm(c - x0, axis=1)
    uv = u.values[idx]
    w = np.maximum(uv - k, 0.0) if sign == "plus" else np.maximum(k - uv, 0.0)
    phi = cutoff(d0)
    phiq = phi ** nf.q

    lhs = 0.0
    rhs_cut = 0.0
    lip = 0.0
    for sl, dm in distance_blocks(c, c, BALL_ROWS):
        off = dm > 0
        dd = dm[off]
        dw = np.abs(w[sl, None] - w[None, :])[off]
        wmax = np.maximum(w[sl, None], w[None, :])[off]
        pq = np.minimum(phiq[sl, None], phiq[None, :])[off]
        dphi = np.abs(phi[sl, None] - phi[None, :])[off]
        lhs += float(np.sum(nf.G(dw / dd ** s) * pq / dd ** n))
        rhs_cut += float(np.sum(nf.G(dphi / dd ** s * wmax) / dd ** n))
        lip = max(lip, float((dphi / dd).max(initial=0.0)))
    lhs *= hn * hn
    rhs_cut *= hn * hn

    mass = float(np.sum(w * phiq)) * hn

    # sup over the cutoff support of the exterior tail-type integral of w
    supp = idx[phi > 0]
    out_mask = np.linalg.norm(coords - x0, axis=1) > r
    out_idx = np.flatnonzero(out_mask)
    uo = u.values[out_idx]
    wo = np.maximum(uo - k, 0.0) if sign == "plus" else np.maximum(k - uo, 0.0)
    sup_tail = 0.0
    if supp.size:
        cy = coords[supp]
        svals = np.zeros(supp.size)
        # row sums do not depend on the block height
        for sl, dm in distance_blocks(cy, coords[out_idx]):
            svals[sl] = np.sum(nf.g(wo[None, :] / dm ** s)
                               * dm ** (-(n + s)), axis=1) * hn
        far = _truncation_far_tail(u, x0, r, k, sign, s, nf)
        sup_tail = float(svals.max(initial=0.0)) + far
    rhs_mass = mass * sup_tail

    return EstimateReport.from_sides(
        "caccioppoli", lhs, {"cutoff_term": rhs_cut, "mass_tail_term": rhs_mass},
        bound,
        witnesses={"center": tuple(ball.center), "radius": r, "level": k,
                   "sign": sign, "plateau": cutoff.plateau,
                   "support": cutoff.support},
        details={"discrete_lipschitz": lip, "mass": mass,
                 "sup_tail": sup_tail})


def _truncation_far_tail(u, x0, r, k, sign, s, nf):
    """Far-field part of the tail-type integral of (u-k)_+/- beyond the
    box, from the exterior model (query point folded to the ball
    center, a bounded-distortion convention)."""
    model = u.exterior
    if model is None:
        return 0.0
    if model.level == 0.0 and (sign == "plus" or k == 0.0):
        return 0.0  # a zero far field truncates to zero above any level
    shift = float(np.linalg.norm(np.asarray(x0, float)
                                 - np.asarray(model.center, float)))
    r_far = max(r, model.start_radius + shift)

    def integrand(rho):
        f = model.signed_profile(rho)
        wf = np.maximum(f - k, 0.0) if sign == "plus" else np.maximum(k - f, 0.0)
        return nf.g(wf / rho ** s) * rho ** (-1.0 - s)

    # (f - k)_+ grows only if f -> +inf, (k - f)_+ only if f -> -inf;
    # the radius where f crosses k is a breakpoint
    a, c = model.growth_exponent, model.value
    m = fsp.far_exponent(a if (c > 0) == (sign == "plus") else 0.0, s, nf.p)
    crossing = (k / c) ** (1.0 / a) if a and k / c > 0 else 0.0
    return fsp.sphere_measure(u.lattice.dim) * integrate_radial(
        integrand, r_far, m, breaks=(crossing,))


# -- logarithmic estimate --------------------------------------------------

def log_estimate_check(u, x0, r, R, d, nf, s, a=None, b=None, bound=math.inf):
    """Log-difference mass on B_r for a function nonnegative on B_R:

        sum |log(u(x)+d) - log(u(y)+d)| / |x-y|^n  over B_r pairs

    against r^n plus r^(n+s) Tail(u_-; x0, R) / g(d / r^s).  With levels
    ``a`` and ``b`` supplied, also evaluates the truncated-mean variant
    with h = min((log(a+d) - log(u+d))_+, log b).
    """
    if d <= 0:
        raise ValueError("shift d must be positive")
    if not 0.0 < r < R / 2.0:
        raise ValueError("need 0 < r < R/2")
    lat = u.lattice
    x0 = np.asarray(x0, float)
    dist = np.linalg.norm(lat.coords - x0, axis=1)
    on_R = dist <= R + 1e-12
    if np.any(u.values[on_R] < -1e-12):
        raise ValueError("u must be nonnegative on the larger ball")
    idx = np.flatnonzero(dist <= r + 1e-12)
    if idx.size < 2:
        raise ValueError("inner ball must contain at least two nodes")
    n = lat.dim
    hn = lat.h ** n
    c = lat.coords[idx]
    logs = np.log(np.maximum(u.values[idx], 0.0) + d)
    lhs = 0.0
    for sl, dm in distance_blocks(c, c, BALL_ROWS):
        off = dm > 0
        dl = np.abs(logs[sl, None] - logs[None, :])[off]
        lhs += float(np.sum(dl / dm[off] ** n))
    lhs *= hn * hn

    model = u.exterior
    if model is not None:
        model = replace(model, value=max(-model.value, 0.0))
    u_minus = GridFunction(lat, np.maximum(-u.values, 0.0), model)
    tail_minus = fsp.tail(u_minus, x0, R, s, nf)
    gd = nf.g(d / r ** s)
    rhs_vol = r ** n
    rhs_tail = r ** (n + s) * tail_minus / gd if math.isfinite(tail_minus) \
        else math.inf

    details = {"tail_minus": tail_minus, "g_at_level": gd}
    if a is not None and b is not None:
        if a <= 0 or b <= 1:
            raise ValueError("need a > 0 and b > 1 for the truncated variant")
        hvals = np.minimum(np.maximum(np.log(a + d) - logs, 0.0), math.log(b))
        lhs_tr = float(np.sum(np.abs(hvals - hvals.mean()))) * hn
        rhs_tr = r ** n * (1.0 + (r ** s * tail_minus / gd
                                  if math.isfinite(tail_minus) else math.inf))
        details["truncated"] = {
            "lhs": lhs_tr, "rhs": rhs_tr,
            "constant": lhs_tr / rhs_tr if rhs_tr > 0 else 0.0,
            "a": a, "b": b,
        }
    return EstimateReport.from_sides(
        "logarithmic", lhs, {"volume": rhs_vol, "tail": rhs_tail}, bound,
        witnesses={"center": tuple(x0), "r": r, "R": R, "d": d},
        details=details)


# -- oscillation decay / Holder recovery -----------------------------------

@dataclass
class DecaySchedule:
    """Geometric radius/oscillation schedule r_i = sigma^i r0,
    omega(r_i) = sigma^(alpha i) omega0, with the proof-side smallness
    conditions on (alpha, sigma) evaluated and recorded (the measured
    exponent may exceed the proof cap; that is recorded, not clamped)."""

    alpha: float
    sigma: float
    r0: float
    omega0: float
    constraints: dict = field(default_factory=dict)

    @classmethod
    def evaluate(cls, alpha, sigma, r0, omega0, s, p, q):
        alpha_cap = s * p / (2.0 * (p - 1.0))
        c = {
            "alpha_cap": {"value": alpha, "threshold": alpha_cap,
                          "satisfied": bool(alpha <= alpha_cap + 1e-12)},
            "sigma_quarter": {"value": sigma, "threshold": 0.25,
                              "satisfied": bool(sigma < 0.25)},
            "tail_geometric": {"value": sigma ** (s * p / 2.0),
                               "threshold": 0.5,
                               "satisfied": bool(sigma ** (s * p / 2.0) <= 0.5)},
            "density_level": {"value": sigma ** (s * p / (4.0 * (q - 1.0))),
                              "threshold": 1.0 / 6.0,
                              "satisfied": bool(
                                  sigma ** (s * p / (4.0 * (q - 1.0)))
                                  <= 1.0 / 6.0)},
            # depends on constants the theory never pins numerically;
            # recorded with unit constants, informational only
            "iteration_smallness": {"value": 1.0 / math.log(1.0 / sigma),
                                    "threshold": None, "satisfied": None},
            "oscillation_closure": {
                "value": sigma ** alpha,
                "threshold": 1.0 - sigma ** (s * p / (q - 1.0)),
                "satisfied": bool(sigma ** alpha
                                  >= 1.0 - sigma ** (s * p / (q - 1.0)))},
        }
        return cls(alpha=alpha, sigma=sigma, r0=r0, omega0=omega0,
                   constraints=c)

    def omega(self, i):
        return self.sigma ** (self.alpha * i) * self.omega0


@dataclass
class HolderDecayResult:
    schedule: DecaySchedule
    alpha_hat: float
    radii: list
    oscillations: list
    resolved_levels: int
    osc_monotone: bool
    schedule_ok: bool
    holder_seminorm: float
    c_holder: float
    boundedness: EstimateReport


def holder_decay_fit(u, x0, r0, sigma, levels, s, nf, omega_mask=None):
    """Measure oscillations over the nested balls B(sigma^i r0), fit the
    decay exponent by least squares in log-log, and compare against the
    schedule built from the empirical boundedness constant.

    Also evaluates the Holder-seminorm form: the largest discrete
    quotient |u(x)-u(y)| / |x-y|^alpha on the half ball against the
    bracket of local term plus tail at the full radius.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if levels < 3:
        raise ValueError("need at least three levels")
    lat = u.lattice
    x0 = np.asarray(x0, float)
    dist = np.linalg.norm(lat.coords - x0, axis=1)
    radii, oscs = [], []
    for i in range(levels):
        ri = sigma ** i * r0
        if 2.0 * ri < 4.0 * lat.h:  # fewer than four spacings across
            break
        sel = dist <= ri + 1e-12
        if sel.sum() < 2:
            break
        vals = u.values[sel]
        radii.append(ri)
        oscs.append(float(vals.max() - vals.min()))
    if len(radii) < 3:
        raise ValueError("lattice resolves fewer than three levels")
    radii_a = np.array(radii)
    oscs_a = np.array(oscs)
    keep = oscs_a > 1e-12 * max(oscs_a[0], 1e-300)
    if keep.sum() >= 2 and oscs_a[0] > 0:
        alpha_hat = float(np.polyfit(np.log(radii_a[keep]),
                                     np.log(oscs_a[keep]), 1)[0])
    else:
        alpha_hat = 0.0  # flat function: any exponent fits trivially
    osc_monotone = bool(np.all(np.diff(oscs_a) <= 1e-12 * max(oscs_a[0], 1.0)))

    r = 2.0 * r0
    brep = boundedness_check(u, Ball(tuple(x0), r), s, nf,
                             omega_mask=omega_mask)
    # base oscillation: the sup estimate with its empirical constant on
    # the local term and unit constant on the tail term
    omega0 = 2.0 * (brep.empirical_constant * brep.rhs_terms["local"]
                    + brep.rhs_terms["tail"])
    schedule = DecaySchedule.evaluate(alpha_hat, sigma, r0, omega0,
                                      s, nf.p, nf.q)
    slack = 1.0 + 1e-9
    schedule_ok = all(
        osc <= schedule.omega(i) * slack for i, osc in enumerate(oscs_a))

    # discrete Holder seminorm on the half ball, bracket with tail at r
    half = np.flatnonzero(dist <= r0 + 1e-12)
    ch = lat.coords[half]
    vh = u.values[half]
    seminorm = 0.0
    for sl, dm in distance_blocks(ch, ch):
        off = dm > 0
        quot = np.abs(vh[sl, None] - vh[None, :])[off]
        if alpha_hat > 0:
            quot = quot / dm[off] ** alpha_hat
        seminorm = max(seminorm, float(quot.max(initial=0.0)))
    tl = fsp.tail(u, x0, r, s, nf)
    bracket = brep.rhs_terms["local"] + (
        r ** s * nf.inv_g(r ** s * tl) if math.isfinite(tl) else math.inf)
    c_holder = seminorm * r ** alpha_hat / bracket if bracket > 0 else 0.0

    return HolderDecayResult(
        schedule=schedule, alpha_hat=alpha_hat, radii=radii, oscillations=oscs,
        resolved_levels=len(radii), osc_monotone=osc_monotone,
        schedule_ok=schedule_ok, holder_seminorm=seminorm, c_holder=c_holder,
        boundedness=brep)

