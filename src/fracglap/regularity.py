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
from .funcspace import GridFunction
from .pairs import OffsetTable
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

def sobolev_poincare_check(fs, ball, s, nf, theta, bound=math.inf):
    """Improved integrability of G(|f - mean| / r^s) on a ball against
    the average pair modular, one report for each function f of ``fs``
    (all on one lattice), in order: lhs is the theta-mean of
    G(...)^theta, rhs the node average of the pair sum

        sum_y G(|f(x)-f(y)| / |x-y|^s) |x-y|^(-n) h^n,

    that is ``gagliardo_modular`` over the ball divided by m h^n for m
    nodes; the functions share one walk over the ball's blocks
    (``funcspace.gagliardo_modular``).  Both sides are invariant under
    x -> x/r with h scaled alike."""
    if not fs:
        return []
    lat = fs[0].lattice
    n = lat.dim
    if not 1.0 < theta < n / (n - s / 2.0):
        raise ValueError("theta must lie in (1, n / (n - s/2))")
    idx = np.flatnonzero(lat.select(ball))
    if idx.size < 2:
        raise ValueError("ball must contain at least two lattice nodes")
    r = ball.radius
    hn = lat.h ** n
    modulars = fsp.gagliardo_modular(fs, ball, s, nf)
    reports = []
    for f, modular in zip(fs, modulars):
        v = f.values[idx]
        mean = float(v.mean())
        dev = np.abs(v - mean)
        # deviations at the rounding level of the mean are geometry, not
        # data
        dev[dev <= 8.0 * np.finfo(float).eps
            * (abs(mean) + np.abs(v).max())] = 0.0
        lhs = float(np.mean(nf.G(dev / r ** s) ** theta)) ** (1.0 / theta)
        reports.append(EstimateReport.from_sides(
            "sobolev_poincare", lhs,
            {"pair_modular_avg": modular / (idx.size * hn)}, bound,
            witnesses={"center": tuple(ball.center), "radius": r,
                       "theta": theta, "nodes": int(idx.size)}))
    return reports


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


def _truncation(values, k, sign):
    """(values - k)_+ for ``sign`` plus, (k - values)_+ for minus."""
    return np.maximum(values - k, 0.0) if sign == "plus" \
        else np.maximum(k - values, 0.0)


def caccioppoli_check(u, ball, points, cutoff, s, nf, bound=math.inf):
    """Truncation-energy estimate on a ball, one report for each
    (level k, sign) of ``points``, in order.

    lhs: pair sum of G(|w(x)-w(y)| / d^s) min(phi^q(x), phi^q(y)) d^-n,
    with w the positive or negative truncation (u-k)_+/-; rhs: the
    cutoff-difference term G(|phi(x)-phi(y)| / d^s * max(w(x), w(y)))
    plus the w phi^q mass times the sup over supp(phi) of the exterior
    tail-type integral of w.

    The points share one walk over the ball's tiles
    (``OffsetTable.tiles``, each unordered pair once): a tile's geometry
    (d^s, d^n, min(phi^q), |dphi|, the Lipschitz quotient) is gathered
    once, and each point sums its own terms over the same tiles, so a
    point's report does not depend on the others.
    """
    if u.exterior is None:
        raise ValueError("tail needs an exterior model on the grid function")
    for k, sign in points:
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
    ws = [_truncation(uv, k, sign) for k, sign in points]
    phi = cutoff(d0)
    phiq = phi ** nf.q

    table = OffsetTable(lat)
    dist = table.dist
    ds = dist ** s
    dn = dist ** n
    lhs = [0.0] * len(points)
    rhs_cut = [0.0] * len(points)
    lip = 0.0
    for rows, cols, kc, mult in table.tiles(idx):
        dds = ds.take(kc)
        ddn = dn.take(kc)
        pq = np.minimum(phiq[rows, None], phiq[None, cols])
        dphi = np.abs(phi[rows, None] - phi[None, cols])
        cut = dphi / dds
        lip = max(lip, float((dphi / dist.take(kc)).max(initial=0.0)))
        for j, w in enumerate(ws):
            dw = np.abs(w[rows, None] - w[None, cols])
            wmax = np.maximum(w[rows, None], w[None, cols])
            lhs[j] += mult * float(np.sum(nf.G(dw / dds) * pq / ddn))
            rhs_cut[j] += mult * float(np.sum(nf.G(cut * wmax) / ddn))

    # sup over the cutoff support of the exterior tail-type integral of w
    supp = idx[phi > 0]
    out_all = np.flatnonzero(np.linalg.norm(coords - x0, axis=1) > r)
    uo = u.values[out_all]
    kern = dist ** (-(n + s))
    reports = []
    for (k, sign), w, lhs_k, cut_k in zip(points, ws, lhs, rhs_cut):
        mass = float(np.sum(w * phiq)) * hn
        wo = _truncation(uo, k, sign)
        # g(0) = 0: the exterior nodes with w = 0 add exactly 0
        live = wo > 0
        out_idx, wo = out_all[live], wo[live]
        sup_tail = 0.0
        if supp.size:
            svals = np.zeros(supp.size)
            # row sums do not depend on the block height; in place, a
            # block holds three temporaries of its size at a time
            for sl, kc in table.blocks(supp, out_idx):
                term = ds.take(kc)
                np.divide(wo, term, out=term)
                term = nf.g(term)
                term *= kern.take(kc)
                svals[sl] = np.sum(term, axis=1) * hn
            far = _truncation_far_tail(u, x0, r, k, sign, s, nf)
            sup_tail = float(svals.max(initial=0.0)) + far
        reports.append(EstimateReport.from_sides(
            "caccioppoli", lhs_k * (hn * hn),
            {"cutoff_term": cut_k * (hn * hn),
             "mass_tail_term": mass * sup_tail},
            bound,
            witnesses={"center": tuple(ball.center), "radius": r, "level": k,
                       "sign": sign, "plateau": cutoff.plateau,
                       "support": cutoff.support},
            details={"discrete_lipschitz": lip, "mass": mass,
                     "sup_tail": sup_tail}))
    return reports


def _truncation_far_tail(u, x0, r, k, sign, s, nf):
    """Far-field part of the tail-type integral of (u-k)_+/- beyond the
    box, from the exterior model (query point folded to the ball
    center, a bounded-distortion convention)."""
    model = u.exterior
    if model.level == 0.0 and (k >= 0.0 if sign == "plus" else k <= 0.0):
        return 0.0  # (0 - k)_+ = 0 for k >= 0 and (k - 0)_+ = 0 for k <= 0
    shift = float(np.linalg.norm(np.asarray(x0, float)
                                 - np.asarray(model.center, float)))
    r_far = max(r, model.start_radius + shift)

    def arg(rho):
        return _truncation(model.signed_profile(rho), k, sign) / rho ** s

    # (f - k)_+ grows only if f -> +inf, (k - f)_+ only if f -> -inf;
    # the radius where f crosses k is a breakpoint, and past it
    # |c rho^a - k| rho^(-s) turns where c rho^a = s k / (s - a)
    a, c = model.growth_exponent, model.value
    grows = a if (c > 0) == (sign == "plus") else 0.0
    crossing = (k / c) ** (1.0 / a) if a and k / c > 0 else 0.0
    turn = s * k / ((s - a) * c) if a and a != s else 0.0
    turns = (crossing, turn ** (1.0 / a)) if turn > 0 else (crossing,)
    return fsp.far_integral(arg, grows, c, r_far, s, u.lattice.dim, nf,
                            turns=turns, breaks=(crossing,))


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
    logs = np.log(np.maximum(u.values[idx], 0.0) + d)
    table = OffsetTable(lat)
    dn = table.dist ** n
    lhs = 0.0
    for rows, cols, kc, mult in table.tiles(idx):
        dl = np.abs(logs[rows, None] - logs[None, cols])
        lhs += mult * float(np.sum(dl / dn.take(kc)))
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

    @property
    def passed(self):
        """The one verdict of a fit: monotone oscillations, a nonnegative
        exponent and the schedule."""
        return self.osc_monotone and self.alpha_hat >= 0.0 and self.schedule_ok


def holder_decay_fit(u, brep, sigmas, levels, s, nf):
    """One result per ratio of ``sigmas``: measure oscillations over the
    nested balls B(sigma^i r0), fit the decay exponent by least squares
    in log-log, and compare against the schedule built from the
    empirical boundedness constant of ``brep``, the boundedness report
    on B(x0, 2 r0), shared by all ratios.

    Also evaluates the Holder-seminorm form: the largest discrete
    quotient |u(x)-u(y)| / |x-y|^alpha on the half ball against the
    bracket of local term plus tail at the full radius.
    """
    if brep.name != "boundedness":
        raise ValueError(f"need a boundedness report, not {brep.name!r}")
    if not all(0.0 < sigma < 1.0 for sigma in sigmas):
        raise ValueError("sigma must lie in (0, 1)")
    if levels < 3:
        raise ValueError("need at least three levels")
    lat = u.lattice
    x0 = np.asarray(brep.witnesses["center"], float)
    r = brep.witnesses["radius"]
    r0 = 0.5 * r
    dist = np.linalg.norm(lat.coords - x0, axis=1)
    # base oscillation: the sup estimate with its empirical constant on
    # the local term and unit constant on the tail term
    omega0 = 2.0 * (brep.empirical_constant * brep.rhs_terms["local"]
                    + brep.rhs_terms["tail"])
    # discrete Holder seminorm on the half ball, bracket with tail at r
    half = np.flatnonzero(dist <= r0 + 1e-12)
    vh = u.values[half]
    table = OffsetTable(lat)
    tl = fsp.tail(u, x0, r, s, nf)
    bracket = brep.rhs_terms["local"] + (
        r ** s * nf.inv_g(r ** s * tl) if math.isfinite(tl) else math.inf)

    results = []
    for sigma in sigmas:
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
        osc_monotone = bool(np.all(np.diff(oscs_a)
                                   <= 1e-12 * max(oscs_a[0], 1.0)))
        schedule = DecaySchedule.evaluate(alpha_hat, sigma, r0, omega0,
                                          s, nf.p, nf.q)
        slack = 1.0 + 1e-9
        schedule_ok = all(osc <= schedule.omega(i) * slack
                          for i, osc in enumerate(oscs_a))
        da = table.dist ** max(alpha_hat, 0.0)
        seminorm = 0.0
        for rows, cols, kc, _ in table.tiles(half):
            quot = np.abs(vh[rows, None] - vh[None, cols]) / da.take(kc)
            seminorm = max(seminorm, float(quot.max(initial=0.0)))
        c_holder = seminorm * r ** alpha_hat / bracket if bracket > 0 else 0.0
        results.append(HolderDecayResult(
            schedule=schedule, alpha_hat=alpha_hat, radii=radii,
            oscillations=oscs, resolved_levels=len(radii),
            osc_monotone=osc_monotone, schedule_ok=schedule_ok,
            holder_seminorm=seminorm, c_holder=c_holder, boundedness=brep))
    return results
