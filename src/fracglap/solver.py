"""Dirichlet solver: minimize the pairwise convex interaction energy

    E(v) = sum over node pairs meeting the domain of
           G(|v(x)-v(y)| / |x-y|^s) K(x, y) h^(2n)
         + sum over domain nodes of the tail past the truncation
           radius r, c_far int_r^inf G(|v(x) - f(rho)| / rho^s) drho / rho,

over functions that agree with the prescribed datum off the domain.
No radial quadrature is left in the tail.  The exterior model is
f(rho) = c rho^a (``ExteriorModel``).  Where it is a level, f = c
(a = 0 or c = 0; ``ExteriorModel.level``), the substitution
tau = |v(x) - c| rho^(-s) turns the tail into c_far H(T)/s with
T = |v(x) - c| r^(-s) and H(T) = int_0^T G(tau)/tau dtau
(``NFunction.H``); its derivative needs only G.  Otherwise
tau = rho^(-m) with m = s - max(a, 0) maps [r, inf) onto [0, r^(-m)]
with an integrand that is integrable at 0, and a Gauss-Legendre rule
graded toward both ends of each segment between the zero of v(x) - f
and, for tables, the knot crossings gives the tail and its derivative
(``NonlocalProblem._far_power``).

Pairs are counted with the symmetric convention (each unordered pair
with a relevant end twice), the diagonal is excluded, and pairs closer
than one spacing do not occur on a lattice, so no principal-value
handling is needed: G(0) = 0 kills the diagonal singularity.  The pair
arrays are built once per problem from the integer offset stencil within
the truncation radius (``pairs.truncated_pairs``); every energy and
gradient then gathers over them.

Strict convexity of the energy (g strictly increasing) makes the
minimizer unique; descent with Armijo backtracking therefore converges
to the same function from any admissible start, whatever the number of
domain nodes.  The descent measures steps in the metric of the p = 2
operator on the same pairs (the quadratic surrogate A of
``_assemble_surrogate``, a Sobolev gradient): A is factored once by
Cholesky and each direction is A^(-1) grad E, so the iteration count
does not grow as h shrinks.  The dense factor costs N^2 floats for N
domain nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .funcspace import GridFunction, sphere_measure
from .pairs import truncated_pairs
from .quadrature import (FAR_PANELS, FAR_POINTS, bisect_increasing,
                         integrate_graded)

ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# width of the diagonal blocks of the substitution in ``_cholesky_solve``
SUBST_BLOCK = 128


class InadmissibleError(ValueError):
    """The candidate does not match the prescribed exterior data."""


@dataclass
class SolveReport:
    minimizer: GridFunction
    final_energy: float
    residual_norm: float
    iterations: int
    line_search_failures: int
    converged: bool
    details: dict = field(default_factory=dict)
    energy_history: list = field(default_factory=list)

    def summary(self):
        return {
            "final_energy": self.final_energy,
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "line_search_failures": self.line_search_failures,
            "converged": self.converged,
            "details": self.details,
        }


class NonlocalProblem:
    """Discrete Dirichlet instance: lattice, domain mask, growth profile,
    kernel, order s, exterior datum (halo values + far-field model) and
    the truncation radius beyond which interactions are folded into the
    radial tail term.
    """

    def __init__(self, lattice, omega_mask, nf, kernel, s, exterior_datum,
                 truncation_radius=None):
        if not 0.0 < s < 1.0:
            raise ValueError("s must lie in (0, 1)")
        omega_mask = np.asarray(omega_mask, dtype=bool).ravel()
        if omega_mask.size != lattice.n_nodes:
            raise ValueError("domain mask does not match the lattice")
        if not omega_mask.any():
            raise ValueError("domain mask selects no nodes")
        if exterior_datum.lattice != lattice:
            raise ValueError("exterior datum must live on the problem lattice")
        if exterior_datum.exterior is None:
            raise ValueError("exterior datum needs a far-field model")

        self.lattice = lattice
        self.omega_mask = omega_mask
        self.halo_mask = ~omega_mask
        self.nf = nf
        self.kernel = kernel
        self.s = float(s)
        self.exterior_datum = exterior_datum

        coords = lattice.coords
        om = coords[omega_mask]
        lo = np.asarray(lattice.lo)
        hi = np.asarray(lattice.hi)
        if np.any(om <= lo + 1e-12) or np.any(om >= hi - 1e-12):
            raise ValueError("domain nodes must lie strictly inside the box")
        margin = float(min((om - lo).min(), (hi - om).min()))
        diam = self._omega_diameter(om)
        if truncation_radius is None:
            truncation_radius = min(8.0 * max(diam, lattice.h), margin)
        if truncation_radius > margin + 1e-12:
            raise ValueError(
                "every domain node needs lattice neighbours up to the "
                f"truncation radius; available margin is {margin:g}"
            )
        if truncation_radius < lattice.h:
            raise ValueError("truncation radius below the lattice spacing")
        self.truncation_radius = float(truncation_radius)

        kernel.validate_on(coords)
        self._check_far_energy()

    @staticmethod
    def _omega_diameter(om):
        lo = om.min(axis=0)
        hi = om.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    # -- cached pair structure ------------------------------------------

    @cached_property
    def _pairs(self):
        """(ia, ja, dist, weight): unordered pairs with at least one end
        in the domain, within the truncation radius; weight carries the
        symmetric double counting 2 K h^(2n)."""
        lat = self.lattice
        ia, ja, dist = truncated_pairs(lat, self.omega_mask,
                                       self.truncation_radius)
        if self.kernel.coefficient is None:
            # the pure kernel reads only the distance: no coordinate gathers
            kvals = dist ** (-float(lat.dim))
        else:
            kvals = self.kernel.pair_values(lat.coords[ia], lat.coords[ja],
                                            dist)
        weight = 2.0 * kvals * lat.h ** (2 * lat.dim)
        return ia, ja, dist, weight

    @cached_property
    def _inv_ds(self):
        return self._pairs[2] ** (-self.s)

    @cached_property
    def _far_coef(self):
        lat = self.lattice
        return 2.0 * lat.h ** lat.dim * self.kernel.far_coefficient \
            * sphere_measure(lat.dim)

    @cached_property
    def _gradient_scale(self):
        """Dimensionless stopping scale: the largest per-node sum of
        K d^(-s) g(osc(f)/d^s) h^(2n) over interacting pairs."""
        osc = self.data_oscillation()
        if osc == 0.0:
            return 0.0
        ia, ja, dist, w = self._pairs
        contrib = w * dist ** (-self.s) * self.nf.g(osc * dist ** (-self.s))
        acc = np.zeros(self.lattice.n_nodes)
        np.add.at(acc, ia, contrib)
        both = self.omega_mask[ja]
        np.add.at(acc, ja[both], contrib[both])
        return float(acc[self.omega_mask].max())

    def data_oscillation(self):
        datum = self.exterior_datum
        r = self.truncation_radius
        far = datum.exterior.signed_profile(np.array([r, 10.0 * r]))
        allv = np.concatenate([datum.values[self.halo_mask], far])
        return float(allv.max() - allv.min())

    # -- far (beyond truncation radius) terms ---------------------------

    def _check_far_energy(self):
        try:
            val = self._far_energy(np.array([1.0]))
        except OverflowError as exc:
            raise ValueError(
                "exterior model overflows the interaction tail") from exc
        if not np.all(np.isfinite(val)):
            raise ValueError(
                "interaction energy beyond the truncation radius diverges "
                "for this exterior model"
            )

    def _far_level_T(self, w, level):
        """(w - c, T) for the level c: T = |w - c| r^(-s) is the tail
        argument at the truncation radius."""
        dw = w - level
        return dw, np.abs(dw) * self.truncation_radius ** (-self.s)

    def _far_energy(self, w):
        """Per-domain-node tail energy for node values ``w``:
        c_far int_r^inf G(|w - f(rho)| rho^(-s)) rho^(-1) drho.

        For a level model c, tau = |w - c| rho^(-s) turns the integral
        into H(T)/s (``NFunction.H``); any other model goes through
        ``_far_power``.
        """
        level = self.exterior_datum.exterior.level
        if level is None:
            return self._far_power(w, derivative=False)
        _, T = self._far_level_T(w, level)
        return self._far_coef * self.nf.H(T) / self.s

    def _far_gradient(self, w):
        """Derivative of ``_far_energy``; for a level model H'(T) = G(T)/T
        gives c_far sign(w - c) G(T) r^(-s) / (s T), which is 0 at T = 0."""
        level = self.exterior_datum.exterior.level
        if level is None:
            return self._far_power(w, derivative=True)
        dw, T = self._far_level_T(w, level)
        ratio = np.divide(self.nf.G(T), T, out=np.zeros_like(T), where=T > 0)
        return self._far_coef * np.sign(dw) * ratio \
            * self.truncation_radius ** (-self.s) / self.s

    def _far_power(self, w, derivative):
        """Tail energy (or its derivative in w) of the power model
        f(rho) = c rho^a, a != 0 and c != 0, after the substitution
        tau = rho^(-m), m = s - max(a, 0); the tail diverges (inf) when
        m <= 0.

        With delta = |a|/m and (A, B) = (c, w) for a > 0, (w, c) for
        a < 0, |w - f(rho)| rho^(-s) = tau |A - B tau^delta| and
        drho/rho = -dtau/(m tau), so the tail is
        (1/m) int_0^T0 G(tau |A - B tau^delta|) / tau dtau, T0 = r^(-m),
        and its derivative (1/m) int_0^T0 g(.) sign(w - f) tau^(s/m - 1)
        dtau; both integrands are integrable at 0.  The graded rule runs
        on the segments between 0, the zero tau* = (A/B)^(1/delta) of
        the difference (when A B > 0), T0 and, for tables, the taus where
        the difference crosses a knot.
        """
        model = self.exterior_datum.exterior
        s, a = self.s, model.exponent
        m = s - max(a, 0.0)
        if m <= 0.0:
            return np.full_like(w, np.inf)
        delta = abs(a) / m
        t0 = self.truncation_radius ** (-m)
        c = np.full_like(w, model.value)
        A, B = (c, w) if a > 0 else (w, c)
        # sign(w - f(rho)) = flip * sign(A - B tau^delta)
        flip = -1.0 if a > 0 else 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            kink = np.where(A * B > 0, (A / B) ** (1.0 / delta), np.inf)
        breaks = [np.zeros_like(w), np.minimum(kink, t0), np.full_like(w, t0)]
        if self.nf.growth.family == "table":
            breaks.append(_knot_crossings(self.nf.growth.table[1:-1, 0],
                                          A, B, delta, kink, t0))
        bp = np.sort(np.column_stack(breaks), axis=1)
        lo, hi = bp[:, :-1], bp[:, 1:]
        owner = np.broadcast_to(np.arange(w.size)[:, None], lo.shape)
        keep = hi > lo
        owner = owner[keep]
        Ao, Bo = A[owner, None], B[owner, None]

        def diff(tau):
            return flip * tau * (Ao - Bo * tau ** delta)

        if derivative:
            def fn(tau):
                d = diff(tau)
                return self.nf.g(np.abs(d)) * np.sign(d) * tau ** (s / m - 1.0)
        else:
            def fn(tau):
                return self.nf.G(np.abs(diff(tau))) / tau

        vals = integrate_graded(fn, lo[keep], hi[keep], FAR_PANELS,
                                FAR_POINTS)
        return self._far_coef / m * np.bincount(owner, vals,
                                                minlength=w.size)

    # -- admissibility ---------------------------------------------------

    def require_admissible(self, v):
        if v.lattice != self.lattice:
            raise InadmissibleError("candidate lives on a different lattice")
        fvals = self.exterior_datum.values
        scale = max(1.0, float(np.abs(fvals).max()))
        if np.max(np.abs(v.values[self.halo_mask] - fvals[self.halo_mask]),
                  initial=0.0) > 1e-12 * scale:
            raise InadmissibleError("candidate does not match the halo datum")
        if v.exterior != self.exterior_datum.exterior:
            raise InadmissibleError("candidate carries a different exterior model")

    def datum_extension(self, omega_values=0.0):
        """Admissible function equal to the datum off the domain."""
        vals = self.exterior_datum.values.copy()
        vals[self.omega_mask] = omega_values
        return GridFunction(self.lattice, vals, self.exterior_datum.exterior)


def _knot_crossings(knots, A, B, delta, kink, t0):
    """(nodes, 3 len(knots)) matrix of the tau in [0, t0] where
    phi(tau) = tau |A - B tau^delta| crosses a knot, padded with t0.

    phi rises from 0 on [0, tau_m] and, past its zero tau* = ``kink``,
    on [tau*, inf); on [tau_m, tau*] it falls to 0, tau_m =
    tau* (1 + delta)^(-1/delta).  Each piece is walked from its zero, so
    every crossing is a root of an increasing function of the distance u
    from that zero (``bisect_increasing``).
    """
    finite = np.isfinite(kink)
    zero = np.where(finite, kink, 0.0)
    peak = zero * (1.0 + delta) ** (-1.0 / delta)
    # start, direction and length of each piece (rows); an absent piece
    # has length 0
    start = np.stack([np.zeros_like(zero), zero, zero])
    step = np.array([1.0, -1.0, 1.0])
    span = np.stack([np.where(finite, np.minimum(peak, t0), t0),
                     np.where(peak < t0, zero - peak, 0.0),
                     np.where(finite, np.maximum(t0 - zero, 0.0), 0.0)])
    tau = start + step[:, None] * span
    top = tau * np.abs(A - B * tau ** delta)
    piece, node, knot = np.nonzero(knots < top[..., None])
    out = np.full((3, kink.size, knots.size), t0)
    if node.size:
        base, sign, length = start[piece, node], step[piece], span[piece, node]
        Ar, Br = A[node], B[node]

        def phi(u):
            tau = base + sign * u
            return tau * np.abs(Ar - Br * tau ** delta)

        u = bisect_increasing(phi, knots[knot], hi=length, hi_cap=length)
        out[piece, node, knot] = np.clip(base + sign * u, 0.0, t0)
    return out.transpose(1, 0, 2).reshape(kink.size, -1)


# -- energy / gradient / residual ----------------------------------------

def energy(prob, v):
    """Interaction energy of an admissible candidate."""
    prob.require_admissible(v)
    return _energy_values(prob, v.values)


def _energy_values(prob, vals):
    ia, ja, dist, w = prob._pairs
    t = np.abs(vals[ia] - vals[ja]) * prob._inv_ds
    pair_part = float(np.dot(prob.nf.G(t), w))
    far = float(np.sum(prob._far_energy(vals[prob.omega_mask])))
    return pair_part + far


def gradient(prob, v):
    """First variation at admissible ``v``; nonzero only on the domain."""
    prob.require_admissible(v)
    full = np.zeros(prob.lattice.n_nodes)
    full[prob.omega_mask] = _gradient_omega(prob, v.values)
    return GridFunction(prob.lattice, full, v.exterior)


def _gradient_omega(prob, vals):
    ia, ja, dist, w = prob._pairs
    dv = vals[ia] - vals[ja]
    t = np.abs(dv) * prob._inv_ds
    # g(0) = 0 makes the integrand differentiable at coincident values
    gval = prob.nf.g(t) * np.sign(dv) * prob._inv_ds * w
    acc = np.zeros(prob.lattice.n_nodes)
    np.add.at(acc, ia, gval)
    both = prob.omega_mask[ja]
    np.add.at(acc, ja[both], -gval[both])
    out = acc[prob.omega_mask]
    out += prob._far_gradient(vals[prob.omega_mask])
    return out


def weak_residual(prob, v):
    """Largest pairing against the canonical indicator test functions;
    for that basis the pairing at a node coincides with the gradient
    component there, which is what makes the minimizer/weak-solution
    equivalence checkable."""
    prob.require_admissible(v)
    return float(np.abs(_gradient_omega(prob, v.values)).max())


def convexity_probe(prob, v1, v2):
    """Energy along the segment between two admissible candidates, at
    theta = 0.1, 0.2, ..., 0.9, against the chord; the defect must be
    nonnegative, strictly positive off the endpoints when the candidates
    differ on the domain."""
    prob.require_admissible(v1)
    prob.require_admissible(v2)
    e1 = _energy_values(prob, v1.values)
    e2 = _energy_values(prob, v2.values)
    rows = []
    differ = float(np.abs((v1.values - v2.values)[prob.omega_mask]).max()) > 0
    for th in np.linspace(0.1, 0.9, 9):
        mix = th * v1.values + (1.0 - th) * v2.values
        lhs = _energy_values(prob, mix)
        rhs = th * e1 + (1.0 - th) * e2
        rows.append({"theta": float(th), "lhs": lhs, "rhs": rhs,
                     "defect": rhs - lhs})
    tol = 1e-12 * max(1.0, abs(e1), abs(e2))
    convex_ok = all(r["defect"] >= -tol for r in rows)
    strict_ok = (not differ) or all(r["defect"] > 0.0 for r in rows)
    return {"samples": rows, "convex_ok": convex_ok, "strict_ok": strict_ok,
            "endpoints": (e1, e2), "candidates_differ": differ}


# -- quadratic assembly (closed-form oracle route for p = q = 2) ----------

def assemble_quadratic(prob):
    """Assemble E(v) = 0.5 v'Av - b'v + c over the domain unknowns.

    Exact for the quadratic power profile (p = q = 2) with a level
    exterior model (f = c); used by the direct-solve oracle stage.
    """
    nf = prob.nf
    if not (nf.growth.family == "power" and nf.p == 2.0 and nf.q == 2.0):
        raise ValueError("quadratic assembly needs the power profile with p = 2")
    if prob.exterior_datum.exterior.level is None:
        raise ValueError("quadratic assembly needs a level exterior model "
                         "(exponent 0 or value 0)")
    return _assemble_surrogate(prob)


def _assemble_surrogate(prob):
    """Quadratic-growth surrogate system on the same pair structure."""
    omega_idx = np.flatnonzero(prob.omega_mask)
    pos = -np.ones(prob.lattice.n_nodes, dtype=int)
    pos[omega_idx] = np.arange(omega_idx.size)
    ia, ja, dist, w = prob._pairs
    cw = w * dist ** (-2.0 * prob.s)
    no = omega_idx.size
    A = np.zeros((no, no))
    b = np.zeros(no)
    const = 0.0
    fvals = prob.exterior_datum.values
    pa, pb = pos[ia], pos[ja]
    both = (pa >= 0) & (pb >= 0)
    np.add.at(A, (pa[both], pa[both]), cw[both])
    np.add.at(A, (pb[both], pb[both]), cw[both])
    np.add.at(A, (pa[both], pb[both]), -cw[both])
    np.add.at(A, (pb[both], pa[both]), -cw[both])
    halo = ~both
    np.add.at(A, (pa[halo], pa[halo]), cw[halo])
    np.add.at(b, pa[halo], cw[halo] * fvals[ja[halo]])
    const += float(np.sum(0.5 * cw[halo] * fvals[ja[halo]] ** 2))
    # far tail of the quadratic profile, radial closed form; a genuine
    # power model takes level 0
    lvl = prob.exterior_datum.exterior.level or 0.0
    r, s = prob.truncation_radius, prob.s
    cfar = prob._far_coef * r ** (-2.0 * s) / (2.0 * s)
    A[np.diag_indices(no)] += cfar
    b += cfar * lvl
    const += 0.5 * cfar * lvl ** 2 * no
    return A, b, const, omega_idx


# -- minimization ----------------------------------------------------------

def _cholesky_solve(L, g):
    """A^(-1) g for A = L L' with L lower triangular.

    numpy has no triangular solve, so forward and back substitution run
    over diagonal blocks of width ``SUBST_BLOCK``: ``np.linalg.solve`` on
    the block, one matvec for the part of the row already solved.
    O(N^2) per call.
    """
    n = g.size
    starts = range(0, n, SUBST_BLOCK)
    y = np.empty(n)
    for i0 in starts:
        i1 = min(i0 + SUBST_BLOCK, n)
        y[i0:i1] = np.linalg.solve(L[i0:i1, i0:i1],
                                   g[i0:i1] - L[i0:i1, :i0] @ y[:i0])
    x = np.empty(n)
    for i0 in reversed(starts):
        i1 = min(i0 + SUBST_BLOCK, n)
        x[i0:i1] = np.linalg.solve(L[i0:i1, i0:i1].T,
                                   y[i0:i1] - L[i1:, i0:i1].T @ x[i1:])
    return x


def solve(prob, tol=1e-8, max_iter=5000, initial="zero"):
    """Minimize the energy over admissible candidates.

    Descent in the metric of the quadratic surrogate A (the p = 2
    operator on the same pairs, ``_assemble_surrogate``): A is factored
    once, each step is d = A^(-1) grad E, its length comes from the
    Barzilai-Borwein ratio (s'As)/(s'y), and Armijo backtracking
    (c1 = 1e-4, factor 0.5) accepts it.  The metric is the Sobolev
    gradient of the p = 2 problem, so the iteration count does not grow
    as h shrinks, and for p = 2 the first full step lands on the
    minimizer.  ``initial="harmonic"`` starts from A^(-1) b through the
    same factor.  Stops when the gradient sup-norm drops below
    tol * (1 + scale) with the g(osc(f))-based scale, making the
    tolerance dimensionless.  A domain of one node takes the same route:
    with one unknown the Barzilai-Borwein step is a secant step on the
    scalar derivative.
    """
    if initial in ("zero", "zero-extension"):
        harmonic = False
    elif initial in ("harmonic", "halo-harmonic-guess"):
        harmonic = True
    else:
        raise ValueError("initial must be 'zero' or 'harmonic'")
    omega = prob.omega_mask
    vals = prob.exterior_datum.values.copy()

    osc = prob.data_oscillation()
    if osc == 0.0:
        # constant data: the constant extension is the exact minimizer
        level = float(vals[prob.halo_mask][0]) if prob.halo_mask.any() \
            else prob.exterior_datum.exterior.value
        vals[omega] = level
        u = GridFunction(prob.lattice, vals, prob.exterior_datum.exterior)
        res = float(np.abs(_gradient_omega(prob, vals)).max())
        return SolveReport(u, _energy_values(prob, vals), res, 0, 0, True,
                           details={"stop_scale": 0.0, "threshold": tol,
                                    "initial": initial})

    A, b, _, _ = _assemble_surrogate(prob)
    # A is SPD (positive weights, strictly diagonally dominant); only its
    # factor is kept
    L = np.linalg.cholesky(A)
    del A
    vals[omega] = _cholesky_solve(L, b) if harmonic else 0.0

    threshold = tol * (1.0 + prob._gradient_scale)
    v_om = vals[omega].copy()
    g_now = _gradient_omega(prob, vals)
    e_now = _energy_values(prob, vals)
    history = [e_now]
    alpha = 1.0
    step = 0.0
    failures = 0
    iterations = 0
    v_prev = None
    g_prev = None
    converged = float(np.abs(g_now).max()) <= threshold

    while not converged and iterations < max_iter:
        d = _cholesky_solve(L, g_now)
        slope = float(np.dot(g_now, d))
        if v_prev is not None:
            sv = v_om - v_prev
            yv = g_now - g_prev
            denom = float(np.dot(sv, yv))
            if denom > 0:
                # the last step was sv = -step A^(-1) g_prev, so
                # s'As = -step s'g_prev needs no A
                alpha = -step * float(np.dot(sv, g_prev)) / denom
                alpha = min(max(alpha, 1e-12), 1e12)
            else:
                alpha = 1.0
        t = 1.0
        accepted = False
        # sufficient decrease up to the rounding noise of the energy sum,
        # without which descent stalls once decrements sink below 1 ulp
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(e_now))
        for _ in range(MAX_BACKTRACKS):
            trial = v_om - t * alpha * d
            vals[omega] = trial
            e_trial = _energy_values(prob, vals)
            if e_trial <= e_now - ARMIJO_C1 * t * alpha * slope + noise:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            failures += 1
            vals[omega] = v_om
            break
        v_prev, g_prev = v_om, g_now
        v_om = trial
        step = t * alpha
        e_now = e_trial
        history.append(e_now)
        g_now = _gradient_omega(prob, vals)
        iterations += 1
        converged = float(np.abs(g_now).max()) <= threshold

    vals[omega] = v_om
    u = GridFunction(prob.lattice, vals, prob.exterior_datum.exterior)
    res = float(np.abs(g_now).max())
    return SolveReport(u, e_now, res, iterations, failures,
                       bool(res <= threshold),
                       details={"stop_scale": prob._gradient_scale,
                                "threshold": threshold, "initial": initial},
                       energy_history=history)

