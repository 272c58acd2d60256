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
on the same nodes, in one walk (``NonlocalProblem._far_tail``).

Pairs are counted with the symmetric convention (each unordered pair
with a relevant end twice), the diagonal is excluded, and pairs closer
than one spacing do not occur on a lattice, so no principal-value
handling is needed: G(0) = 0 kills the diagonal singularity.  The pair
arrays are built once per problem from the lattice offset table
(``pairs.truncated_pairs``): the pair ends and, per pair, the weight
and d^(-s); the distance h |k| is kept once per flat shift, not per
pair.  Every energy then gathers over them in one blocked walk
(``_pair_blocks``), and every per-node pair sum (the gradient, the
stopping scale) scatters onto the nodes in one order, block by block
(``_node_sums``); a block holds ``pairs.PAIR_BLOCK`` entries.  The
descent scores each trial point by one walk that gives both its energy
and its gradient (``_energy_gradient``), so an accepted trial's
gradient is the next iteration's; every other gradient (``gradient``,
``weak_residual``) is the same walk.

Strict convexity of the energy (g strictly increasing) makes the
minimizer unique; descent with Armijo backtracking therefore converges
to the same function from any admissible start, whatever the number of
domain nodes.  The descent measures steps in the metric of the p = 2
operator on the same pairs (the quadratic surrogate A of
``_assemble_surrogate``, a Sobolev gradient): A is factored once, in
its own storage, by blocked Cholesky, which inverts the diagonal blocks
of the factor as it goes (``_cholesky``), and each direction
A^(-1) grad E is then matrix-vector products only; the iteration count
does not grow as h shrinks.  A solve holds one N x N array, A and then
its factor, for N domain nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pairs
from .funcspace import GridFunction, sphere_measure
from .nfunction import REPRESENTABLE_MAX
from .pairs import shift_values, truncated_pairs
from .quadrature import (BLOCK_NODES, FAR_PANELS, FAR_POINTS,
                         bisect_increasing, integrate_graded)

ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# width of the diagonal blocks of the factor that ``_cholesky`` inverts
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
        return {k: v for k, v in vars(self).items()
                if k not in ("minimizer", "energy_history")}


class NonlocalProblem:
    """Discrete Dirichlet instance: lattice, domain mask, growth profile,
    kernel, order s, exterior datum (halo values + far-field model) and
    the truncation radius beyond which interactions are folded into the
    radial tail term.
    """

    def __init__(self, lattice, omega_mask, nf, kernel, s, exterior_datum,
                 truncation_radius):
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

    # -- cached pair structure ------------------------------------------

    @cached_property
    def _pairs(self):
        """(ia, ja, dist, weight): unordered pairs with at least one end
        in the domain, within the truncation radius, and their weights
        2 K h^(2n) (the symmetric double counting).  ``dist`` is kept per
        flat shift, not per pair (``pairs.truncated_pairs``): a pair's
        distance is the entry of its shift ja - ia
        (``pairs.shift_values``).  The pure kernel's weight depends on the
        offset alone, so it is computed per shift and gathered."""
        lat = self.lattice
        ia, ja, dist = truncated_pairs(lat, self.omega_mask,
                                       self.truncation_radius)
        hn2 = lat.h ** (2 * lat.dim)
        if self.kernel.coefficient is None:
            return ia, ja, dist, shift_values(
                2.0 * dist ** (-float(lat.dim)) * hn2, ia, ja)
        weight = np.empty(ia.size)
        for start in range(0, ia.size, pairs.PAIR_BLOCK):
            sl = slice(start, start + pairs.PAIR_BLOCK)
            kvals = self.kernel.pair_values(
                lat.coords[ia[sl]], lat.coords[ja[sl]],
                shift_values(dist, ia[sl], ja[sl]))
            weight[sl] = 2.0 * kvals * hn2
        return ia, ja, dist, weight

    @cached_property
    def _inv_ds(self):
        ia, ja, dist, _ = self._pairs
        return shift_values(dist ** (-self.s), ia, ja)

    @cached_property
    def _inv_ds_max(self):
        """max d^(-s), at the nearest offset h (the radius is >= h), by
        the array power of ``_inv_ds``: a scalar ``h ** -s`` may differ."""
        return float(np.power([self.lattice.h], -self.s)[0])

    @cached_property
    def _far_coef(self):
        lat = self.lattice
        return 2.0 * lat.h ** lat.dim * self.kernel.far_coefficient \
            * sphere_measure(lat.dim)

    @cached_property
    def _gradient_scale(self):
        """Dimensionless stopping scale: the largest per-node sum
        (``_node_sums``) of K d^(-s) g(osc(f)/d^s) h^(2n) over
        interacting pairs, walked in blocks of ``pairs.PAIR_BLOCK`` pairs.
        Data whose oscillation puts the argument of g past the profile's
        range are rejected by name."""
        osc = self.data_oscillation()
        w, inv_ds = self._pairs[3], self._inv_ds
        contrib = np.empty(w.size)
        try:
            for start in range(0, w.size, pairs.PAIR_BLOCK):
                blk = slice(start, start + pairs.PAIR_BLOCK)
                contrib[blk] = w[blk] * inv_ds[blk] \
                    * self.nf.g(osc * inv_ds[blk])
        except OverflowError as exc:
            raise ValueError(
                f"the datum's oscillation {osc:g} overflows the growth "
                f"profile: osc max d^(-s) = {osc * self._inv_ds_max:g} "
                f"exceeds the representable range [0, "
                f"{REPRESENTABLE_MAX:g}]") from exc
        return float(_node_sums(self, contrib, np.add).max())

    def data_oscillation(self):
        datum = self.exterior_datum
        r = self.truncation_radius
        far = datum.exterior.signed_profile(np.array([r, 10.0 * r]))
        allv = np.concatenate([datum.values[self.halo_mask], far])
        return float(allv.max() - allv.min())

    # -- far (beyond truncation radius) terms ---------------------------

    def _check_far_energy(self):
        try:
            val = self._far_tail(np.array([1.0]))
        except OverflowError as exc:
            raise ValueError(
                "exterior model overflows the interaction tail") from exc
        if not np.all(np.isfinite(val)):
            raise ValueError(
                "interaction energy beyond the truncation radius diverges "
                "for this exterior model"
            )

    def _far_tail(self, w, derivative=False):
        """Per-domain-node tail c_far int_r^inf G(|w - f(rho)| rho^(-s))
        drho / rho for node values ``w``; with ``derivative``, the pair
        (tail, its derivative in w), both from one walk.

        A level model c takes tau = |w - c| rho^(-s): the tail is
        c_far H(T)/s, T = |w - c| r^(-s) (``NFunction.H``), and H'(T) =
        G(T)/T gives the derivative c_far sign(w - c) G(T) r^(-s) / (s T),
        0 at T = 0.  Any other model f = c rho^a takes tau = rho^(-m),
        m = s - max(a, 0); the tail diverges (inf) when m <= 0.  With
        delta = |a|/m and (A, B) = (c, w) for a > 0, (w, c) for a < 0,
        |w - f(rho)| rho^(-s) = tau |A - B tau^delta| and drho/rho =
        -dtau/(m tau), so the tail is (1/m) int_0^T0 G(tau |A - B
        tau^delta|) / tau dtau, T0 = r^(-m), and its derivative
        (1/m) int_0^T0 g(.) sign(w - f) tau^(s/m - 1) dtau; both
        integrands are integrable at 0.  The segments between 0, the
        zero tau* = (A/B)^(1/delta) of the difference (when A B > 0), T0
        and the taus where the difference crosses a knot of g
        (``NFunction.knots``) are laid out once, and the graded rule
        evaluates the asked-for integrands on the same nodes; the tail
        has the same bits whether or not the derivative shares the walk.
        """
        model = self.exterior_datum.exterior
        s, r = self.s, self.truncation_radius
        if model.level is not None:
            dw = w - model.level
            T = np.abs(dw) * r ** (-s)
            tail = self._far_coef * self.nf.H(T) / s
            if not derivative:
                return tail
            ratio = np.divide(self.nf.G(T), T, out=np.zeros_like(T),
                              where=T > 0)
            return tail, self._far_coef * np.sign(dw) * ratio * r ** (-s) / s
        a = model.exponent
        m = s - max(a, 0.0)
        if m <= 0.0:
            out = [np.full_like(w, np.inf) for _ in range(1 + derivative)]
            return tuple(out) if derivative else out[0]
        delta = abs(a) / m
        t0 = r ** (-m)
        c = np.full_like(w, model.value)
        A, B = (c, w) if a > 0 else (w, c)
        # sign(w - f(rho)) = flip * sign(A - B tau^delta)
        flip = -1.0 if a > 0 else 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            kink = np.where(A * B > 0, (A / B) ** (1.0 / delta), np.inf)
        bp = np.sort(np.column_stack([
            np.zeros_like(w), np.minimum(kink, t0), np.full_like(w, t0),
            _knot_crossings(self.nf.knots, A, B, delta, kink, t0)]), axis=1)
        lo, hi = bp[:, :-1], bp[:, 1:]
        owner = np.broadcast_to(np.arange(w.size)[:, None], lo.shape)
        keep = hi > lo
        owner, lo, hi = owner[keep], lo[keep], hi[keep]

        def fn(tau, Ao, Bo):
            d = flip * tau * (Ao - Bo * tau ** delta)
            ad = np.abs(d)
            terms = (self.nf.G(ad) / tau,)
            if derivative:
                terms += (self.nf.g(ad) * np.sign(d) * tau ** (s / m - 1.0),)
            return terms

        # segments in blocks of at most BLOCK_NODES quadrature nodes per
        # integrand, so a stack of candidates costs no more memory than
        # one; a segment's integral has the same bits in any block
        vals = np.empty((1 + derivative, owner.size))
        rows = max(1, BLOCK_NODES // (2 * FAR_PANELS * FAR_POINTS))
        for start in range(0, owner.size, rows):
            seg = slice(start, start + rows)
            Ao, Bo = A[owner[seg], None], B[owner[seg], None]
            vals[:, seg] = integrate_graded(lambda tau: fn(tau, Ao, Bo),
                                            lo[seg], hi[seg], FAR_PANELS,
                                            FAR_POINTS)
        out = [self._far_coef / m * np.bincount(owner, v, minlength=w.size)
               for v in vals]
        return tuple(out) if derivative else out[0]

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
    if not knots.size:
        return np.empty((kink.size, 0))
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
    return float(_energies(prob, v.values[None])[0])


def _energies(prob, V):
    """Energies of the candidates stacked in the rows of V (B, nodes),
    in one pass over the pairs (``_pair_energies``) plus the far tail.

    A row's pair sum runs over blocks whose height depends on B, so a
    candidate scored alone and in a stack agree up to the order of the
    sum.
    """
    n_cand = V.shape[0]
    out = _pair_energies(prob, np.ascontiguousarray(V.T))
    far = prob._far_tail(V[:, prob.omega_mask].ravel())
    return out + far.reshape(n_cand, -1).sum(axis=1)


def _pair_energies(prob, Vt, sub=None):
    """Pair part of the energies of the node-major stack Vt (nodes, B):
    sum over the stored pairs, or over the pairs ``sub`` only, of
    w G(|v(x) - v(y)| d^(-s)) for each column.

    Each block of ``_pair_blocks`` is summed by one matrix-vector product
    with the pair weights.  This is the package's one energy kernel.
    """
    G, _ = _profile(prob, Vt)
    out = np.zeros(Vt.shape[1])
    for w, _, t in _pair_blocks(prob, Vt, sub):
        out += w @ G(np.abs(t, out=t))
    return out


def _profile(prob, Vt):
    """(G, g) for the pair arguments t = |v(x) - v(y)| d^(-s) of the stack
    Vt.  Every t is at most (max V - min V) max d^(-s), also in floating
    point, since rounding is monotone; when that bound lies in the domain
    of the profile, the blocks skip its domain check (the unchecked
    bodies of ``NFunction.G`` and ``g``).  Otherwise, NaN included, they
    take the checked G and g, which raise what they raise on a block."""
    nf = prob.nf
    bound = (Vt.max() - Vt.min()) * prob._inv_ds_max
    if bound <= REPRESENTABLE_MAX:
        return nf._G_unchecked, nf._g_unchecked
    return nf.G, nf.g


def _pair_blocks(prob, Vt, sub=None):
    """Walk the stored pairs, or the pairs ``sub`` only, for the
    node-major stack Vt (nodes, B) in blocks of at most
    ``pairs.PAIR_BLOCK`` pair-by-candidate entries, yielding (w, d^(-s),
    t) of a block: its pair weights and inverse distance powers, and
    t = (v(x) - v(y)) d^(-s) of shape (pairs, B), the caller's to
    overwrite.  Node-major, one pair index gathers the B values of a
    node at once.  The block height
    depends on B only, so a stack of one is walked in the same blocks by
    ``_energies`` and ``_energy_gradient``."""
    ia, ja, _, w = prob._pairs
    inv_ds = prob._inv_ds
    if sub is not None:
        ia, ja, w, inv_ds = ia[sub], ja[sub], w[sub], inv_ds[sub]
    rows = max(1, pairs.PAIR_BLOCK // Vt.shape[1])
    for start in range(0, ia.size, rows):
        blk = slice(start, start + rows)
        t = np.take(Vt, ia[blk], axis=0)
        t -= np.take(Vt, ja[blk], axis=0)
        t *= inv_ds[blk, None]
        yield w[blk], inv_ds[blk], t


def _local_energies(prob, vals, nodes, eps):
    """(E+, E-), each of shape (nodes.size,): for node i = nodes[k], the
    energy terms that contain i, at vals + eps e_i and at vals - eps e_i.
    These are the stored pairs incident to i (``_pair_energies`` on them)
    and i's far tail.  Every other term is the same at both points, so
    E+[k] - E-[k] is the full energy's central difference without the
    rounding of the terms that cancel.  One gather of a node mask finds
    the pairs incident to any of the nodes."""
    ia, ja = prob._pairs[:2]
    probed = np.zeros(prob.lattice.n_nodes, dtype=bool)
    probed[nodes] = True
    near = np.flatnonzero(probed[ia] | probed[ja])
    ian, jan = ia[near], ja[near]
    stack = np.repeat(vals[:, None], 2, axis=1)
    out = np.empty((2, nodes.size))
    for k, i in enumerate(nodes):
        stack[i] = vals[i] + eps, vals[i] - eps
        out[:, k] = _pair_energies(prob, stack, near[(ian == i) | (jan == i)])
        stack[i] = vals[i]
    far = prob._far_tail(np.concatenate([vals[nodes] + eps,
                                         vals[nodes] - eps]))
    return out + far.reshape(2, -1)


def gradient(prob, v):
    """First variation at admissible ``v``; nonzero only on the domain."""
    prob.require_admissible(v)
    full = np.zeros(prob.lattice.n_nodes)
    full[prob.omega_mask] = _energy_gradient(prob, v.values)[1]
    return GridFunction(prob.lattice, full, v.exterior)


def _node_sums(prob, contrib, second):
    """Per-domain-node sums of the pair values ``contrib``: a pair adds
    its value to its first end and, by the ufunc ``second`` (``np.add``
    or ``np.subtract``), to its second end when that end lies in the
    domain, the first ends in pair order, then the second ends.
    ``np.bincount`` adds in index order from 0, as ``np.add.at`` into
    zeros would, and makes no pair-length temporary; the second ends go
    by ``second.at`` over blocks of ``pairs.PAIR_BLOCK`` pairs, so their
    selection does not grow with the pair count."""
    ia, ja = prob._pairs[:2]
    omega = prob.omega_mask
    acc = np.bincount(ia, contrib, minlength=prob.lattice.n_nodes)
    for start in range(0, ja.size, pairs.PAIR_BLOCK):
        blk = slice(start, start + pairs.PAIR_BLOCK)
        j = ja[blk]
        both = omega[j]
        second.at(acc, j[both], contrib[blk][both])
    return acc[omega]


def _energy_gradient(prob, vals):
    """(energy, domain gradient) of the node values ``vals`` in one walk
    over the stored pairs: each block of ``_pair_blocks`` (a stack of
    one) adds w G(t) to the energy, as ``_energies`` sums a stack of one,
    and stores the pair derivative w d^(-s) g(t) sign(v(x) - v(y)), which
    ``_node_sums`` scatters onto the nodes.  g(0) = 0 makes the integrand
    differentiable at coincident values."""
    Vt = vals[:, None]
    G, g = _profile(prob, Vt)
    pair = np.zeros(1)
    deriv = np.empty(prob._pairs[0].size)
    stop = 0
    for w, inv_ds, t in _pair_blocks(prob, Vt):
        start, stop = stop, stop + w.size
        # sign, then |t|, then the product in place: a pass holds two
        # pair-length temporaries besides ``deriv``
        d = deriv[start:stop]
        np.sign(t[:, 0], out=d)
        np.abs(t, out=t)
        pair += w @ G(t)
        d *= g(t[:, 0])
        d *= inv_ds
        d *= w
    far_energy, far_grad = prob._far_tail(vals[prob.omega_mask],
                                          derivative=True)
    grad = _node_sums(prob, deriv, np.subtract)
    grad += far_grad
    return float(pair[0] + far_energy.sum()), grad


def weak_residual(prob, v):
    """Largest pairing against the canonical indicator test functions;
    for that basis the pairing at a node coincides with the gradient
    component there, which is what makes the minimizer/weak-solution
    equivalence checkable."""
    prob.require_admissible(v)
    return float(np.abs(_energy_gradient(prob, v.values)[1]).max())


# -- quadratic assembly (closed-form oracle route for p = q = 2) ----------

def assemble_quadratic(prob):
    """Assemble E(v) = 0.5 v'Av - b'v + c over the domain unknowns.

    Exact for the quadratic power profile G(t) = t^2/2 (exponent 2,
    whatever indices it declares) with a level exterior model (f = c);
    used by the direct-solve oracle stage.
    """
    nf = prob.nf
    if not (nf.family == "power" and nf.exponent == 2.0):
        raise ValueError("quadratic assembly needs the power profile with p = 2")
    if prob.exterior_datum.exterior.level is None:
        raise ValueError("quadratic assembly needs a level exterior model "
                         "(exponent 0 or value 0)")
    return _assemble_surrogate(prob)


def _assemble_surrogate(prob):
    """Quadratic-growth surrogate system on the same pair structure.

    The pairs are walked in blocks of ``pairs.PAIR_BLOCK``, so no temporary
    grows with the pair count; d^(-2s) is raised once per shift and
    gathered (``pairs.shift_values``).  Every pair has its first end in the
    domain, and a pair of two domain nodes is stored once
    (``truncated_pairs``), so each off-diagonal entry is assigned its one
    term.  A diagonal entry sums its node's terms in pair order: as the
    first end of a domain pair, then as the second end, then over its
    halo pairs, one walk each; b accumulates the halo terms in pair
    order, as ``np.bincount`` would.
    """
    omega = prob.omega_mask
    omega_idx = np.flatnonzero(omega)
    pos = -np.ones(prob.lattice.n_nodes, dtype=int)
    pos[omega_idx] = np.arange(omega_idx.size)
    ia, ja, dist, w = prob._pairs
    no = omega_idx.size
    fvals = prob.exterior_datum.values
    inv_d2s = dist ** (-2.0 * prob.s)

    def blocks(domain):
        """(first-end positions, second ends, w d^(-2s)) of each block's
        pairs whose second end lies in the domain (``domain``) or not."""
        for start in range(0, ia.size, pairs.PAIR_BLOCK):
            blk = slice(start, start + pairs.PAIR_BLOCK)
            sel = omega[ja[blk]] == domain
            i, j = ia[blk][sel], ja[blk][sel]
            yield pos[i], j, w[blk][sel] * shift_values(inv_d2s, i, j)

    A = np.zeros((no, no))
    diag = np.zeros(no)
    for i, j, c in blocks(True):
        j = pos[j]
        A[i, j] = -c
        A[j, i] = -c
        np.add.at(diag, i, c)
    for _, j, c in blocks(True):
        np.add.at(diag, pos[j], c)
    b = np.zeros(no)
    const = 0.0
    for i, j, c in blocks(False):
        np.add.at(diag, i, c)
        fh = fvals[j]
        np.add.at(b, i, c * fh)
        # inf, without a warning, for data past the root of the float range
        with np.errstate(over="ignore"):
            const += float(np.sum(0.5 * c * fh ** 2))
    A[np.diag_indices(no)] = diag
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

def _cholesky(A):
    """Factor the SPD matrix A in its own storage for ``_cholesky_solve``:
    (A, inverses), A's lower triangle now the Cholesky factor L and
    ``inverses`` the inverses of L's diagonal blocks of width
    ``SUBST_BLOCK``.  The factor consumes A: past the diagonal blocks its
    upper triangle is left stale, and ``_cholesky_solve`` never reads it.

    Right-looking and blocked: each diagonal block is factored by LAPACK
    (``np.linalg.cholesky``) and inverted, the panel below it becomes
    A21 L11^(-T), and the trailing lower block columns are updated one at
    a time, so no temporary is larger than N x ``SUBST_BLOCK``.  A matrix
    of one block (N <= ``SUBST_BLOCK``) gets LAPACK's factor bit for bit.
    """
    n = A.shape[0]
    inverses = []
    for k0 in range(0, n, SUBST_BLOCK):
        k1 = k0 + SUBST_BLOCK
        L = np.linalg.cholesky(A[k0:k1, k0:k1])
        inverses.append(np.linalg.inv(L))
        A[k0:k1, k0:k1] = L
        panel = A[k1:, k0:k1] @ inverses[-1].T
        A[k1:, k0:k1] = panel
        for j0 in range(k1, n, SUBST_BLOCK):
            rows = panel[j0 - k1:]
            A[j0:, j0:j0 + SUBST_BLOCK] -= rows @ rows[:SUBST_BLOCK].T
    return A, inverses


def _cholesky_solve(factor, g):
    """A^(-1) g for the ``_cholesky`` factor of A = L L'.

    numpy has no triangular solve, so forward and back substitution run
    over the diagonal blocks of width ``SUBST_BLOCK``: one matvec for the
    part of the row already solved, one with the block's inverse.
    O(N^2) per call.
    """
    L, inverses = factor
    n = g.size
    y = np.empty(n)
    for k, inv in enumerate(inverses):
        i0, i1 = k * SUBST_BLOCK, (k + 1) * SUBST_BLOCK
        y[i0:i1] = inv @ (g[i0:i1] - L[i0:i1, :i0] @ y[:i0])
    x = np.empty(n)
    for k in reversed(range(len(inverses))):
        i0, i1 = k * SUBST_BLOCK, (k + 1) * SUBST_BLOCK
        x[i0:i1] = inverses[k].T @ (y[i0:i1] - L[i1:, i0:i1].T @ x[i1:])
    return x


def solve(prob, tol=1e-8, max_iter=5000, initial="zero"):
    """Minimize the energy over admissible candidates.

    Descent in the metric of the quadratic surrogate A (the p = 2
    operator on the same pairs, ``_assemble_surrogate``): A is factored
    once (``_cholesky``), each step is d = A^(-1) grad E, its length comes
    from the Barzilai-Borwein ratio (s'As)/(s'y), and Armijo backtracking
    (c1 = 1e-4, factor 0.5) accepts it.  Each trial point costs one pair
    walk, for its energy and gradient together (``_energy_gradient``).  The metric is the Sobolev
    gradient of the p = 2 problem, so the iteration count does not grow
    as h shrinks, and for p = 2 the first full step lands on the
    minimizer.  ``initial="harmonic"`` starts from A^(-1) b through the
    same factor.  Stops when the gradient sup-norm drops below
    tol * (1 + scale) with the g(osc(f))-based scale, making the
    tolerance dimensionless.  A domain of one node takes the same route:
    with one unknown the Barzilai-Borwein step is a secant step on the
    scalar derivative.
    """
    if initial not in ("zero", "harmonic"):
        raise ValueError("initial must be 'zero' or 'harmonic'")
    harmonic = initial == "harmonic"
    omega = prob.omega_mask
    vals = prob.exterior_datum.values.copy()

    osc = prob.data_oscillation()
    if osc == 0.0:
        # constant data: the constant extension is the exact minimizer
        # (domain nodes lie strictly inside the box, so a halo node exists)
        vals[omega] = vals[prob.halo_mask][0]
        u = GridFunction(prob.lattice, vals, prob.exterior_datum.exterior)
        e_now, g_now = _energy_gradient(prob, vals)
        res = float(np.abs(g_now).max())
        return SolveReport(u, e_now, res, 0, 0, True,
                           details={"stop_scale": 0.0, "threshold": tol,
                                    "initial": initial})

    # the stopping scale does not depend on the start, and it rejects data
    # past the profile's range before any N x N array exists
    threshold = tol * (1.0 + prob._gradient_scale)
    A, b, _, _ = _assemble_surrogate(prob)
    # A is SPD (positive weights, strictly diagonally dominant); its
    # storage becomes the factor
    factor = _cholesky(A)
    vals[omega] = _cholesky_solve(factor, b) if harmonic else 0.0

    v_om = vals[omega].copy()
    e_now, g_now = _energy_gradient(prob, vals)
    history = [e_now]
    alpha = 1.0
    step = 0.0
    failures = 0
    iterations = 0
    v_prev = None
    g_prev = None
    converged = float(np.abs(g_now).max()) <= threshold

    while not converged and iterations < max_iter:
        d = _cholesky_solve(factor, g_now)
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
            e_trial, g_trial = _energy_gradient(prob, vals)
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
        g_now = g_trial
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

