"""Shared problem factories for the test suite."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from fracglap import (ExteriorModel, GridFunction, Kernel, Lattice,
                      NonlocalProblem, make_power, make_power_log)
from fracglap import solver as sl


def line_problem(h=1 / 32, s=0.5, p=2.0, family="power", datum="sin",
                 rext=2.0, kernel=None, seed=None, datum_scale=1.0):
    """1-D Dirichlet instance with domain (-0.5, 0.5) and a halo wide
    enough for the requested truncation radius."""
    om_lo, om_hi = -0.5, 0.5
    pad = math.ceil(rext / h + 1e-9) * h
    lat = Lattice.from_box([om_lo - pad], [om_hi + pad], h)
    x = lat.coords[:, 0]
    omega = (x > om_lo - 1e-12) & (x < om_hi + 1e-12)
    # keep domain nodes strictly inside the box: padding guarantees it
    f = datum_values(datum, lat, seed) * datum_scale
    model = ExteriorModel(value=float(f[-1]))
    nf = make_power(p) if family == "power" else make_power_log(p)
    prob = NonlocalProblem(lat, omega, nf, kernel or Kernel(), s,
                           GridFunction(lat, f, model),
                           truncation_radius=rext)
    return prob


def square_problem(h=1 / 8, s=0.5, p=2.0, rext=1.0, datum="sin"):
    """Small 2-D instance on (-0.5, 0.5)^2."""
    pad = math.ceil(rext / h + 1e-9) * h
    lat = Lattice.from_box([-0.5 - pad, -0.5 - pad], [0.5 + pad, 0.5 + pad], h)
    x = lat.coords
    omega = np.all((x > -0.5 - 1e-12) & (x < 0.5 + 1e-12), axis=1)
    f = datum_values(datum, lat, None)
    model = ExteriorModel(value=float(f[-1]))
    prob = NonlocalProblem(lat, omega, make_power(p), Kernel(), s,
                           GridFunction(lat, f, model),
                           truncation_radius=rext)
    return prob


def datum_values(datum, lat, seed):
    phase = lat.coords.sum(axis=1)
    if datum == "sin":
        return np.sin(2.0 * phase) + 0.2 * phase
    if datum == "cusp":
        return np.abs(phase - 0.1) ** 0.5
    if datum == "random":
        rng = np.random.default_rng(seed)
        vals = np.zeros(lat.n_nodes)
        span = max(np.ptp(phase), 1e-12)
        for k in range(1, 5):
            vals += rng.normal() / k * np.sin(
                2 * math.pi * k * phase / span + rng.uniform(0, 2 * math.pi))
        return vals
    return np.full(lat.n_nodes, float(datum))


def quadratic_oracle(prob):
    """Independent dense assembly of the p = 2 instance: loops over the
    geometry from scratch, no reuse of the solver's pair cache."""
    lat = prob.lattice
    coords = lat.coords
    omega_idx = np.flatnonzero(prob.omega_mask)
    pos = {int(i): k for k, i in enumerate(omega_idx)}
    n = lat.dim
    h2n = lat.h ** (2 * n)
    s = prob.s
    rext = prob.truncation_radius
    f = prob.exterior_datum.values
    no = omega_idx.size
    A = np.zeros((no, no))
    b = np.zeros(no)
    c0 = 0.0
    for k, i in enumerate(omega_idx):
        for j in range(lat.n_nodes):
            if j == i:
                continue
            d = float(np.linalg.norm(coords[i] - coords[j]))
            if d > rext + 1e-12:
                continue
            if prob.omega_mask[j] and j < i:
                continue  # unordered domain-domain pair counted once
            a_coef = prob.kernel.coefficient_values(coords[None, i],
                                                    coords[None, j])[0]
            cw = 2.0 * a_coef * d ** (-n) * h2n * d ** (-2.0 * s)
            if prob.omega_mask[j]:
                kj = pos[j]
                A[k, k] += cw
                A[kj, kj] += cw
                A[k, kj] -= cw
                A[kj, k] -= cw
            else:
                A[k, k] += cw
                b[k] += cw * f[j]
                c0 += 0.5 * cw * f[j] ** 2
    model = prob.exterior_datum.exterior
    # the surrogate takes a genuine power model (a != 0) at level 0
    lvl = model.value if model.exponent == 0.0 else 0.0
    from fracglap import sphere_measure
    cfar = (2.0 * lat.h ** n * prob.kernel.far_coefficient
            * sphere_measure(n) * rext ** (-2.0 * s) / (2.0 * s))
    A[np.diag_indices(no)] += cfar
    b += cfar * lvl
    c0 += 0.5 * cfar * lvl ** 2 * no
    return A, b, c0, omega_idx


def oracle_energy(A, b, c0, v_omega):
    return 0.5 * v_omega @ A @ v_omega - b @ v_omega + c0


def scipy_radial(fn, r0, breaks=(), span=200.0):
    """int_r0^inf fn(rho) drho by ``scipy.integrate.quad`` in
    u = log(rho) over [log r0, log r0 + span], split at the logs of
    ``breaks`` past r0 and at log r0 + 2^k; ``fn`` maps an array of
    radii to the integrand.  The span must leave a negligible remainder
    while keeping the tail arguments in range."""
    u0 = math.log(r0)
    cuts = {u0 + 2.0 ** k for k in range(-8, 10) if 2.0 ** k < span}
    cuts |= {math.log(b) for b in breaks if b > r0}
    edges = [u0, *sorted(cuts), u0 + span]

    def density(u):
        rho = math.exp(u)
        return float(np.asarray(fn(np.array([rho])))[0]) * rho

    return sum(quad(density, lo, hi, epsabs=0, epsrel=1e-13, limit=400)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


# g with kinks at t = 0.5, 1, 2 and 8, the arguments a far field of
# order 1 gives it
KINKED_TABLE = [[0.5, 0.4], [1.0, 1.0], [2.0, 2.6], [8.0, 15.0],
                [1e6, 3e6]]


def scan_knot_radii(arg, knots, r0, span=200.0, points=200001):
    """Radii past r0 where ``arg`` (an array of radii to the argument
    of g) crosses one of ``knots``, located on a grid of ``points`` in
    u = log(rho) over [log r0, log r0 + span] and refined by ``brentq``:
    the breaks an oracle of a radial integral of g(arg) needs where g
    has a kink."""
    u = np.linspace(math.log(r0), math.log(r0) + span, points)
    vals = arg(np.exp(u))
    radii = []
    for knot in knots:
        side = np.sign(vals - knot)
        for i in np.flatnonzero(side[:-1] != side[1:]):
            root = brentq(lambda x: arg(np.exp(np.array([x])))[0] - knot,
                          u[i], u[i + 1], xtol=1e-15, rtol=1e-15)
            radii.append(math.exp(root))
    return radii


def coordinate_distance_blocks(xa, xb, rows=64):
    """Yield (sl, d) with d = |xa[sl] - xb| by the coordinate norm, over
    row blocks of ``xa``: the per-pair distances the estimate checks'
    ball sums formed before the lattice offset table, kept as their
    oracle."""
    for start in range(0, xa.shape[0], rows):
        sl = slice(start, start + rows)
        yield sl, np.linalg.norm(xa[sl, None, :] - xb[None, :, :], axis=2)


def naive_pair_sum(u, idx, term):
    """sum over ordered pairs of distinct nodes of ``idx`` of
    term(|u(x) - u(y)|, |x - y|), on the full m x m square of coordinate
    norms taken at once: the naive oracle of the tiled ball sums, for
    small m."""
    x, v = u.lattice.coords[idx], u.values[idx]
    d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    off = d > 0
    return np.sum(term(np.abs(v[:, None] - v[None, :])[off], d[off]))


def naive_caccioppoli(u, ball, k, cutoff, sign, s, nf):
    """lhs, cutoff term, discrete Lipschitz constant and the lattice part
    of the sup tail of ``caccioppoli_check``, from coordinate norms: the
    pair terms on the full m x m square taken at once, the sup tail in
    row blocks."""
    lat = u.lattice
    x, n, hn = lat.coords, lat.dim, lat.h ** lat.dim
    x0 = np.asarray(ball.center)

    def trunc(v):
        return np.maximum(v - k if sign == "plus" else k - v, 0.0)

    idx = np.flatnonzero(lat.select(ball))
    w = trunc(u.values[idx])
    phi = cutoff(np.linalg.norm(x[idx] - x0, axis=1))
    phiq = phi ** nf.q
    d = np.linalg.norm(x[idx, None, :] - x[None, idx, :], axis=2)
    off = d > 0
    dd = d[off]
    dw = np.abs(w[:, None] - w[None, :])[off]
    wmax = np.maximum(w[:, None], w[None, :])[off]
    pq = np.minimum(phiq[:, None], phiq[None, :])[off]
    dphi = np.abs(phi[:, None] - phi[None, :])[off]
    lhs = np.sum(nf.G(dw / dd ** s) * pq / dd ** n) * hn * hn
    cut = np.sum(nf.G(dphi / dd ** s * wmax) / dd ** n) * hn * hn
    lip = (dphi / dd).max()
    supp = idx[phi > 0]
    out = np.flatnonzero(np.linalg.norm(x - x0, axis=1) > ball.radius)
    wo = trunc(u.values[out])
    sup = 0.0
    for _, d in coordinate_distance_blocks(x[supp], x[out]):
        rows = np.sum(nf.g(wo / d ** s) * d ** (-(n + s)), axis=1) * hn
        sup = max(sup, rows.max())
    return lhs, cut, lip, sup


def pair_distances(prob):
    """Each stored pair's distance, expanded from the per-shift table of
    ``prob._pairs`` by direct indexing."""
    ia, ja, dist, _ = prob._pairs
    return dist[ja - ia + dist.size // 2]


def surrogate_add_at_reference(prob):
    """(A, b, const) of ``solver._assemble_surrogate`` with every entry of
    A and b accumulated by ``np.add.at`` in pair order: the assembly
    before its off-diagonal entries were assigned and its diagonal
    accumulated in a vector, kept as its oracle."""
    omega_idx = np.flatnonzero(prob.omega_mask)
    pos = -np.ones(prob.lattice.n_nodes, dtype=int)
    pos[omega_idx] = np.arange(omega_idx.size)
    ia, ja, _, w = prob._pairs
    cw = w * pair_distances(prob) ** (-2.0 * prob.s)
    no = omega_idx.size
    A = np.zeros((no, no))
    b = np.zeros(no)
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
    const = 0.0 + float(np.sum(0.5 * cw[halo] * fvals[ja[halo]] ** 2))
    lvl = prob.exterior_datum.exterior.level or 0.0
    r, s = prob.truncation_radius, prob.s
    cfar = prob._far_coef * r ** (-2.0 * s) / (2.0 * s)
    A[np.diag_indices(no)] += cfar
    b += cfar * lvl
    const += 0.5 * cfar * lvl ** 2 * no
    return A, b, const


def energy_values(prob, vals):
    """Energy of the node values ``vals``, admissible or not:
    ``solver._energies`` of a stack of one, as ``solver.energy`` takes
    it."""
    return float(sl._energies(prob, vals[None])[0])


def gradient_values(prob, vals):
    """Domain gradient at the node values ``vals``, admissible or not:
    the gradient half of ``solver._energy_gradient``, as
    ``solver.gradient`` takes it."""
    return sl._energy_gradient(prob, vals)[1]


def energy_reference(prob, vals):
    """Energy of the node values ``vals`` by one unblocked pair sum: the
    single-candidate route before ``solver._energies``, kept as its
    oracle."""
    ia, ja, _, w = prob._pairs
    t = np.abs(vals[ia] - vals[ja]) * prob._inv_ds
    pair_part = float(np.dot(prob.nf.G(t), w))
    far = float(np.sum(prob._far_tail(vals[prob.omega_mask])))
    return pair_part + far


def gradient_reference(prob, vals):
    """Domain gradient at the node values ``vals`` by one unblocked pass
    over the pairs, scattered by ``np.add.at``: the route before the
    gradient became the second half of ``solver._energy_gradient``, kept
    as its oracle."""
    ia, ja, _, w = prob._pairs
    dv = vals[ia] - vals[ja]
    t = np.abs(dv) * prob._inv_ds
    gval = prob.nf.g(t) * np.sign(dv) * prob._inv_ds * w
    acc = np.zeros(prob.lattice.n_nodes)
    np.add.at(acc, ia, gval)
    both = prob.omega_mask[ja]
    np.add.at(acc, ja[both], -gval[both])
    out = acc[prob.omega_mask]
    out += prob._far_tail(vals[prob.omega_mask], derivative=True)[1]
    return out


def far_terms_reference(prob, w):
    """(tail energy, its derivative) per node for node values ``w`` by
    two walks, one per term, each laying out its own segments: the route
    before ``NonlocalProblem._far_tail`` gave both from one walk, kept as
    its oracle."""
    from fracglap.quadrature import (BLOCK_NODES, FAR_PANELS, FAR_POINTS,
                                     integrate_graded)

    def far_level_T(w, level):
        dw = w - level
        return dw, np.abs(dw) * prob.truncation_radius ** (-prob.s)

    def far_energy(w):
        level = prob.exterior_datum.exterior.level
        if level is None:
            return far_power(w, derivative=False)
        _, T = far_level_T(w, level)
        return prob._far_coef * prob.nf.H(T) / prob.s

    def far_gradient(w):
        level = prob.exterior_datum.exterior.level
        if level is None:
            return far_power(w, derivative=True)
        dw, T = far_level_T(w, level)
        ratio = np.divide(prob.nf.G(T), T, out=np.zeros_like(T), where=T > 0)
        return prob._far_coef * np.sign(dw) * ratio \
            * prob.truncation_radius ** (-prob.s) / prob.s

    def far_power(w, derivative):
        model = prob.exterior_datum.exterior
        s, a = prob.s, model.exponent
        m = s - max(a, 0.0)
        if m <= 0.0:
            return np.full_like(w, np.inf)
        delta = abs(a) / m
        t0 = prob.truncation_radius ** (-m)
        c = np.full_like(w, model.value)
        A, B = (c, w) if a > 0 else (w, c)
        # sign(w - f(rho)) = flip * sign(A - B tau^delta)
        flip = -1.0 if a > 0 else 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            kink = np.where(A * B > 0, (A / B) ** (1.0 / delta), np.inf)
        bp = np.sort(np.column_stack([
            np.zeros_like(w), np.minimum(kink, t0), np.full_like(w, t0),
            sl._knot_crossings(prob.nf.knots, A, B, delta, kink, t0)]),
            axis=1)
        lo, hi = bp[:, :-1], bp[:, 1:]
        owner = np.broadcast_to(np.arange(w.size)[:, None], lo.shape)
        keep = hi > lo
        owner, lo, hi = owner[keep], lo[keep], hi[keep]

        def fn(tau, Ao, Bo):
            d = flip * tau * (Ao - Bo * tau ** delta)
            if derivative:
                return prob.nf.g(np.abs(d)) * np.sign(d) \
                    * tau ** (s / m - 1.0)
            return prob.nf.G(np.abs(d)) / tau

        vals = np.empty(owner.size)
        rows = max(1, BLOCK_NODES // (2 * FAR_PANELS * FAR_POINTS))
        for start in range(0, owner.size, rows):
            seg = slice(start, start + rows)
            Ao, Bo = A[owner[seg], None], B[owner[seg], None]
            vals[seg] = integrate_graded(lambda tau: fn(tau, Ao, Bo),
                                         lo[seg], hi[seg], FAR_PANELS,
                                         FAR_POINTS)
        return prob._far_coef / m * np.bincount(owner, vals,
                                                minlength=w.size)

    return far_energy(w), far_gradient(w)


def csv_writer_reference(f, path):
    """``GridFunction.to_csv`` by one ``csv.writer.writerow`` call per
    node: the writer before the columns were formatted at once, kept as
    its oracle."""
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i{d}" for d in range(f.lattice.dim)] + ["value"])
        for row, val in zip(f.lattice.multi_indices(), f.values):
            writer.writerow([*map(int, row), repr(float(val))])


def minimality_reference(ctx, rng):
    """``verify:minimality`` with one normal draw and one energy sum
    (``energy_reference``) per perturbation: the stage before its
    perturbations were scored in one pass, kept as its oracle."""
    from fracglap import solver as sl
    from fracglap.reports import EstimateReport
    prob = ctx.problem
    rep = ctx.ensure_solved()
    base = rep.minimizer.values
    e0 = energy_reference(prob, base)
    scale = 0.01 * (1.0 + prob.data_oscillation())
    violations = 0
    for _ in range(100):
        pert = base.copy()
        pert[prob.omega_mask] += scale * rng.normal(
            size=int(prob.omega_mask.sum()))
        if energy_reference(prob, pert) <= e0:
            violations += 1
    wres = sl.weak_residual(prob, rep.minimizer)
    thr = rep.details["threshold"]
    passed = violations == 0 and wres <= thr
    return EstimateReport(
        name="minimality", lhs=float(violations), rhs_terms={"allowed": 0.0},
        empirical_constant=float(violations),
        tolerance=0.5, passed=passed,
        details={"weak_residual": wres, "threshold": thr,
                 "energy": e0, "probes": 100})


def gagliardo_modular_reference(f, region, s, nf):
    """``funcspace.gagliardo_modular`` of the one function ``f`` in its own
    walk over the region's tiles: the route before the functions of a
    Sobolev-Poincare sweep shared one walk, kept as its oracle."""
    from fracglap import pairs
    lat = f.lattice
    idx = np.flatnonzero(lat.select(region))
    v = f.values[idx]
    n = lat.dim
    w_pair = lat.h ** (2 * n)
    table = pairs.OffsetTable(lat)
    ds = table.dist ** s
    dn = table.dist ** n
    total = 0.0
    for rows, cols, kc, mult in table.tiles(idx):
        dv = np.abs(v[rows, None] - v[None, cols])
        total += mult * float(np.sum(nf.G(dv / ds.take(kc))
                                     / dn.take(kc))) * w_pair
    return total


def caccioppoli_reference(u, ball, k, cutoff, sign, s, nf, bound=math.inf):
    """``regularity.caccioppoli_check`` at the one point (k, sign), with
    the ball geometry gathered for that point alone: the route before the
    points of a sweep shared one walk over the ball, kept as its oracle."""
    from fracglap import pairs
    from fracglap.regularity import _truncation_far_tail
    from fracglap.reports import EstimateReport
    lat = u.lattice
    x0 = np.asarray(ball.center, float)
    r = ball.radius
    idx = np.flatnonzero(lat.select(ball))
    n = lat.dim
    hn = lat.h ** n
    coords = lat.coords
    d0 = np.linalg.norm(coords[idx] - x0, axis=1)
    uv = u.values[idx]
    w = np.maximum(uv - k, 0.0) if sign == "plus" else np.maximum(k - uv, 0.0)
    phi = cutoff(d0)
    phiq = phi ** nf.q
    table = pairs.OffsetTable(lat)
    dist = table.dist
    ds = dist ** s
    dn = dist ** n
    lhs = rhs_cut = lip = 0.0
    for rows, cols, kc, mult in table.tiles(idx):
        dds = ds.take(kc)
        ddn = dn.take(kc)
        dw = np.abs(w[rows, None] - w[None, cols])
        wmax = np.maximum(w[rows, None], w[None, cols])
        pq = np.minimum(phiq[rows, None], phiq[None, cols])
        dphi = np.abs(phi[rows, None] - phi[None, cols])
        lhs += mult * float(np.sum(nf.G(dw / dds) * pq / ddn))
        rhs_cut += mult * float(np.sum(nf.G(dphi / dds * wmax) / ddn))
        lip = max(lip, float((dphi / dist.take(kc)).max(initial=0.0)))
    lhs *= hn * hn
    rhs_cut *= hn * hn
    mass = float(np.sum(w * phiq)) * hn
    supp = idx[phi > 0]
    out_idx = np.flatnonzero(np.linalg.norm(coords - x0, axis=1) > r)
    uo = u.values[out_idx]
    wo = np.maximum(uo - k, 0.0) if sign == "plus" else np.maximum(k - uo, 0.0)
    live = wo > 0
    out_idx, wo = out_idx[live], wo[live]
    sup_tail = 0.0
    if supp.size:
        svals = np.zeros(supp.size)
        kern = dist ** (-(n + s))
        for sl, kc in table.blocks(supp, out_idx):
            svals[sl] = np.sum(nf.g(wo[None, :] / ds.take(kc))
                               * kern.take(kc), axis=1) * hn
        far = _truncation_far_tail(u, x0, r, k, sign, s, nf)
        sup_tail = float(svals.max(initial=0.0)) + far
    return EstimateReport.from_sides(
        "caccioppoli", lhs,
        {"cutoff_term": rhs_cut, "mass_tail_term": mass * sup_tail}, bound,
        witnesses={"center": tuple(ball.center), "radius": r, "level": k,
                   "sign": sign, "plateau": cutoff.plateau,
                   "support": cutoff.support},
        details={"discrete_lipschitz": lip, "mass": mass,
                 "sup_tail": sup_tail})


def central_differences_full(prob, vals, nodes, eps):
    """(E+, E-) of the whole energy at vals +- eps e_i for each node i of
    ``nodes``, scored as one stack (``solver._energies``): the
    ``verify:gradient_fd`` route before its differences were taken over
    the terms that contain the probed node, kept as its oracle."""
    from fracglap import solver as sl
    cand = np.tile(vals, (2, nodes.size, 1))
    k = np.arange(nodes.size)
    cand[0, k, nodes] += eps
    cand[1, k, nodes] -= eps
    return sl._energies(prob, cand.reshape(2 * nodes.size, -1)).reshape(2, -1)
