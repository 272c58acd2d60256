"""Shared problem factories for the test suite."""

import math

import numpy as np
from scipy.integrate import quad

from fracglap import (ExteriorModel, GridFunction, Kernel, Lattice,
                      NonlocalProblem, make_power, make_power_log)


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
