"""Batch front end: JSON problem configs in, machine-readable reports
out.

A config describes one discrete Dirichlet instance plus a pipeline of
stages: ``solve``, ``verify:<estimate>`` and ``sweep:<estimate>``.
Artifacts land in the output directory as SolveReport.json,
minimizer.csv, estimate_<name>.json per verify stage, and
sweep_<name>.csv plus its summary sweep_<name>.json per sweep; every
JSON report carries a ``timestamp`` field and is otherwise
byte-identical across reruns with the same seed.

Exit codes: 0 all declared criteria hold, 2 config/schema violation,
3 solver non-convergence, 4 estimate failure, 5 I/O failure.  The
``FAILURES`` table maps each exception class to its code.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys

import jsonschema
import numpy as np

from . import nfunction as nfm
from . import regularity as rg
from . import solver as sl
from .funcspace import (Ball, ExteriorModel, GridFunction, Kernel, Lattice,
                        luxemburg_norm, membership_check, sphere_measure,
                        tail)
from .reports import EstimateReport, write_atomic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ESTIMATE = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "FRACGLAP_OUT"


class ConfigError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


# -- datum / corpus families ----------------------------------------------

def _datum_values(cfg, lattice, rng):
    fam = cfg["family"]
    x = lattice.coords
    phase = x.sum(axis=1)
    if fam == "constant":
        return np.full(lattice.n_nodes, float(cfg["value"]))
    if fam == "linear":
        grad = np.asarray(cfg.get("gradient", [1.0] * lattice.dim))
        return x @ grad + float(cfg.get("offset", 0.0))
    if fam == "sin":
        return (float(cfg.get("amplitude", 1.0))
                * np.sin(float(cfg.get("frequency", 2.0)) * phase)
                + float(cfg.get("offset", 0.0)))
    if fam == "power_cusp":
        center = np.asarray(cfg.get("center", [0.0] * lattice.dim))
        return (float(cfg.get("scale", 1.0))
                * np.linalg.norm(x - center, axis=1) ** float(cfg["gamma"]))
    if fam == "two_level":
        field = np.sin(float(cfg.get("frequency", 3.0)) * phase)
        return np.where(field < 0, float(cfg["low"]), float(cfg["high"]))
    if fam == "random_smooth":
        if rng is None:
            raise ConfigError("random datum family requires a seed")
        return _random_smooth(lattice, rng,
                              modes=int(cfg.get("modes", 4)),
                              amplitude=float(cfg.get("amplitude", 1.0)))
    raise ConfigError(f"unknown datum family {fam!r}")


def _random_smooth(lattice, rng, modes=4, amplitude=1.0):
    phase = lattice.coords.sum(axis=1)
    span = max(np.ptp(phase), 1e-12)
    vals = np.zeros(lattice.n_nodes)
    for k in range(1, modes + 1):
        a = rng.normal() * amplitude / k
        ph = rng.uniform(0, 2 * math.pi)
        vals += a * np.sin(2 * math.pi * k * phase / span + ph)
    return vals


def generate_corpus(spec, seed):
    """Deterministic-for-seed family of grid functions for inequality
    fuzzing: random-smooth, power-cusp |x-c|^gamma, or two-level
    indicator-like functions."""
    lat_cfg = spec["lattice"]
    lattice = Lattice.from_box(lat_cfg["lo"], lat_cfg["hi"], lat_cfg["h"])
    family = spec["family"]
    rng = np.random.default_rng(seed)
    model = ExteriorModel()
    if family == "power-cusp":
        vals = _datum_values({**spec, "family": "power_cusp"}, lattice, rng)
        return [GridFunction(lattice, vals, model)]
    count = int(spec.get("count", 8))
    out = []
    for _ in range(count):
        if family == "random-smooth":
            vals = _random_smooth(lattice, rng,
                                  modes=int(spec.get("modes", 4)),
                                  amplitude=float(spec.get("amplitude", 1.0)))
        elif family == "two-level":
            field = _random_smooth(lattice, rng, modes=3, amplitude=1.0)
            lo = float(spec.get("low", 0.0))
            hi = float(spec.get("high", 1.0))
            vals = np.where(field < np.median(field), lo, hi)
        else:
            raise ConfigError(f"unknown corpus family {family!r}")
        out.append(GridFunction(lattice, vals, model))
    return out


# -- config -> problem -----------------------------------------------------

def build_problem(cfg, rng=None):
    p = cfg["problem"]
    dim = int(p["dim"])
    h = float(p["h"])
    om_lo = np.asarray(p["omega"]["lo"], dtype=float)
    om_hi = np.asarray(p["omega"]["hi"], dtype=float)
    if om_lo.size != dim or om_hi.size != dim or np.any(om_hi <= om_lo):
        raise ConfigError("omega box must have dim coordinates with hi > lo")
    nf = nfm.from_config(p["nfunction"])
    kernel = Kernel.from_config(p.get("kernel", {"form": "pure"}))
    s = float(p["s"])
    # the schema's rule, for a config that skips the schema
    if dim > 1 and "truncation_radius" not in p:
        raise ConfigError(f"problem.truncation_radius is required in {dim}-D")
    r_ext = float(p.get("truncation_radius",
                        8.0 * float(np.linalg.norm(om_hi - om_lo))))
    pad = math.ceil(r_ext / h + 1e-9) * h
    lattice = Lattice.from_box(om_lo - pad, om_hi + pad, h)
    omega = lattice.select((om_lo, om_hi))
    if not omega.any():
        raise ConfigError("omega box contains no lattice nodes")
    # a datum past the float range is rejected by name, without a warning
    with np.errstate(all="ignore"):
        vals = _datum_values(p["datum"], lattice, rng)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"the {p['datum']['family']} datum is not finite "
                          "on the lattice")
    model = ExteriorModel.from_config(p.get("exterior"))
    datum = GridFunction(lattice, vals, model)
    try:
        return sl.NonlocalProblem(lattice, omega, nf, kernel, s, datum,
                                  truncation_radius=r_ext)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- stage driver -----------------------------------------------------------

class RunContext:
    def __init__(self, config, out_dir, seed):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.tolerances = dict(config.get("tolerances", {}))
        self._rng_counter = 0
        self.problem = build_problem(config, self.stage_rng())
        self.solve_report = None
        self._checked = {}

    def stage_rng(self):
        if self.seed is None:
            return None
        self._rng_counter += 1
        return np.random.default_rng([self.seed, self._rng_counter])

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))

    def ensure_solved(self):
        if self.solve_report is None:
            opts = self.config.get("solver", {})
            self.solve_report = sl.solve(
                self.problem,
                tol=float(opts.get("tol", 1e-9)),
                max_iter=int(opts.get("max_iter", 20000)),
                initial=opts.get("initial", "zero"),
            )
            _write_json(self.out_dir, "SolveReport.json",
                        self.solve_report.summary())
            self.solve_report.minimizer.to_csv(
                os.path.join(self.out_dir, "minimizer.csv"))
        if not self.solve_report.converged:
            raise SolverFailure("solver did not converge")
        return self.solve_report

    def checked(self, name, check, points):
        """One result per point, each distinct (name, point) computed
        once per run: check(batch), one result per point of the batch,
        is called once, on the points the memo misses.  A check scores
        each point on its own, so a hit is the result a fresh call would
        give."""
        missed = [p for p in dict.fromkeys(points)
                  if (name, p) not in self._checked]
        if missed:
            self._checked.update(((name, p), result)
                                 for p, result in zip(missed, check(missed)))
        return [self._checked[name, p] for p in points]


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _jsonable(obj):
    """``obj`` with numpy values as Python ones and a non-finite float as
    the string "inf", "-inf" or "nan": strict JSON has neither."""
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(out_dir, name, payload):
    doc = {"timestamp": _timestamp(), **_jsonable(payload)}

    def write(fh):
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")

    write_atomic(os.path.join(out_dir, name), write)


def _write_sweep_csv(out_dir, name, reports):
    keys = sorted({k for r in reports for k in r.witnesses})
    rhs_keys = sorted({k for r in reports for k in r.rhs_terms})

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(keys + ["lhs"] + [f"rhs_{k}" for k in rhs_keys]
                        + ["empirical_constant", "passed"])
        for r in reports:
            row = [repr(r.witnesses.get(k, "")) for k in keys]
            row.append(repr(r.lhs))
            row += [repr(r.rhs_terms.get(k, "")) for k in rhs_keys]
            row += [repr(r.empirical_constant), str(r.passed)]
            writer.writerow(row)

    write_atomic(os.path.join(out_dir, f"sweep_{name}.csv"), write,
                 newline="")


def _default_ball(ctx):
    p = ctx.config["problem"]
    lo = np.asarray(p["omega"]["lo"], float)
    hi = np.asarray(p["omega"]["hi"], float)
    center = 0.5 * (lo + hi)
    radius = 0.5 * float((hi - lo).min()) * 0.9
    return Ball(tuple(center), radius)


def _sample_grid(nf, rng, count):
    lo, hi = -3.0, 3.0
    if nf.family == "table":
        lo, hi = math.log10(nf.t_max) - 6.0, math.log10(nf.t_max)
    return 10.0 ** rng.uniform(lo, hi, size=count)


# -- shared checks -----------------------------------------------------------
# One helper per estimate, on a list of points; a verify stage is its
# sweep's default point.

def _corpus(ctx, rng, count):
    """``count`` random-smooth functions on the problem lattice."""
    lat = ctx.problem.lattice
    spec = {"family": "random-smooth",
            "lattice": {"lo": lat.lo, "hi": lat.hi, "h": lat.h},
            "count": count}
    return generate_corpus(spec, int(rng.integers(2 ** 31)))


def _ball_levels(ctx):
    """|u| of the minimizer at the nodes of the default ball."""
    u = ctx.ensure_solved().minimizer
    return np.abs(u.values[u.lattice.select(_default_ball(ctx))])


def _boundedness(ctx, fractions):
    """Local boundedness of the minimizer on the default ball scaled by
    each of ``fractions``; a ball must lie in the domain."""
    prob = ctx.problem
    u = ctx.ensure_solved().minimizer
    base = _default_ball(ctx)
    bound = ctx.tol("boundedness", math.inf)
    return ctx.checked("boundedness", lambda batch: [
        rg.boundedness_check(u, Ball(base.center, base.radius * f), prob.s,
                             prob.nf, kernel=prob.kernel, bound=bound,
                             omega_mask=prob.omega_mask) for f in batch],
        fractions)


def _caccioppoli(ctx, points):
    """Caccioppoli reports of the minimizer on the default ball, one per
    (level, sign) of ``points``; a batch takes one walk over the ball."""
    u = ctx.ensure_solved().minimizer
    ball = _default_ball(ctx)
    cut = rg.Cutoff(plateau=0.5 * ball.radius, support=0.85 * ball.radius)
    bound = ctx.tol("caccioppoli", math.inf)
    return ctx.checked("caccioppoli", lambda batch: rg.caccioppoli_check(
        u, ball, batch, cut, ctx.problem.s, ctx.problem.nf, bound=bound),
        points)


def _sobolev_poincare(ctx, fs):
    """Sobolev-Poincare reports on the default ball, one per function of
    ``fs`` (never repeated, so not memoized); a batch takes one walk."""
    n, s = ctx.problem.lattice.dim, ctx.problem.s
    theta = 0.5 * (1.0 + n / (n - s / 2.0))
    ball = _default_ball(ctx)
    bound = ctx.tol("sobolev_poincare", math.inf)
    return rg.sobolev_poincare_check(fs, ball, s, ctx.problem.nf, theta,
                                     bound=bound)


def _decay_sigma(ctx, r0):
    """Largest ratio the lattice can resolve over four nested levels."""
    h = ctx.problem.lattice.h
    return min(0.85, max(0.35, (4.0 * h / r0) ** (1.0 / 3.0)))


def _holder_decay(ctx, sigmas):
    """Oscillation decay fits over ten levels from half the default
    ball's radius, one per ratio of ``sigmas``, on the run's boundedness
    report for the default ball."""
    u = ctx.ensure_solved().minimizer
    brep = _boundedness(ctx, [1.0])[0]
    return ctx.checked("holder_decay", lambda batch: rg.holder_decay_fit(
        u, brep, batch, 10, ctx.problem.s, ctx.problem.nf), sigmas)


# -- verify stages -----------------------------------------------------------

def _stage_linear_oracle(ctx, rng):
    prob = ctx.problem
    rep = ctx.ensure_solved()
    A, b, _, _ = sl.assemble_quadratic(prob)
    direct = np.linalg.solve(A, b)
    err = float(np.abs(rep.minimizer.values[prob.omega_mask] - direct).max())
    tol = ctx.tol("linear_oracle", 1e-8)
    return EstimateReport.from_sides(
        "linear_oracle", err, {"tolerance": tol}, 1.0,
        details={"sup_error": err})


# rounding allowance of the central difference, in units of
# eps_mach * (|E(v+)| + |E(v-)|) / (2 h), E the energy terms that contain
# the probed node: each sum is exact only to about eps_mach * |E|,
# whatever order the summation takes
FD_ROUNDING = 2.0


def _stage_gradient_fd(ctx, rng):
    """Gradient against central differences of the energy at probed
    nodes of a random admissible candidate.  A difference at node i is
    taken over the energy terms that contain i, the pairs incident to i
    and i's far tail (``solver._local_energies``): the other terms
    cancel, and would add only their rounding.  A probe passes when
    |g - fd| <= tol |fd| + FD_ROUNDING eps_mach (|E+| + |E-|) / (2 h),
    E+- those local sums: a small component would otherwise be judged
    on the rounding of the sums alone."""
    prob = ctx.problem
    n_om = int(prob.omega_mask.sum())
    v = prob.datum_extension(rng.normal(size=n_om))
    g = sl._energy_gradient(prob, v.values)[1]
    idx = np.flatnonzero(prob.omega_mask)
    probe = rng.choice(n_om, size=min(12, n_om), replace=False)
    scale = max(1.0, float(np.abs(v.values).max()))
    eps = 1e-6 * scale
    e_plus, e_minus = sl._local_energies(prob, v.values, idx[probe], eps)
    fd = (e_plus - e_minus) / (2 * eps)
    err = np.abs(g[probe] - fd)
    fd_abs = np.maximum(np.abs(fd), 1e-12)
    e_sum = np.abs(e_plus) + np.abs(e_minus)
    tol = ctx.tol("gradient_fd", 1e-5)
    relative = tol * fd_abs
    rounding = FD_ROUNDING * np.finfo(float).eps * e_sum / (2 * eps)
    w = int(np.argmax(err / (relative + rounding)))
    return EstimateReport.from_sides(
        "gradient_fd", err[w],
        {"relative": relative[w], "rounding": rounding[w]}, 1.0,
        witnesses={"node": int(idx[probe[w]])},
        details={"max_rel_error": float(np.max(err / fd_abs)),
                 "tolerance": tol, "probes": int(probe.size)})


def _stage_minimality(ctx, rng):
    """No random perturbation of the minimizer lowers the energy, and
    the weak residual is within the threshold the solve recorded.  The
    100 perturbations (normal, scale 0.01 (1 + osc f), on the domain)
    are drawn as one (100, domain nodes) block, the same stream as 100
    draws of a row each, and scored with the minimizer in one pass over
    the pairs (``solver._energies``), so every energy compared has the
    same summation order."""
    prob = ctx.problem
    rep = ctx.ensure_solved()
    base = rep.minimizer.values
    scale = 0.01 * (1.0 + prob.data_oscillation())
    # row 0 is the minimizer itself, scored in the same pass
    cand = np.tile(base, (101, 1))
    cand[1:, prob.omega_mask] += scale * rng.normal(
        size=(100, int(prob.omega_mask.sum())))
    energies = sl._energies(prob, cand)
    e0 = float(energies[0])
    violations = int(np.count_nonzero(energies[1:] <= e0))
    wres = sl.weak_residual(prob, rep.minimizer)
    thr = rep.details["threshold"]
    passed = violations == 0 and wres <= thr
    return EstimateReport(
        name="minimality", lhs=float(violations), rhs_terms={"allowed": 0.0},
        empirical_constant=float(violations),
        tolerance=0.5, passed=passed,
        details={"weak_residual": wres, "threshold": thr,
                 "energy": e0, "probes": 100})


def _stage_nfunction(ctx, rng):
    nf = ctx.problem.nf
    tol = ctx.tol("nfunction",
                  1e-8 if nf.family != "power_log" else 1e-6)
    count = 2000
    grid = _sample_grid(nf, rng, count)
    pairs = np.column_stack([_sample_grid(nf, rng, count),
                             _sample_grid(nf, rng, count)])
    factors = 10.0 ** rng.uniform(-2, 2, size=count)
    reports = [
        nfm.check_growth_sandwich(nf, grid, tol=tol),
        nfm.check_young(nf, pairs, eps=float(rng.uniform(0.05, 1.0)), tol=tol),
        nfm.check_scaling(nf, np.column_stack([factors, grid]), tol=tol),
        nfm.check_doubling(nf, grid, tol=tol),
    ]
    worst = max(r.empirical_constant for r in reports)
    return EstimateReport(
        name="nfunction", lhs=worst, rhs_terms={"unit": 1.0},
        empirical_constant=worst, tolerance=1.0 + tol,
        passed=all(r.passed for r in reports),
        details={r.name: {"constant": r.empirical_constant,
                          "passed": r.passed} for r in reports})


def _stage_luxemburg(ctx, rng):
    lat = ctx.problem.lattice
    nf = ctx.problem.nf
    hn = lat.h ** lat.dim
    worst = 0.0
    bound_ok = True
    for f in _corpus(ctx, rng, 8):
        norm = luxemburg_norm(f, None, nf)
        if norm == 0.0:
            continue
        modular_unit = float(np.sum(nf.G(np.abs(f.values) / norm))) * hn
        worst = max(worst, abs(modular_unit - 1.0))
        modular = float(np.sum(nf.G(np.abs(f.values)))) * hn
        bound_ok &= norm <= modular + 1.0 + 1e-10
    tol = ctx.tol("luxemburg", 1e-8)
    return EstimateReport(
        name="luxemburg", lhs=worst, rhs_terms={"tolerance": tol},
        empirical_constant=worst / tol if tol else math.inf, tolerance=1.0,
        passed=bool(worst <= tol and bound_ok),
        details={"max_modular_deviation": worst,
                 "norm_modular_bound_ok": bound_ok})


def _stage_tail_closed_form(ctx, rng):
    # the tail of a level M beyond R is |S^(n-1)| G(M R^(-s)) / (s M)
    # (substitute tau = M rho^(-s)), against the radial rule on g
    prob = ctx.problem
    nf = prob.nf
    lat = prob.lattice
    M = 0.75
    model = ExteriorModel(value=M).resolved(lat)
    f = GridFunction(lat, np.zeros(lat.n_nodes), model)
    R = max(lat.circumradius(lat.center()), model.start_radius) * 1.25
    got = tail(f, lat.center(), R, prob.s, nf)
    want = sphere_measure(lat.dim) * nf.G(M * R ** -prob.s) / (prob.s * M)
    rel = abs(got - want) / want
    tol = ctx.tol("tail_closed_form", 1e-6)
    return EstimateReport.from_sides(
        "tail_closed_form", rel, {"tolerance": tol}, 1.0,
        details={"computed": got, "closed_form": want})


def _stage_membership(ctx, rng):
    prob = ctx.problem
    rep = membership_check(prob.exterior_datum, prob.s, prob.nf)
    return EstimateReport(
        name="membership", lhs=0.0 if rep.consistent else 1.0,
        rhs_terms={"allowed": 0.0},
        empirical_constant=0.0 if rep.consistent else math.inf,
        tolerance=0.5, passed=rep.consistent,
        details={"member": rep.member, "tails": list(rep.tails),
                 "weighted_integral": rep.weighted_integral})


def _stage_de_giorgi(ctx, rng):
    exact = rg.de_giorgi_iterate(1.0, 2.0, 1.0, 0.5, steps=40)
    ok = exact.bound_holds and all(
        exact.sequence[i] == 2.0 ** (-i - 1) for i in range(41))
    cases = 200
    violations = 0
    for _ in range(cases):
        C = float(10.0 ** rng.uniform(-2, 2))
        B = float(1.0 + 10.0 ** rng.uniform(-1, 1))
        beta = float(10.0 ** rng.uniform(-0.7, 0.7))
        A0 = C ** (-1.0 / beta) * B ** (-1.0 / beta ** 2)
        res = rg.de_giorgi_iterate(C, B, beta, A0, steps=50)
        if not res.bound_holds:
            violations += 1
    return EstimateReport(
        name="de_giorgi", lhs=float(violations), rhs_terms={"allowed": 0.0},
        empirical_constant=float(violations), tolerance=0.5,
        passed=bool(ok and violations == 0),
        details={"exact_case_ok": bool(ok), "threshold_cases": cases,
                 "violations": violations})


def _stage_boundedness(ctx, rng):
    return _boundedness(ctx, [1.0])[0]


def _stage_caccioppoli(ctx, rng):
    return _caccioppoli(ctx, [(float(np.quantile(_ball_levels(ctx), 0.5)),
                               "plus")])[0]


def _stage_logarithmic(ctx, rng):
    u = ctx.ensure_solved().minimizer
    ball = _default_ball(ctx)
    model = u.exterior
    if model.level is None:
        raise ConfigError("logarithmic stage needs a level exterior model "
                          "(the shift must extend globally)")
    # shift into the nonnegative range required on the larger ball; the
    # shifted model is built from the level, not by ``replace``, because
    # a value-0 model may carry an exponent
    shift = float(np.abs(u.values).max()) + 1.0
    shifted = ExteriorModel(value=model.level + shift, center=model.center,
                            start_radius=model.start_radius)
    upos = GridFunction(u.lattice, u.values + shift, shifted)
    R = ball.radius
    r = 0.4 * R
    return rg.log_estimate_check(upos, ball.center, r, R, d=0.1,
                                 nf=ctx.problem.nf, s=ctx.problem.s,
                                 a=shift, b=4.0,
                                 bound=ctx.tol("logarithmic", math.inf))


def _stage_sobolev_poincare(ctx, rng):
    return _sobolev_poincare(ctx, [ctx.ensure_solved().minimizer])[0]


def _stage_holder_decay(ctx, rng):
    r0 = 0.5 * _default_ball(ctx).radius
    sigma = _decay_sigma(ctx, r0)
    res = _holder_decay(ctx, [sigma])[0]
    return EstimateReport(
        name="holder_decay", lhs=res.alpha_hat, rhs_terms={"unit": 1.0},
        empirical_constant=res.alpha_hat, tolerance=math.inf,
        passed=res.passed,
        witnesses={"r0": r0, "sigma": sigma, "levels": res.resolved_levels},
        details={"oscillations": res.oscillations, "radii": res.radii,
                 "omega0": res.schedule.omega0,
                 "c_holder": res.c_holder,
                 "constraints": res.schedule.constraints})


# -- sweep stages ------------------------------------------------------------

def _sweep_boundedness(ctx, rng, params):
    return _boundedness(ctx, params.get("fractions", [1.0, 0.8, 0.6, 0.45]))


def _sweep_caccioppoli(ctx, rng, params):
    levels = np.quantile(_ball_levels(ctx), [0.25, 0.5, 0.75])
    signs = params.get("signs", ["plus", "minus"])
    return _caccioppoli(ctx, [(float(k), sign) for k in levels
                              for sign in signs])


def _sweep_sobolev_poincare(ctx, rng, params):
    return _sobolev_poincare(ctx, _corpus(ctx, rng, params.get("count", 6)))


def _sweep_holder_decay(ctx, rng, params):
    base = _decay_sigma(ctx, 0.5 * _default_ball(ctx).radius)
    sigmas = params.get("sigmas", [base, min(0.9, base * 1.1)])
    return [EstimateReport(
        name="holder_decay", lhs=res.alpha_hat, rhs_terms={"unit": 1.0},
        empirical_constant=res.alpha_hat, tolerance=math.inf,
        passed=res.passed,
        witnesses={"sigma": sg, "levels": res.resolved_levels},
        details={"c_holder": res.c_holder})
        for sg, res in zip(sigmas, _holder_decay(ctx, sigmas))]


# -- stage table -------------------------------------------------------------
# A verify stage is called as fn(ctx, rng) and a sweep as
# fn(ctx, rng, params), params = config["sweeps"][name] (default {});
# rng is None unless the stage is in SEEDED_STAGES.

VERIFY_STAGES = {
    "linear_oracle": _stage_linear_oracle,
    "gradient_fd": _stage_gradient_fd,
    "minimality": _stage_minimality,
    "nfunction": _stage_nfunction,
    "luxemburg": _stage_luxemburg,
    "tail_closed_form": _stage_tail_closed_form,
    "membership": _stage_membership,
    "de_giorgi": _stage_de_giorgi,
    "boundedness": _stage_boundedness,
    "caccioppoli": _stage_caccioppoli,
    "logarithmic": _stage_logarithmic,
    "sobolev_poincare": _stage_sobolev_poincare,
    "holder_decay": _stage_holder_decay,
}

SWEEP_STAGES = {
    "boundedness": _sweep_boundedness,
    "caccioppoli": _sweep_caccioppoli,
    "sobolev_poincare": _sweep_sobolev_poincare,
    "holder_decay": _sweep_holder_decay,
}

# wrappers (a tracer, a test) replace entries of the dicts in place
STAGES = {"verify": VERIFY_STAGES, "sweep": SWEEP_STAGES}

# Stages that sample randomly.  Each gets its own stream of the config
# seed, drawn in pipeline order, so a pipeline with any of them needs a
# seed.
SEEDED_STAGES = frozenset({
    "verify:gradient_fd", "verify:minimality", "verify:nfunction",
    "verify:luxemburg", "verify:de_giorgi", "sweep:sobolev_poincare",
})


# Keys of the config's ``tolerances``: the names ``RunContext.tol`` reads.
TOLERANCE_KEYS = frozenset(
    "linear_oracle gradient_fd nfunction luxemburg tail_closed_form "
    "boundedness caccioppoli logarithmic sobolev_poincare".split())


# -- config schema -----------------------------------------------------------
# The one validator of a config.  Its stage names, tolerance keys and seed
# rule are read from the tables above; every object but ``datum``, whose
# keys depend on its family, names all its keys, so a misspelled key is
# an error rather than a default.

def _family_keys(required):
    """Schema clauses that require, for each family, the keys its
    builder reads without a default."""
    return [{"if": {"required": ["family"],
                    "properties": {"family": {"const": fam}}},
             "then": {"required": keys}}
            for fam, keys in required.items()]


def _strict(required=(), **properties):
    """An object schema that allows exactly the keys of ``properties``."""
    return {"type": "object", "additionalProperties": False,
            "properties": properties,
            **({"required": list(required)} if required else {})}


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_strict(
        ["problem", "pipeline"],
        problem={**_strict(
            ["dim", "h", "omega", "s", "nfunction", "datum"],
            dim={"type": "integer", "minimum": 1, "maximum": 3},
            h={"type": "number", "exclusiveMinimum": 0},
            omega=_strict(
                ["lo", "hi"],
                lo={"type": "array", "items": {"type": "number"}},
                hi={"type": "array", "items": {"type": "number"}}),
            s={"type": "number", "exclusiveMinimum": 0,
               "exclusiveMaximum": 1},
            nfunction={
                **_strict(["family"],
                          family={"enum": ["power", "power_log", "table"]},
                          p={"type": "number"}, q={"type": "number"},
                          points={"type": "array"}),
                "allOf": _family_keys({"power": ["p"], "power_log": ["p"],
                                       "table": ["points"]}),
            },
            kernel=_strict(**{
                "form": {"enum": ["pure", "weighted"]},
                "lambda": {"type": "number"},
                "Lambda": {"type": "number"},
                "kind": {"enum": ["oscillating"]},
                "frequency": {"type": "number"},
            }),
            datum={
                "type": "object",
                "required": ["family"],
                "properties": {"family": {"enum": [
                    "constant", "linear", "sin", "power_cusp", "two_level",
                    "random_smooth"]}},
                "allOf": _family_keys({"constant": ["value"],
                                       "power_cusp": ["gamma"],
                                       "two_level": ["low", "high"]}),
            },
            exterior=_strict(
                ["kind"],
                kind={"enum": ["zero", "constant", "power"]},
                value={"type": "number"},
                exponent={"type": "number"},
                center={"type": "array", "items": {"type": "number"}},
                start_radius={"type": "number"}),
            truncation_radius={"type": "number", "exclusiveMinimum": 0}),
            # the default radius 8 |hi - lo| suits 1-D only: on the unit
            # square at h = 1/32 it would take 448 M pairs
            "if": {"required": ["dim"], "properties": {
                "dim": {"type": "integer", "minimum": 2}}},
            "then": {"required": ["truncation_radius"]},
        },
        pipeline={"type": "array", "minItems": 1, "items": {"enum": [
            "solve", *(f"{kind}:{name}" for kind, table in STAGES.items()
                       for name in table)]}},
        seed={"type": "integer"},
        output_dir={"type": "string"},
        tolerances=_strict(**{key: {"type": "number"}
                              for key in sorted(TOLERANCE_KEYS)}),
        # one object per sweep stage, holding only that sweep's params
        sweeps=_strict(
            boundedness=_strict(fractions={
                "type": "array", "items": {"type": "number"}, "minItems": 1}),
            caccioppoli=_strict(signs={
                "type": "array", "items": {"enum": ["plus", "minus"]},
                "minItems": 1}),
            sobolev_poincare=_strict(count={"type": "integer", "minimum": 1}),
            holder_decay=_strict(sigmas={
                "type": "array", "items": {"type": "number"}, "minItems": 1}),
        ),
        solver=_strict(tol={"type": "number", "exclusiveMinimum": 0},
                       max_iter={"type": "integer"},
                       initial={"enum": ["zero", "harmonic"]}),
    ),
    # a seeded stage or a random datum needs a seed; each branch checks
    # its key's type first, so that a malformed key gets its own message
    "if": {"anyOf": [
        {"required": ["pipeline"], "properties": {"pipeline": {
            "type": "array", "contains": {"enum": sorted(SEEDED_STAGES)}}}},
        {"required": ["problem"], "properties": {"problem": {
            "type": "object", "required": ["datum"], "properties": {"datum": {
                "type": "object", "required": ["family"],
                "properties": {"family": {"const": "random_smooth"}}}}}}},
    ]},
    "then": {"required": ["seed"]},
}


# Exception class -> exit code and stderr prefix of the one-line message.
# The first matching row wins, so a subclass comes before its base.
FAILURES = (
    (SolverFailure, EXIT_SOLVER, ""),
    (RuntimeError, EXIT_SOLVER, "numerical failure: "),
    (ValueError, EXIT_CONFIG, "config error: "),   # ConfigError, bad JSON
    (OverflowError, EXIT_CONFIG, "config error: "),
    (OSError, EXIT_IO, "i/o failure: "),
)


# -- pipeline ----------------------------------------------------------------

@functools.cache
def _schema_validator():
    """The config validator, compiled on first use: ``jsonschema.validate``
    would re-check the schema itself on every call."""
    cls = jsonschema.validators.validator_for(SCHEMA)
    cls.check_schema(SCHEMA)
    return cls(SCHEMA)


def validate_config(config):
    """Raise ConfigError on the first violation of ``SCHEMA``, naming the
    offending key by its JSON path."""
    # best_match picks the same error jsonschema.validate would raise
    err = jsonschema.exceptions.best_match(
        _schema_validator().iter_errors(config))
    if err is not None:
        raise ConfigError(
            f"config schema violation at {err.json_path}: {err.message}")


def run(config_path, out_override=None, seed_override=None,
        tol_override=None, jobs=1, stage_filter=None):
    """Execute the config's pipeline; returns the process exit code.  A
    failure listed in ``FAILURES`` ends the run with its exit code and
    a one-line message on stderr.  Every stage runs on one thread:
    ``jobs`` must be 1; the keyword stays until the benchmark harness
    stops passing it."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, not {jobs!r}")
    try:
        return _run(config_path, out_override, seed_override, tol_override,
                    stage_filter)
    except tuple(row[0] for row in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


def _run(config_path, out_override, seed_override, tol_override,
         stage_filter):
    with open(config_path) as fh:
        config = json.load(fh)
    # the seed rule reads --seed; --tol writes into a checked shape
    if seed_override is not None and isinstance(config, dict):
        config["seed"] = seed_override
    validate_config(config)
    if tol_override is not None:
        config.setdefault("solver", {})["tol"] = tol_override
    # --tol comes after the schema, and NaN and inf pass its bound
    if "tol" in config.get("solver", {}):
        sl.check_tol(config["solver"]["tol"], "solver.tol")
    out_dir = (out_override or config.get("output_dir")
               or os.environ.get(OUTPUT_DIR_ENV) or ".")
    ctx = RunContext(config, out_dir, config.get("seed"))
    os.makedirs(out_dir, exist_ok=True)

    all_passed = True
    for stage in config["pipeline"]:
        if stage_filter is not None and not stage_filter(stage):
            continue
        if stage == "solve":
            ctx.ensure_solved()
            continue
        kind, _, name = stage.partition(":")
        rng = ctx.stage_rng() if stage in SEEDED_STAGES else None
        fn = STAGES[kind][name]
        if kind == "verify":
            report = fn(ctx, rng)
            _write_json(out_dir, f"estimate_{name}.json", report.to_dict())
            all_passed &= report.passed
            print(f"{name}: {'pass' if report.passed else 'FAIL'} "
                  f"(constant {report.empirical_constant:.6g})")
        else:
            reports = fn(ctx, rng, config.get("sweeps", {}).get(name, {}))
            _write_sweep_csv(out_dir, name, reports)
            consts = [r.empirical_constant for r in reports]
            payload = {"name": f"sweep_{name}",
                       "max_constant": max(consts, default=0.0),
                       "count": len(reports),
                       "passed": all(r.passed for r in reports)}
            _write_json(out_dir, f"sweep_{name}.json", payload)
            all_passed &= payload["passed"]
            print(f"sweep {name}: max constant "
                  f"{payload['max_constant']:.6g} over {len(reports)}")
    return EXIT_OK if all_passed else EXIT_ESTIMATE


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fracglap",
        description="solve nonlocal Dirichlet problems with general growth "
                    "and check the a priori estimates numerically")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("config", help="path to the JSON run config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None,
                        help=f"output directory (default: config, then "
                             f"${OUTPUT_DIR_ENV}, then cwd)")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the solver tolerance (solver.tol)")

    add_common(sub.add_parser("run", help="execute the full pipeline"))
    add_common(sub.add_parser("solve", help="run only the solve stage"))
    add_common(sub.add_parser("verify", help="run solve plus verify stages"))
    add_common(sub.add_parser("sweep", help="run solve plus sweep stages"))
    sub.add_parser("schema", help="print the config JSON schema")

    args = parser.parse_args(argv)
    if args.command == "schema":
        print(json.dumps(SCHEMA, sort_keys=True, indent=2))
        return EXIT_OK

    stage_filter = None
    if args.command != "run":
        # the solve, plus the stages of the subcommand's kind
        def stage_filter(stage):
            return stage.partition(":")[0] in ("solve", args.command)
    return run(args.config, out_override=args.out, seed_override=args.seed,
               tol_override=args.tol, stage_filter=stage_filter)


if __name__ == "__main__":
    sys.exit(main())
