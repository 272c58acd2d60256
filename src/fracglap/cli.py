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
from concurrent.futures import ThreadPoolExecutor

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

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["problem", "pipeline"],
    "properties": {
        "problem": {
            "type": "object",
            "required": ["dim", "h", "omega", "s", "nfunction", "datum"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1, "maximum": 3},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "omega": {
                    "type": "object",
                    "required": ["lo", "hi"],
                    "properties": {
                        "lo": {"type": "array", "items": {"type": "number"}},
                        "hi": {"type": "array", "items": {"type": "number"}},
                    },
                },
                "s": {"type": "number", "exclusiveMinimum": 0,
                      "exclusiveMaximum": 1},
                "nfunction": {
                    "type": "object",
                    "required": ["family"],
                    "properties": {
                        "family": {"enum": ["power", "power_log", "table"]},
                        "p": {"type": "number"},
                        "q": {"type": "number"},
                        "points": {"type": "array"},
                    },
                },
                "kernel": {
                    "type": "object",
                    "properties": {
                        "form": {"enum": ["pure", "weighted"]},
                        "lambda": {"type": "number"},
                        "Lambda": {"type": "number"},
                        "kind": {"type": "string"},
                        "frequency": {"type": "number"},
                    },
                },
                "datum": {"type": "object", "required": ["family"]},
                "exterior": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["zero", "constant", "power"]},
                        "value": {"type": "number"},
                        "exponent": {"type": "number"},
                    },
                },
                "truncation_radius": {"type": "number",
                                      "exclusiveMinimum": 0},
            },
        },
        "pipeline": {"type": "array", "items": {"type": "string"},
                     "minItems": 1},
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "tolerances": {"type": "object"},
        "sweeps": {"type": "object"},
        "solver": {
            "type": "object",
            "properties": {
                "tol": {"type": "number"},
                "max_iter": {"type": "integer"},
                "initial": {"enum": ["zero", "zero-extension",
                                     "harmonic", "halo-harmonic-guess"]},
            },
        },
    },
}


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
    r_ext = float(p.get("truncation_radius",
                        8.0 * float(np.linalg.norm(om_hi - om_lo))))
    pad = math.ceil(r_ext / h + 1e-9) * h
    lattice = Lattice.from_box(om_lo - pad, om_hi + pad, h)
    x = lattice.coords
    omega = np.ones(lattice.n_nodes, dtype=bool)
    for d in range(dim):
        omega &= (x[:, d] >= om_lo[d] - 1e-12) & (x[:, d] <= om_hi[d] + 1e-12)
    if not omega.any():
        raise ConfigError("omega box contains no lattice nodes")
    vals = _datum_values(p["datum"], lattice, rng)
    model = ExteriorModel.from_config(p.get("exterior"))
    datum = GridFunction(lattice, vals, model)
    try:
        return sl.NonlocalProblem(lattice, omega, nf, kernel, s, datum,
                                  truncation_radius=r_ext)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- stage driver -----------------------------------------------------------

class RunContext:
    def __init__(self, config, out_dir, seed, jobs=1):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.jobs = max(1, int(jobs))
        self.tolerances = dict(config.get("tolerances", {}))
        self._rng_counter = 0
        self.problem = build_problem(config, self.stage_rng())
        self.solve_report = None

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
                tol=self.tol("solve", opts.get("tol", 1e-9)),
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


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(out_dir, name, payload):
    doc = {"timestamp": _timestamp(), **_jsonable(payload)}

    def write(fh):
        json.dump(doc, fh, sort_keys=True, indent=2)
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
    if nf.growth.family == "table":
        cap = nf.growth.t_max
        lo, hi = math.log10(cap) - 6.0, math.log10(cap)
    return 10.0 ** rng.uniform(lo, hi, size=count)


# -- shared checks -----------------------------------------------------------
# A sweep and its verify stage share these; sweeps call them directly, not
# through VERIFY_STAGES, so that no stage runs inside another.

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


def _boundedness(ctx, ball):
    """Local boundedness of the minimizer on ``ball``, which must lie in
    the domain."""
    prob = ctx.problem
    return rg.boundedness_check(ctx.ensure_solved().minimizer, ball, prob.s,
                                prob.nf, kernel=prob.kernel,
                                bound=ctx.tol("boundedness", math.inf),
                                omega_mask=prob.omega_mask)


def _caccioppoli(ctx, k, sign):
    ball = _default_ball(ctx)
    cut = rg.Cutoff(plateau=0.5 * ball.radius, support=0.85 * ball.radius)
    return rg.caccioppoli_check(ctx.ensure_solved().minimizer, ball, k, cut,
                                sign, ctx.problem.s, ctx.problem.nf,
                                bound=ctx.tol("caccioppoli", math.inf))


def _sobolev_poincare(ctx, f, bound):
    n, s = ctx.problem.lattice.dim, ctx.problem.s
    theta = 0.5 * (1.0 + n / (n - s / 2.0))
    return rg.sobolev_poincare_check(f, _default_ball(ctx), s,
                                     ctx.problem.nf, theta, bound=bound)


def _decay_sigma(ctx, r0):
    """Largest ratio the lattice can resolve over four nested levels."""
    h = ctx.problem.lattice.h
    return min(0.85, max(0.35, (4.0 * h / r0) ** (1.0 / 3.0)))


def _holder_decay(ctx, sigma):
    """Oscillation decay fit over ten levels from half the default
    ball's radius."""
    ball = _default_ball(ctx)
    return rg.holder_decay_fit(ctx.ensure_solved().minimizer, ball.center,
                               0.5 * ball.radius, sigma, 10, ctx.problem.s,
                               ctx.problem.nf)


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
# eps_mach * (|E(v+)| + |E(v-)|) / (2 h): each energy sum is exact only
# to about eps_mach * |E|, whatever order the summation takes
FD_ROUNDING = 2.0


def _stage_gradient_fd(ctx, rng):
    """Gradient against central differences of the energy at probed
    nodes of a random admissible candidate.  A probe passes when
    |g - fd| <= tol |fd| + FD_ROUNDING eps_mach (|E+| + |E-|) / (2 h):
    a small component next to a large energy would otherwise be judged
    on the rounding of the energy sums alone."""
    prob = ctx.problem
    n_om = int(prob.omega_mask.sum())
    v = prob.datum_extension(rng.normal(size=n_om))
    g = sl._gradient_omega(prob, v.values)
    idx = np.flatnonzero(prob.omega_mask)
    probe = rng.choice(n_om, size=min(12, n_om), replace=False)
    scale = max(1.0, float(np.abs(v.values).max()))
    eps = 1e-6 * scale
    rows = []
    for k in probe:
        i = idx[k]
        vp = v.values.copy()
        vp[i] += eps
        vm = v.values.copy()
        vm[i] -= eps
        e_plus = sl._energy_values(prob, vp)
        e_minus = sl._energy_values(prob, vm)
        fd = (e_plus - e_minus) / (2 * eps)
        rows.append((abs(g[k] - fd), max(abs(fd), 1e-12),
                     abs(e_plus) + abs(e_minus)))
    err, fd_abs, e_sum = np.array(rows).T
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
    prob = ctx.problem
    rep = ctx.ensure_solved()
    base = rep.minimizer.values
    e0 = sl._energy_values(prob, base)
    scale = 0.01 * (1.0 + prob.data_oscillation())
    violations = 0
    for _ in range(100):
        pert = base.copy()
        pert[prob.omega_mask] += scale * rng.normal(
            size=int(prob.omega_mask.sum()))
        if sl._energy_values(prob, pert) <= e0:
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


def _stage_nfunction(ctx, rng):
    nf = ctx.problem.nf
    tol = ctx.tol("nfunction",
                  1e-8 if nf.growth.family != "power_log" else 1e-6)
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
    prob = ctx.problem
    nf = prob.nf
    if nf.growth.family != "power":
        raise ConfigError("tail_closed_form stage needs the power family")
    lat = prob.lattice
    M = 0.75
    model = ExteriorModel(value=M).resolved(lat)
    f = GridFunction(lat, np.zeros(lat.n_nodes), model)
    R = max(lat.circumradius(lat.center()), model.start_radius) * 1.25
    got = tail(f, lat.center(), R, prob.s, nf)
    sp = prob.s * nf.p
    want = sphere_measure(lat.dim) * M ** (nf.p - 1.0) * R ** (-sp) / sp
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
    return _boundedness(ctx, _default_ball(ctx))


def _stage_caccioppoli(ctx, rng):
    return _caccioppoli(ctx, float(np.median(_ball_levels(ctx))), "plus")


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
    return _sobolev_poincare(ctx, ctx.ensure_solved().minimizer,
                             ctx.tol("sobolev_poincare", math.inf))


def _stage_holder_decay(ctx, rng):
    r0 = 0.5 * _default_ball(ctx).radius
    sigma = _decay_sigma(ctx, r0)
    res = _holder_decay(ctx, sigma)
    passed = res.osc_monotone and res.alpha_hat >= 0.0 and res.schedule_ok
    return EstimateReport(
        name="holder_decay", lhs=res.alpha_hat, rhs_terms={"unit": 1.0},
        empirical_constant=res.alpha_hat, tolerance=math.inf, passed=passed,
        witnesses={"r0": r0, "sigma": sigma, "levels": res.resolved_levels},
        details={"oscillations": res.oscillations, "radii": res.radii,
                 "omega0": res.schedule.omega0,
                 "c_holder": res.c_holder,
                 "constraints": res.schedule.constraints})


# -- sweep stages ------------------------------------------------------------

def _sweep_boundedness(ctx, rng, params):
    ctx.ensure_solved()  # before the threads of _parallel_map
    base = _default_ball(ctx)
    fractions = params.get("fractions", [1.0, 0.8, 0.6, 0.45])
    balls = [Ball(base.center, base.radius * f) for f in fractions]
    return _parallel_map(ctx, functools.partial(_boundedness, ctx), balls)


def _sweep_caccioppoli(ctx, rng, params):
    levels = np.quantile(_ball_levels(ctx), [0.25, 0.5, 0.75])
    jobs = [(float(k), sign) for k in levels
            for sign in params.get("signs", ["plus", "minus"])]
    return _parallel_map(ctx, lambda job: _caccioppoli(ctx, *job), jobs)


def _sweep_sobolev_poincare(ctx, rng, params):
    corpus = _corpus(ctx, rng, int(params.get("count", 6)))
    return _parallel_map(
        ctx, lambda f: _sobolev_poincare(ctx, f, math.inf), corpus)


def _sweep_holder_decay(ctx, rng, params):
    ctx.ensure_solved()  # an empty sigma list still solves
    base = _decay_sigma(ctx, 0.5 * _default_ball(ctx).radius)
    reports = []
    for sg in params.get("sigmas", [base, min(0.9, base * 1.1)]):
        res = _holder_decay(ctx, sg)
        reports.append(EstimateReport(
            name="holder_decay", lhs=res.alpha_hat, rhs_terms={"unit": 1.0},
            empirical_constant=res.alpha_hat, tolerance=math.inf,
            passed=res.osc_monotone and res.schedule_ok,
            witnesses={"sigma": sg, "levels": res.resolved_levels},
            details={"c_holder": res.c_holder}))
    return reports


def _parallel_map(ctx, fn, items):
    if ctx.jobs == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=ctx.jobs) as pool:
        return list(pool.map(fn, items))  # submission order, deterministic


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

# Stages that sample randomly.  Each gets its own stream of the config
# seed, drawn in pipeline order, so a pipeline with any of them needs a
# seed.
SEEDED_STAGES = frozenset({
    "verify:gradient_fd", "verify:minimality", "verify:nfunction",
    "verify:luxemburg", "verify:de_giorgi", "sweep:sobolev_poincare",
})


# Keys of the config's ``tolerances``: the names ``RunContext.tol`` reads.
TOLERANCE_KEYS = frozenset(
    "solve linear_oracle gradient_fd nfunction luxemburg tail_closed_form "
    "boundedness caccioppoli logarithmic sobolev_poincare".split())


def _stage_tables():
    # looked up at call time: the benchmark tracer wraps the entries of
    # both dicts in place
    return {"verify": VERIFY_STAGES, "sweep": SWEEP_STAGES}


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
    # best_match picks the same error jsonschema.validate would raise
    err = jsonschema.exceptions.best_match(
        _schema_validator().iter_errors(config))
    if err is not None:
        raise ConfigError(f"config schema violation: {err.message}")
    tables = _stage_tables()
    for stage in config["pipeline"]:
        if stage == "solve":
            continue
        kind, _, name = stage.partition(":")
        if kind not in tables:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
        if name not in tables[kind]:
            raise ConfigError(f"unknown {kind} stage {name!r}")
    for key, value in config.get("tolerances", {}).items():
        if key not in TOLERANCE_KEYS:
            raise ConfigError(f"unknown tolerance {key!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"tolerance {key!r} must be a number")
    needs_seed = (
        config["problem"].get("datum", {}).get("family") == "random_smooth"
        or any(stage in SEEDED_STAGES for stage in config["pipeline"]))
    if needs_seed and "seed" not in config:
        raise ConfigError("pipeline samples randomly: a seed is mandatory")


def run(config_path, out_override=None, seed_override=None,
        tol_override=None, jobs=1, stage_filter=None):
    """Execute the config's pipeline; returns the process exit code.  A
    failure listed in ``FAILURES`` ends the run with its exit code and
    a one-line message on stderr."""
    try:
        return _run(config_path, out_override, seed_override, tol_override,
                    jobs, stage_filter)
    except tuple(row[0] for row in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


def _run(config_path, out_override, seed_override, tol_override, jobs,
         stage_filter):
    with open(config_path) as fh:
        config = json.load(fh)
    if seed_override is not None:
        config["seed"] = seed_override
    if tol_override is not None:
        config.setdefault("tolerances", {})["solve"] = tol_override
    out_dir = (out_override or config.get("output_dir")
               or os.environ.get(OUTPUT_DIR_ENV) or ".")
    validate_config(config)
    ctx = RunContext(config, out_dir, config.get("seed"), jobs=jobs)
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
        fn = _stage_tables()[kind][name]
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
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel sweep points")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the solver tolerance")

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
               tol_override=args.tol, jobs=args.jobs,
               stage_filter=stage_filter)


if __name__ == "__main__":
    sys.exit(main())
