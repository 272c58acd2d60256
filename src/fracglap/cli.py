"""Batch front end: JSON problem configs in, machine-readable reports
out.

A config describes one discrete Dirichlet instance plus a pipeline of
stages: ``solve``, ``verify:<estimate>`` and ``sweep:<estimate>``.
Artifacts land in the output directory as SolveReport.json,
minimizer.csv, estimate_<name>.json and sweep_<name>.csv; every JSON
report carries a ``timestamp`` field and is otherwise byte-identical
across reruns with the same seed.

Exit codes: 0 all declared criteria hold, 2 config/schema violation,
3 solver non-convergence, 4 estimate failure, 5 I/O failure.
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
    model = ExteriorModel(kind="zero")
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


def _default_ball(ctx, shrink=1.0):
    p = ctx.config["problem"]
    lo = np.asarray(p["omega"]["lo"], float)
    hi = np.asarray(p["omega"]["hi"], float)
    center = 0.5 * (lo + hi)
    radius = 0.5 * float((hi - lo).min()) * 0.9 * shrink
    return Ball(tuple(center), radius)


def _sample_grid(nf, rng, count):
    lo, hi = -3.0, 3.0
    if nf.growth.family == "table":
        cap = nf.growth.t_max
        lo, hi = math.log10(cap) - 6.0, math.log10(cap)
    return 10.0 ** rng.uniform(lo, hi, size=count)


# -- verify stages -----------------------------------------------------------

def _stage_linear_oracle(ctx):
    prob = ctx.problem
    rep = ctx.ensure_solved()
    try:
        A, b, _, _ = sl.assemble_quadratic(prob)
    except ValueError as exc:
        raise ConfigError(f"linear_oracle stage: {exc}") from exc
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


def _stage_gradient_fd(ctx):
    """Gradient against central differences of the energy at probed
    nodes of a random admissible candidate.  A probe passes when
    |g - fd| <= tol |fd| + FD_ROUNDING eps_mach (|E+| + |E-|) / (2 h):
    a small component next to a large energy would otherwise be judged
    on the rounding of the energy sums alone."""
    prob = ctx.problem
    rng = ctx.stage_rng()
    if rng is None:
        raise ConfigError("gradient_fd stage requires a seed")
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


def _stage_minimality(ctx):
    prob = ctx.problem
    rep = ctx.ensure_solved()
    rng = ctx.stage_rng()
    if rng is None:
        raise ConfigError("minimality stage requires a seed")
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
    thr = rep.details.get("threshold", ctx.tol("solve", 1e-9))
    passed = violations == 0 and wres <= thr
    return EstimateReport(
        name="minimality", lhs=float(violations), rhs_terms={"allowed": 0.0},
        empirical_constant=float(violations),
        tolerance=0.5, passed=passed,
        details={"weak_residual": wres, "threshold": thr,
                 "energy": e0, "probes": 100})


def _stage_nfunction(ctx):
    rng = ctx.stage_rng()
    if rng is None:
        raise ConfigError("nfunction stage requires a seed")
    nf = ctx.problem.nf
    tol = ctx.tol("nfunction",
                  1e-8 if nf.growth.family != "power_log" else 1e-6)
    count = int(ctx.tolerances.get("nfunction_samples", 2000))
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


def _stage_luxemburg(ctx):
    rng = ctx.stage_rng()
    if rng is None:
        raise ConfigError("luxemburg stage requires a seed")
    prob = ctx.problem
    lat = prob.lattice
    spec = {"family": "random-smooth",
            "lattice": {"lo": lat.lo, "hi": lat.hi, "h": lat.h},
            "count": 8}
    corpus = generate_corpus(spec, int(rng.integers(2 ** 31)))
    nf = prob.nf
    hn = lat.h ** lat.dim
    worst = 0.0
    bound_ok = True
    for f in corpus:
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


def _stage_tail_closed_form(ctx):
    prob = ctx.problem
    nf = prob.nf
    if nf.growth.family != "power":
        raise ConfigError("tail_closed_form stage needs the power family")
    lat = prob.lattice
    M = 0.75
    model = ExteriorModel(kind="constant", value=M).resolved(lat)
    f = GridFunction(lat, np.zeros(lat.n_nodes), model)
    R = max(lat.circumradius(lat.center()), model.start_radius) * 1.25
    got = tail(f, lat.center(), R, prob.s, nf, tol=1e-10)
    sp = prob.s * nf.p
    want = sphere_measure(lat.dim) * M ** (nf.p - 1.0) * R ** (-sp) / sp
    rel = abs(got - want) / want
    tol = ctx.tol("tail_closed_form", 1e-6)
    return EstimateReport.from_sides(
        "tail_closed_form", rel, {"tolerance": tol}, 1.0,
        details={"computed": got, "closed_form": want})


def _stage_membership(ctx):
    prob = ctx.problem
    rep = membership_check(prob.exterior_datum, prob.s, prob.nf)
    return EstimateReport(
        name="membership", lhs=0.0 if rep.consistent else 1.0,
        rhs_terms={"allowed": 0.0},
        empirical_constant=0.0 if rep.consistent else math.inf,
        tolerance=0.5, passed=rep.consistent,
        details={"member": rep.member, "tails": list(rep.tails),
                 "weighted_integral": rep.weighted_integral})


def _stage_de_giorgi(ctx):
    rng = ctx.stage_rng()
    if rng is None:
        raise ConfigError("de_giorgi stage requires a seed")
    exact = rg.de_giorgi_iterate(1.0, 2.0, 1.0, 0.5, steps=40)
    ok = exact.bound_holds and all(
        exact.sequence[i] == 2.0 ** (-i - 1) for i in range(41))
    cases = int(ctx.tolerances.get("de_giorgi_cases", 200))
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


def _boundedness(ctx, ball):
    """Local boundedness of the minimizer on ``ball``, which must lie in
    the domain."""
    prob = ctx.problem
    return rg.boundedness_check(ctx.ensure_solved().minimizer, ball, prob.s,
                                prob.nf, kernel=prob.kernel,
                                bound=ctx.tol("boundedness", math.inf),
                                omega_mask=prob.omega_mask)


def _stage_boundedness(ctx):
    return _boundedness(ctx, _default_ball(ctx))


def _stage_caccioppoli(ctx):
    rep = ctx.ensure_solved()
    ball = _default_ball(ctx)
    u = rep.minimizer
    idx = np.flatnonzero(u.lattice.select(ball))
    k = float(np.median(np.abs(u.values[idx])))
    cut = rg.Cutoff(plateau=0.5 * ball.radius, support=0.85 * ball.radius)
    return rg.caccioppoli_check(u, ball, k, cut, "plus", ctx.problem.s,
                                ctx.problem.nf,
                                bound=ctx.tol("caccioppoli", math.inf))


def _stage_logarithmic(ctx):
    rep = ctx.ensure_solved()
    u = rep.minimizer
    ball = _default_ball(ctx)
    model = u.exterior
    if model.kind not in ("zero", "constant"):
        raise ConfigError("logarithmic stage needs a zero or constant "
                          "exterior model (the shift must extend globally)")
    # shift into the nonnegative range required on the larger ball
    shift = float(np.abs(u.values).max()) + 1.0
    shifted = ExteriorModel(kind="constant", value=model.value + shift,
                            center=model.center,
                            start_radius=model.start_radius)
    upos = GridFunction(u.lattice, u.values + shift, shifted)
    R = ball.radius
    r = 0.4 * R
    return rg.log_estimate_check(upos, ball.center, r, R, d=0.1,
                                 nf=ctx.problem.nf, s=ctx.problem.s,
                                 a=shift, b=4.0,
                                 bound=ctx.tol("logarithmic", math.inf))


def _stage_sobolev_poincare(ctx):
    rep = ctx.ensure_solved()
    n = ctx.problem.lattice.dim
    s = ctx.problem.s
    theta = 0.5 * (1.0 + n / (n - s / 2.0))
    return rg.sobolev_poincare_check(rep.minimizer, _default_ball(ctx), s,
                                     ctx.problem.nf, theta,
                                     bound=ctx.tol("sobolev_poincare",
                                                   math.inf))


def _decay_sigma(ctx, r0):
    """Largest ratio the lattice can resolve over four nested levels."""
    h = ctx.problem.lattice.h
    return min(0.85, max(0.35, (4.0 * h / r0) ** (1.0 / 3.0)))


def _stage_holder_decay(ctx):
    rep = ctx.ensure_solved()
    ball = _default_ball(ctx)
    r0 = 0.5 * ball.radius
    sigma = _decay_sigma(ctx, r0)
    res = rg.holder_decay_fit(rep.minimizer, ball.center, r0,
                              sigma, 10, ctx.problem.s, ctx.problem.nf)
    passed = res.osc_monotone and res.alpha_hat >= 0.0 and res.schedule_ok
    return EstimateReport(
        name="holder_decay", lhs=res.alpha_hat, rhs_terms={"unit": 1.0},
        empirical_constant=res.alpha_hat, tolerance=math.inf, passed=passed,
        witnesses={"r0": r0, "sigma": sigma, "levels": res.resolved_levels},
        details={"oscillations": res.oscillations, "radii": res.radii,
                 "omega0": res.schedule.omega0,
                 "c_holder": res.c_holder,
                 "constraints": res.schedule.constraints})


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


# -- sweep stages ------------------------------------------------------------

def _sweep_boundedness(ctx):
    ctx.ensure_solved()
    base = _default_ball(ctx)
    cfg = ctx.config.get("sweeps", {}).get("boundedness", {})
    fractions = cfg.get("fractions", [1.0, 0.8, 0.6, 0.45])
    balls = [Ball(base.center, base.radius * f) for f in fractions]
    return _parallel_map(ctx, functools.partial(_boundedness, ctx), balls)


def _sweep_caccioppoli(ctx):
    rep = ctx.ensure_solved()
    base = _default_ball(ctx)
    u = rep.minimizer
    idx = np.flatnonzero(u.lattice.select(base))
    levels = np.quantile(np.abs(u.values[idx]), [0.25, 0.5, 0.75])
    cfg = ctx.config.get("sweeps", {}).get("caccioppoli", {})
    signs = cfg.get("signs", ["plus", "minus"])
    jobs = []
    for k in levels:
        for sign in signs:
            jobs.append((float(k), sign))

    def run_one(job):
        k, sign = job
        cut = rg.Cutoff(plateau=0.5 * base.radius, support=0.85 * base.radius)
        return rg.caccioppoli_check(u, base, k, cut, sign, ctx.problem.s,
                                    ctx.problem.nf,
                                    bound=ctx.tol("caccioppoli", math.inf))

    return _parallel_map(ctx, run_one, jobs)


def _sweep_sobolev_poincare(ctx):
    rng = ctx.stage_rng()
    if rng is None:
        raise ConfigError("sobolev_poincare sweep requires a seed")
    prob = ctx.problem
    lat = prob.lattice
    spec = {"family": "random-smooth",
            "lattice": {"lo": lat.lo, "hi": lat.hi, "h": lat.h},
            "count": int(ctx.config.get("sweeps", {})
                         .get("sobolev_poincare", {}).get("count", 6))}
    corpus = generate_corpus(spec, int(rng.integers(2 ** 31)))
    ball = _default_ball(ctx)
    n, s = lat.dim, prob.s
    theta = 0.5 * (1.0 + n / (n - s / 2.0))

    def run_one(f):
        return rg.sobolev_poincare_check(f, ball, s, prob.nf, theta)

    return _parallel_map(ctx, run_one, corpus)


def _sweep_holder_decay(ctx):
    rep = ctx.ensure_solved()
    ball = _default_ball(ctx)
    cfg = ctx.config.get("sweeps", {}).get("holder_decay", {})
    base = _decay_sigma(ctx, 0.5 * ball.radius)
    sigmas = cfg.get("sigmas", [base, min(0.9, base * 1.1)])
    reports = []
    for sg in sigmas:
        res = rg.holder_decay_fit(rep.minimizer, ball.center,
                                  0.5 * ball.radius, sg, 10,
                                  ctx.problem.s, ctx.problem.nf)
        reports.append(EstimateReport(
            name="holder_decay", lhs=res.alpha_hat, rhs_terms={"unit": 1.0},
            empirical_constant=res.alpha_hat, tolerance=math.inf,
            passed=res.osc_monotone and res.schedule_ok,
            witnesses={"sigma": sg, "levels": res.resolved_levels},
            details={"c_holder": res.c_holder}))
    return reports


SWEEP_STAGES = {
    "boundedness": _sweep_boundedness,
    "caccioppoli": _sweep_caccioppoli,
    "sobolev_poincare": _sweep_sobolev_poincare,
    "holder_decay": _sweep_holder_decay,
}


def _parallel_map(ctx, fn, items):
    if ctx.jobs == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=ctx.jobs) as pool:
        return list(pool.map(fn, items))  # submission order, deterministic


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
    needs_seed = False
    for stage in config["pipeline"]:
        if stage == "solve":
            continue
        kind, _, name = stage.partition(":")
        if kind == "verify":
            if name not in VERIFY_STAGES:
                raise ConfigError(f"unknown estimate {name!r}")
            needs_seed |= name in ("gradient_fd", "minimality", "nfunction",
                                   "luxemburg", "de_giorgi")
        elif kind == "sweep":
            if name not in SWEEP_STAGES:
                raise ConfigError(f"unknown sweep {name!r}")
            needs_seed |= name == "sobolev_poincare"
        else:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
    if config["problem"].get("datum", {}).get("family") == "random_smooth":
        needs_seed = True
    if needs_seed and "seed" not in config:
        raise ConfigError("pipeline samples randomly: a seed is mandatory")


def _numerical_failure(exc):
    """A quadrature or bisection that could not meet its tolerance
    (``RuntimeError``) ends the run like a solver failure."""
    print(f"numerical failure: {exc}", file=sys.stderr)
    return EXIT_SOLVER


def run(config_path, out_override=None, seed_override=None,
        tol_override=None, jobs=1, stage_filter=None):
    """Execute the config's pipeline; returns the process exit code."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except OSError:
        print(f"cannot read config {config_path}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if seed_override is not None:
        config["seed"] = seed_override
    if tol_override is not None:
        config.setdefault("tolerances", {})["solve"] = tol_override
    out_dir = (out_override or config.get("output_dir")
               or os.environ.get(OUTPUT_DIR_ENV) or ".")

    try:
        validate_config(config)
        ctx = RunContext(config, out_dir, config.get("seed"), jobs=jobs)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        return _numerical_failure(exc)

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_IO

    stages = config["pipeline"]
    if stage_filter is not None:
        stages = [st for st in stages if stage_filter(st)]

    all_passed = True
    try:
        for stage in stages:
            if stage == "solve":
                ctx.ensure_solved()
                continue
            kind, _, name = stage.partition(":")
            if kind == "verify":
                report = VERIFY_STAGES[name](ctx)
                _write_json(ctx.out_dir, f"estimate_{name}.json",
                            report.to_dict())
                all_passed &= report.passed
                print(f"{name}: {'pass' if report.passed else 'FAIL'} "
                      f"(constant {report.empirical_constant:.6g})")
            else:
                reports = SWEEP_STAGES[name](ctx)
                _write_sweep_csv(ctx.out_dir, name, reports)
                consts = [r.empirical_constant for r in reports]
                payload = {"name": f"sweep_{name}",
                           "max_constant": max(consts, default=0.0),
                           "count": len(reports),
                           "passed": all(r.passed for r in reports)}
                _write_json(ctx.out_dir, f"sweep_{name}.json", payload)
                all_passed &= payload["passed"]
                print(f"sweep {name}: max constant "
                      f"{payload['max_constant']:.6g} over {len(reports)}")
    except SolverFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SOLVER
    except RuntimeError as exc:
        return _numerical_failure(exc)
    except OverflowError as exc:
        print(f"config error: the datum lies outside the representable "
              f"range ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO

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

    filters = {
        "run": None,
        "solve": lambda st: st == "solve",
        "verify": lambda st: st == "solve" or st.startswith("verify:"),
        "sweep": lambda st: st == "solve" or st.startswith("sweep:"),
    }
    return run(args.config, out_override=args.out, seed_override=args.seed,
               tol_override=args.tol, jobs=args.jobs,
               stage_filter=filters[args.command])


if __name__ == "__main__":
    sys.exit(main())
