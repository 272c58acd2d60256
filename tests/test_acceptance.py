"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Tolerances are the declared ones; no calibration
happens here."""

import json
import math
import time

import numpy as np
import pytest

from fracglap import (Ball, Cutoff, ExteriorModel, GridFunction, Kernel,
                      Lattice, NonlocalProblem, boundedness_check,
                      caccioppoli_check, check_doubling,
                      check_growth_sandwich, check_scaling, check_young,
                      de_giorgi_iterate, holder_decay_fit, luxemburg_norm,
                      make_power, make_power_log, solve, sphere_measure,
                      tail, weak_residual)
from fracglap.cli import EXIT_OK, generate_corpus, run
from fracglap.solver import _energy_values, _gradient_omega

from helpers import quadratic_oracle


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _omega32_problem(s, p=2.0, h=1 / 32, family="power", datum_seed=None,
                     rext=2.0, nf=None):
    """1-D instance with exactly 32 domain nodes."""
    pad = math.ceil(rext / h + 1e-9) * h
    lat = Lattice.from_box([-0.5 - pad], [0.5 + pad], h)
    x = lat.coords[:, 0]
    omega = (x >= -0.5 - 1e-12) & (x < 0.5 - 1e-12)
    if datum_seed is None:
        f = np.sin(2.0 * x) + 0.2 * x
    else:
        rng = np.random.default_rng(datum_seed)
        f = np.zeros(lat.n_nodes)
        span = np.ptp(x)
        for k in range(1, 5):
            f += rng.normal() / k * np.sin(
                2 * np.pi * k * x / span + rng.uniform(0, 2 * np.pi))
    model = ExteriorModel(value=float(f[-1]))
    if nf is None:
        nf = make_power(p) if family == "power" else make_power_log(p)
    return NonlocalProblem(lat, omega, nf, Kernel(), s,
                           GridFunction(lat, f, model),
                           truncation_radius=rext)


def test_criterion_01_linear_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        prob = _omega32_problem(s)
        assert int(prob.omega_mask.sum()) == 32
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        A, b, _, _ = quadratic_oracle(prob)
        direct = np.linalg.solve(A, b)
        err = float(np.abs(rep.minimizer.values[prob.omega_mask]
                           - direct).max())
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    _report(1, "linear oracle equivalence",
            worst <= 1e-8 and elapsed < 10.0,
            f"(sup error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_gradient_correctness():
    families = [("power", 1.5, make_power(1.5)),
                ("power", 2.0, make_power(2.0)),
                ("power_log", 2.0, make_power_log(2.0))]
    worst = 0.0
    for fam, p, nf in families:
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            s = float(rng.uniform(0.25, 0.75))
            prob = _omega32_problem(s, h=1 / 16, nf=nf,
                                    datum_seed=2000 + trial, rext=1.0)
            n_om = int(prob.omega_mask.sum())
            assert n_om <= 20
            v = prob.datum_extension(rng.normal(size=n_om))
            g = _gradient_omega(prob, v.values)
            idx = np.flatnonzero(prob.omega_mask)
            scale = max(1.0, float(np.abs(v.values).max()))
            eps = 1e-6 * scale
            for k in range(n_om):
                vp = v.values.copy()
                vp[idx[k]] += eps
                vm = v.values.copy()
                vm[idx[k]] -= eps
                fd = (_energy_values(prob, vp)
                      - _energy_values(prob, vm)) / (2 * eps)
                rel = abs(g[k] - fd) / max(abs(fd), 1e-12)
                worst = max(worst, rel)
    _report(2, "gradient correctness", worst <= 1e-5,
            f"(max relative error {worst:.2e})")


def test_criterion_03_euler_lagrange_equivalence():
    instances = [
        _omega32_problem(0.3),
        _omega32_problem(0.5),
        _omega32_problem(0.7),
        _omega32_problem(0.5, p=1.5, h=1 / 16, rext=1.0),
        _omega32_problem(0.6, p=3.0, h=1 / 16, rext=1.0),
        _omega32_problem(0.5, h=1 / 16, family="power_log", rext=1.0),
    ]
    violations = 0
    worst_res = 0.0
    rng = np.random.default_rng(31)
    for prob in instances:
        rep = solve(prob, tol=1e-9)
        assert rep.converged
        wres = weak_residual(prob, rep.minimizer)
        thr = rep.details["threshold"]
        worst_res = max(worst_res, wres / thr)
        e0 = _energy_values(prob, rep.minimizer.values)
        base = rep.minimizer.values
        scale = 0.01 * (1.0 + prob.data_oscillation())
        for _ in range(100):
            pert = base.copy()
            pert[prob.omega_mask] += scale * rng.normal(
                size=int(prob.omega_mask.sum()))
            if _energy_values(prob, pert) <= e0:
                violations += 1
    _report(3, "euler-lagrange equivalence",
            worst_res <= 1.0 and violations == 0,
            f"(residual/threshold {worst_res:.3f}, "
            f"probe violations {violations})")


def test_criterion_04_nfunction_suite():
    cases = [(make_power(1.5), 1e-8), (make_power(2.0), 1e-8),
             (make_power(3.0), 1e-8), (make_power_log(2.0), 1e-6)]
    all_ok = True
    detail = []
    for nf, tol in cases:
        rng = np.random.default_rng(404)
        n = 10_000
        grid = 10.0 ** rng.uniform(-3, 3, size=n)
        pairs = 10.0 ** rng.uniform(-3, 3, size=(n, 2))
        factors = 10.0 ** rng.uniform(-2, 2, size=n)
        reports = [
            check_growth_sandwich(nf, grid, tol=tol),
            check_young(nf, pairs, eps=0.25, tol=tol),
            check_scaling(nf, np.column_stack([factors, grid]), tol=tol),
            check_doubling(nf, grid, tol=tol),
        ]
        ok = all(r.passed for r in reports)
        all_ok &= ok
        detail.append(f"{nf!r}:{'ok' if ok else 'FAIL'}")
    _report(4, "growth profile inequality suite", all_ok,
            "(" + ", ".join(detail) + ")")


def test_criterion_05_tail_closed_form():
    worst = 0.0
    for dim in (1, 2):
        for p in (1.5, 2.0, 3.0):
            nf = make_power(p)
            M, s, R = 0.8, 0.55, 1.9
            lat = Lattice.from_box([-0.5] * dim, [0.5] * dim, 0.5)
            model = ExteriorModel(
                value=M, start_radius=lat.circumradius(lat.center()))
            f = GridFunction(lat, np.zeros(lat.n_nodes), model)
            got = tail(f, [0.0] * dim, R, s, nf)
            want = (sphere_measure(dim) * M ** (p - 1.0)
                    * R ** (-s * p) / (s * p))
            worst = max(worst, abs(got - want) / want)
    # inverse-tail reduction for the power density
    red_worst = 0.0
    for p in (1.5, 2.0, 3.0):
        nf = make_power(p)
        M, s, R = 1.1, 0.45, 1.6
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=M,
                              start_radius=lat.circumradius(lat.center()))
        f = GridFunction(lat, np.zeros(5), model)
        tl = tail(f, [0.0], R, s, nf)
        lhs = R ** s * nf.inv_g(R ** s * tl)
        T = sphere_measure(1) * M ** (p - 1.0) * R ** (-s * p) / (s * p)
        rhs = (R ** (s * p) * T) ** (1.0 / (p - 1.0))
        red_worst = max(red_worst, abs(lhs - rhs) / rhs)
    _report(5, "tail closed form", worst <= 1e-6 and red_worst <= 1e-6,
            f"(constant-field {worst:.2e}, reduction {red_worst:.2e})")


def test_criterion_06_luxemburg_contract():
    lat_spec = {"lo": [-1.0], "hi": [1.0], "h": 1 / 16}
    corpus = (generate_corpus({"family": "random-smooth", "count": 8,
                               "lattice": lat_spec}, seed=61)
              + generate_corpus({"family": "two-level", "low": -0.5,
                                 "high": 1.5, "count": 4,
                                 "lattice": lat_spec}, seed=62)
              + generate_corpus({"family": "power-cusp", "gamma": 0.5,
                                 "lattice": lat_spec}, seed=63))
    worst_dev = 0.0
    bound_ok = True
    for nf in (make_power(1.5), make_power(2.0), make_power(3.0)):
        for f in corpus:
            norm = luxemburg_norm(f, None, nf)
            if norm == 0.0:
                assert not np.any(f.values)
                continue
            hn = f.lattice.h ** f.lattice.dim
            modular_unit = float(np.sum(nf.G(np.abs(f.values) / norm))) * hn
            worst_dev = max(worst_dev, abs(modular_unit - 1.0))
            modular = float(np.sum(nf.G(np.abs(f.values)))) * hn
            bound_ok &= norm <= modular + 1.0 + 1e-10
    _report(6, "luxemburg norm contract",
            worst_dev <= 1e-8 and bound_ok,
            f"(max modular deviation {worst_dev:.2e})")


def test_criterion_07_de_giorgi_lemma():
    exact = de_giorgi_iterate(1.0, 2.0, 1.0, 0.5, steps=40)
    exact_ok = exact.bound_holds and all(
        exact.sequence[i] == 2.0 ** (-i - 1) for i in range(41))
    violations = 0
    rng = np.random.default_rng(71)
    for _ in range(1000):
        C = float(10.0 ** rng.uniform(-2, 2))
        B = float(1.0 + 10.0 ** rng.uniform(-1, 1))
        beta = float(10.0 ** rng.uniform(-0.7, 0.7))
        A0 = C ** (-1.0 / beta) * B ** (-1.0 / beta ** 2)
        res = de_giorgi_iterate(C, B, beta, A0, steps=50)
        if not (res.below_threshold and res.bound_holds):
            violations += 1
    _report(7, "geometric iteration lemma",
            exact_ok and violations == 0,
            f"(exact case {'ok' if exact_ok else 'bad'}, "
            f"threshold violations {violations}/1000)")


def test_criterion_08_holder_recovery():
    nf = make_power(2.0)
    fit_ok = True
    detail = []
    h = 1 / 1024
    lat = Lattice.from_box([-0.5], [0.5], h)
    x = lat.coords[:, 0]
    for gamma in (0.25, 0.5, 0.75):
        u = GridFunction(lat, np.abs(x) ** gamma,
                         ExteriorModel(value=0.5 ** gamma))
        res = holder_decay_fit(u, [0.0], 0.25, 0.5, 6, s=0.5, nf=nf)
        rel = abs(res.alpha_hat - gamma) / gamma
        fit_ok &= res.resolved_levels >= 5 and rel <= 0.02
        detail.append(f"g={gamma}:{rel:.3%}")
    solved_ok = True
    for p in (1.5, 3.0):
        prob = _omega32_problem(0.5, p=p, h=1 / 128, rext=1.0)
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        res = holder_decay_fit(rep.minimizer, [0.0], 0.25, 0.5, 7,
                               s=0.5, nf=prob.nf)
        solved_ok &= res.osc_monotone and res.alpha_hat > 0.0
        detail.append(f"p={p}:a={res.alpha_hat:.3f}")
    _report(8, "holder exponent recovery", fit_ok and solved_ok,
            "(" + ", ".join(detail) + ")")


def test_criterion_09_estimate_constant_stability():
    nf = make_power(2.0)
    bconsts, cconsts = [], []
    scaling_gap = None
    for h in (1 / 32, 1 / 64):
        prob = _omega32_problem(0.5, h=h)
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        u = rep.minimizer
        ball = Ball([0.0], 0.4)
        brep = boundedness_check(u, ball, 0.5, nf)
        bconsts.append(brep.empirical_constant)
        cut = Cutoff(plateau=0.18, support=0.36)
        crep = caccioppoli_check(u, ball, 0.1, cut, "plus", 0.5, nf)
        cconsts.append(crep.empirical_constant)
        if scaling_gap is None:
            c = 41.7
            u2 = GridFunction(u.lattice, c * u.values,
                              ExteriorModel(value=c * u.exterior.value))
            b2 = boundedness_check(u2, ball, 0.5, nf)
            scaling_gap = abs(b2.empirical_constant
                              - brep.empirical_constant)
    b_move = abs(bconsts[1] - bconsts[0]) / bconsts[0]
    c_move = abs(cconsts[1] - cconsts[0]) / cconsts[0]
    _report(9, "estimate constant stability",
            b_move < 0.2 and c_move < 0.2 and scaling_gap <= 1e-10,
            f"(boundedness {b_move:.1%}, caccioppoli {c_move:.1%}, "
            f"scaling gap {scaling_gap:.1e})")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "problem": {
            "dim": 1, "h": 0.0625,
            "omega": {"lo": [-0.5], "hi": [0.5]},
            "s": 0.5,
            "nfunction": {"family": "power", "p": 2.0},
            "kernel": {"form": "pure"},
            "datum": {"family": "random_smooth", "modes": 4},
            "exterior": {"kind": "constant", "value": 0.2},
            "truncation_radius": 1.5,
        },
        "pipeline": ["solve", "verify:gradient_fd", "verify:nfunction",
                     "verify:minimality", "sweep:boundedness"],
        "seed": 1234,
        "tolerances": {"solve": 1e-9},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def snapshot(out):
        docs = {}
        for p in sorted(out.iterdir()):
            if p.suffix == ".json":
                doc = json.loads(p.read_text())
                doc.pop("timestamp", None)
                docs[p.name] = json.dumps(doc, sort_keys=True)
            else:
                docs[p.name] = p.read_bytes()
        return docs

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(str(path), out_override=str(out1)) == EXIT_OK
    assert run(str(path), out_override=str(out2)) == EXIT_OK
    s1, s2 = snapshot(out1), snapshot(out2)
    same = s1.keys() == s2.keys() and all(s1[k] == s2[k] for k in s1)
    _report(10, "byte-identical reports", same,
            f"({len(s1)} artifacts compared)")
