import math
import tracemalloc

import numpy as np
import pytest

from fracglap import funcspace, pairs
from fracglap import (Ball, Cutoff, EstimateReport, ExteriorModel,
                      GridFunction, Lattice, boundedness_check,
                      caccioppoli_check, de_giorgi_iterate, holder_decay_fit,
                      log_estimate_check, make_power, make_power_log,
                      make_table, sobolev_poincare_check, solve)
from fracglap.regularity import DecaySchedule, _truncation_far_tail

from helpers import (KINKED_TABLE, caccioppoli_reference,
                     gagliardo_modular_reference, line_problem,
                     scan_knot_radii, scipy_radial, square_problem)


@pytest.fixture
def nf2():
    return make_power(2.0)


class TestDeGiorgi:
    def test_exact_dyadic_sequence(self):
        res = de_giorgi_iterate(1.0, 2.0, 1.0, 0.5, steps=40)
        assert res.below_threshold and res.bound_holds
        for i in range(41):
            assert res.sequence[i] == 2.0 ** (-i - 1)

    def test_above_threshold_breaches_bound(self):
        res = de_giorgi_iterate(1.0, 2.0, 1.0, 0.6, steps=40)
        assert not res.below_threshold
        assert res.first_violation is not None

    def test_zero_start_stays_zero(self):
        res = de_giorgi_iterate(3.0, 7.0, 0.5, 0.0, steps=20)
        assert all(a == 0.0 for a in res.sequence)
        assert res.bound_holds

    def test_randomized_thresholds_hold(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            C = float(10.0 ** rng.uniform(-2, 2))
            B = float(1.0 + 10.0 ** rng.uniform(-1, 1))
            beta = float(10.0 ** rng.uniform(-0.7, 0.7))
            A0 = C ** (-1.0 / beta) * B ** (-1.0 / beta ** 2)
            res = de_giorgi_iterate(C, B, beta, A0, steps=50)
            assert res.below_threshold and res.bound_holds

    def test_divergence_reported(self):
        res = de_giorgi_iterate(10.0, 5.0, 2.0, 3.0, steps=60)
        assert res.diverged

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            de_giorgi_iterate(0.0, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            de_giorgi_iterate(1.0, 0.9, 1.0, 0.5)


class TestSobolevPoincare:
    def test_constant_function_zero_sides(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        f = GridFunction(lat, np.full(lat.n_nodes, 4.2))
        rep, = sobolev_poincare_check([f], Ball([0.0], 0.9), 0.5, nf2, 1.1)
        assert rep.lhs == 0.0 and rep.empirical_constant == 0.0
        assert rep.passed

    def test_random_sixteen_node_ball(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        rng = np.random.default_rng(17)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        rep, = sobolev_poincare_check([f], Ball([0.0], 0.95), 0.5, nf2, 1.1)
        assert math.isfinite(rep.empirical_constant)
        flip, = sobolev_poincare_check([f.with_values(-f.values)],
                                       Ball([0.0], 0.95), 0.5, nf2, 1.1)
        assert flip.empirical_constant == rep.empirical_constant

    def test_mean_centering_shift_invariance(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        rng = np.random.default_rng(18)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        r1, = sobolev_poincare_check([f], Ball([0.0], 0.9), 0.5, nf2, 1.2)
        r2, = sobolev_poincare_check([f.with_values(f.values + 7.0)],
                                     Ball([0.0], 0.9), 0.5, nf2, 1.2)
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.rhs_terms == pytest.approx(r2.rhs_terms)

    @pytest.mark.parametrize("dim,k", [(1, 8), (2, 4)])
    def test_constant_invariant_under_scaling(self, nf2, dim, k):
        # phi(x/r) on B_r with h = r/k: both sides carry the pair kernel
        # |x-y|^(-n), so the constant does not depend on r
        consts = []
        for r in (0.25, 0.5, 1.0):
            lat = Lattice.from_box([-r] * dim, [r] * dim, r / k)
            y = lat.coords / r
            f = GridFunction(lat, np.sin(2.0 * y.sum(axis=1)) + y[:, 0] ** 2)
            theta = 0.5 * (1.0 + dim / (dim - 0.25))
            rep, = sobolev_poincare_check([f], Ball([0.0] * dim, r), 0.5,
                                          nf2, theta)
            consts.append(rep.empirical_constant)
        assert consts[0] > 0
        np.testing.assert_allclose(consts, consts[0], rtol=1e-12)

    def test_rhs_is_node_averaged_kernel_pair_sum(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        rng = np.random.default_rng(19)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        ball = Ball([0.0], 0.9)
        rep, = sobolev_poincare_check([f], ball, 0.5, nf2, 1.2)
        idx = np.flatnonzero(lat.select(ball))
        x, v = lat.coords[idx, 0], f.values[idx]
        d = np.abs(x[:, None] - x[None, :])
        off = d > 0
        dv = np.abs(v[:, None] - v[None, :])[off]
        want = np.sum(nf2.G(dv / d[off] ** 0.5) / d[off]) * lat.h / idx.size
        assert rep.rhs_terms["pair_modular_avg"] == pytest.approx(want,
                                                                  rel=1e-12)

    def test_theta_range_enforced(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.25)
        f = GridFunction(lat, np.zeros(lat.n_nodes))
        # n = 1, s = 0.5: admissible band is (1, 4/3)
        with pytest.raises(ValueError):
            sobolev_poincare_check([f], Ball([0.0], 0.9), 0.5, nf2, 1.5)
        with pytest.raises(ValueError):
            sobolev_poincare_check([f], Ball([0.0], 0.9), 0.5, nf2, 1.0)

    def test_tiny_ball_rejected(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.25)
        f = GridFunction(lat, np.zeros(lat.n_nodes))
        with pytest.raises(ValueError):
            sobolev_poincare_check([f], Ball([0.1], 0.05), 0.5, nf2, 1.1)


class TestBoundedness:
    def test_constant_function(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        M = 2.0
        u = GridFunction(lat, np.full(lat.n_nodes, M),
                         ExteriorModel(value=M))
        rep = boundedness_check(u, Ball([0.0], 0.5), 0.5, nf2)
        assert rep.lhs == M
        assert rep.rhs_terms["local"] == pytest.approx(M, rel=1e-9)
        assert rep.empirical_constant <= 1.0

    def test_zero_function_both_sides_zero(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, np.zeros(lat.n_nodes),
                         ExteriorModel())
        rep = boundedness_check(u, Ball([0.0], 0.5), 0.5, nf2)
        assert rep.lhs == 0.0 and rep.empirical_constant == 0.0

    def test_scaling_invariance_to_1e10(self, nf2):
        prob = line_problem(h=1 / 32, s=0.5, p=2.0, datum="sin")
        rep = solve(prob, tol=1e-10)
        u = rep.minimizer
        ball = Ball([0.0], 0.4)
        r1 = boundedness_check(u, ball, 0.5, nf2)
        c = 37.5
        u2 = GridFunction(u.lattice, c * u.values,
                          ExteriorModel(
                              value=c * u.exterior.value))
        r2 = boundedness_check(u2, ball, 0.5, nf2)
        assert abs(r2.empirical_constant - r1.empirical_constant) <= 1e-10

    def test_ball_outside_box_rejected(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.25)
        u = GridFunction(lat, np.zeros(lat.n_nodes),
                         ExteriorModel())
        with pytest.raises(ValueError, match="compactly"):
            boundedness_check(u, Ball([0.8], 0.5), 0.5, nf2)

    def test_omega_mask_enforced(self, nf2):
        prob = line_problem(h=1 / 16, s=0.5, p=2.0, datum="sin")
        u = solve(prob, tol=1e-8).minimizer
        with pytest.raises(ValueError, match="domain"):
            boundedness_check(u, Ball([0.0], 1.0), 0.5, nf2,
                              omega_mask=prob.omega_mask)


class TestCaccioppoli:
    def make_solved(self):
        prob = line_problem(h=1 / 32, s=0.5, p=2.0, datum="sin")
        return prob, solve(prob, tol=1e-9).minimizer

    def test_level_above_max_gives_zero_lhs(self, nf2):
        prob, u = self.make_solved()
        ball = Ball([0.0], 0.45)
        k = float(np.abs(u.values).max()) + 1.0
        cut = Cutoff(plateau=0.2, support=0.4)
        rep, = caccioppoli_check(u, ball, [(k, "plus")], cut, 0.5, nf2)
        assert rep.lhs == 0.0 and rep.passed

    def test_full_cutoff_rejected(self, nf2):
        prob, u = self.make_solved()
        ball = Ball([0.0], 0.45)
        with pytest.raises(ValueError, match="vanish"):
            caccioppoli_check(u, ball, [(0.1, "plus")],
                              Cutoff(plateau=0.2, support=0.45), 0.5, nf2)

    def test_bad_cutoff_spec(self):
        with pytest.raises(ValueError):
            Cutoff(plateau=0.5, support=0.4)

    def test_missing_model_is_error(self, nf2):
        # the far part of the tail comes from the exterior model: without
        # one the check raises as ``tail`` does, rather than drop it
        lat = Lattice.from_box([-0.5], [0.5], 1 / 32)
        u = GridFunction(lat, np.sin(2.0 * lat.coords[:, 0]))
        with pytest.raises(ValueError, match="^tail needs an exterior "
                           "model on the grid function$"):
            caccioppoli_check(u, Ball([0.0], 0.45), [(0.1, "plus")],
                              Cutoff(plateau=0.2, support=0.4), 0.5, nf2)

    def test_finite_constant_both_signs(self, nf2):
        prob, u = self.make_solved()
        ball = Ball([0.0], 0.45)
        cut = Cutoff(plateau=0.2, support=0.4)
        k = float(np.median(np.abs(u.values[u.lattice.select(ball)])))
        for sign in ("plus", "minus"):
            rep, = caccioppoli_check(u, ball, [(k, sign)], cut, 0.5, nf2)
            assert math.isfinite(rep.empirical_constant)
            assert rep.details["discrete_lipschitz"] <= 2.0 / 0.2 + 1e-9

    def test_refinement_stability(self, nf2):
        # Cauchy-style: constants at h and h/2 within twenty percent
        consts = []
        for h in (1 / 32, 1 / 64):
            prob = line_problem(h=h, s=0.5, p=2.0, datum="sin")
            u = solve(prob, tol=1e-10).minimizer
            ball = Ball([0.0], 0.45)
            cut = Cutoff(plateau=0.2, support=0.4)
            rep, = caccioppoli_check(u, ball, [(0.1, "plus")], cut, 0.5, nf2)
            consts.append(rep.empirical_constant)
        assert abs(consts[1] - consts[0]) / consts[0] < 0.2


class TestTruncationFarTail:
    # (f - k)_+/- of the exterior model f = c rho^a past the box
    @pytest.mark.parametrize("nf, c, a, k, sign", [
        (make_power(2.0), 0.3, 0.25, 0.5, "plus"),
        (make_power(2.0), 0.3, 0.25, 0.5, "minus"),
        (make_power(1.5), 0.3, 0.25, 0.5, "plus"),
        (make_power(1.5), -0.3, 0.25, -0.5, "minus"),
        (make_power_log(2.0), 1.0, 0.45, 0.1, "plus"),
        (make_power_log(2.0), 1.0, 0.45, 2.0, "minus"),
        (make_power(3.0), 0.3, -0.3, 0.1, "plus"),
        # g(t) has kinks at the knots of the table, which the rule breaks
        # at: (3 rho^0.4 - 2) rho^-0.5 rises to its maximum at rho = 20.3
        # and falls again, crossing knot 1 twice
        (make_table(KINKED_TABLE), 3.0, 0.4, 2.0, "plus"),
        (make_table(KINKED_TABLE), 3.0, 0.25, 5.0, "minus"),
        (make_table(KINKED_TABLE), 3.0, 0.0, 0.5, "plus"),
    ], ids=["p2-plus", "p2-minus", "p1.5-plus", "p1.5-negative-minus",
            "power_log-plus", "power_log-minus", "p3-decaying-plus",
            "table-turning-plus", "table-minus", "table-level-plus"])
    def test_matches_scipy_oracle(self, nf, c, a, k, sign):
        s, r = 0.5, 0.25
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        u = GridFunction(lat, np.zeros(lat.n_nodes),
                         ExteriorModel(value=c, exponent=a))
        got = _truncation_far_tail(u, [0.0], r, k, sign, s, nf)

        def arg(rho):
            f = c * rho ** a
            wf = np.maximum(f - k, 0.0) if sign == "plus" \
                else np.maximum(k - f, 0.0)
            return wf / rho ** s

        r0 = u.exterior.start_radius
        crossing = (k / c) ** (1.0 / a) if a and k / c > 0 else 0.0
        want = 2.0 * scipy_radial(
            lambda rho: nf.g(arg(rho)) * rho ** (-1.0 - s), r0,
            (crossing, *scan_knot_radii(arg, nf.knots, r0)))
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_zero_model_below_a_positive_level(self, nf2):
        # (k - 0)_+ = k everywhere: 2 int_R^inf (k / rho^s) rho^(-1-s)
        # drho = k R^(-2s) / s
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        u = GridFunction(lat, np.zeros(lat.n_nodes), ExteriorModel())
        R = u.exterior.start_radius
        got = _truncation_far_tail(u, [0.0], 0.25, 0.7, "minus", 0.5, nf2)
        assert got == pytest.approx(0.7 / R / 0.5, rel=1e-13)
        assert _truncation_far_tail(u, [0.0], 0.25, 0.7, "plus", 0.5,
                                    nf2) == 0.0

    @pytest.mark.parametrize("k, sign", [
        (-0.7, "plus"), (0.7, "minus"), (0.7, "plus"), (-0.7, "minus"),
        (0.0, "plus"), (0.0, "minus")])
    def test_zero_model_is_the_limit_of_small_levels(self, nf2, k, sign):
        # (0 - k)_+ = max(-k, 0) and (k - 0)_+ = max(k, 0) everywhere,
        # so the tail is max(+-k, 0) R^(-2s) / s, as for the level 1e-12
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        zero = GridFunction(lat, np.zeros(lat.n_nodes), ExteriorModel())
        tiny = GridFunction(lat, np.zeros(lat.n_nodes),
                            ExteriorModel(value=1e-12))
        R = zero.exterior.start_radius
        got = _truncation_far_tail(zero, [0.0], 0.5, k, sign, 0.5, nf2)
        part = max(-k if sign == "plus" else k, 0.0)
        assert got == pytest.approx(part / R / 0.5, rel=1e-13, abs=0)
        assert got == pytest.approx(
            _truncation_far_tail(tiny, [0.0], 0.5, k, sign, 0.5, nf2),
            rel=1e-10, abs=1e-11)


class TestLogEstimate:
    def test_constant_zero_lhs(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, np.full(lat.n_nodes, 1.5),
                         ExteriorModel(value=1.5))
        rep = log_estimate_check(u, [0.0], 0.3, 0.9, d=0.2, nf=nf2, s=0.5)
        assert rep.lhs == 0.0 and rep.passed

    def test_nonnegative_function_kills_tail_term(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, np.abs(np.sin(3 * lat.coords[:, 0])),
                         ExteriorModel(value=0.5))
        rep = log_estimate_check(u, [0.0], 0.3, 0.9, d=0.2, nf=nf2, s=0.5)
        assert rep.rhs_terms["tail"] == 0.0
        assert rep.details["tail_minus"] == 0.0

    def test_sign_changing_exterior_finite_constant(self, nf2):
        lat = Lattice.from_box([-2.0], [2.0], 0.125)
        vals = np.where(np.abs(lat.coords[:, 0]) <= 0.9,
                        0.3 + 0.2 * np.sin(4 * lat.coords[:, 0]), -0.4)
        u = GridFunction(lat, vals, ExteriorModel(value=-0.4))
        rep = log_estimate_check(u, [0.0], 0.3, 0.8, d=0.1, nf=nf2, s=0.5,
                                 a=0.3, b=3.0)
        assert rep.rhs_terms["tail"] > 0.0
        assert math.isfinite(rep.empirical_constant)
        assert math.isfinite(rep.details["truncated"]["constant"])

    def test_negativity_on_larger_ball_rejected(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, lat.coords[:, 0],
                         ExteriorModel(value=1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            log_estimate_check(u, [0.0], 0.3, 0.9, d=0.2, nf=nf2, s=0.5)

    def test_radius_ordering_enforced(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, np.ones(lat.n_nodes),
                         ExteriorModel(value=1.0))
        with pytest.raises(ValueError, match="R/2"):
            log_estimate_check(u, [0.0], 0.5, 0.9, d=0.2, nf=nf2, s=0.5)


class TestHolderDecay:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_synthetic_cusp_recovery(self, gamma, nf2):
        # node-aligned dyadic radii make the discrete oscillation exact
        h = 1 / 1024
        lat = Lattice.from_box([-0.5], [0.5], h)
        c = lat.coords[:, 0]
        u = GridFunction(lat, np.abs(c) ** gamma,
                         ExteriorModel(value=0.5 ** gamma))
        brep = boundedness_check(u, Ball((0.0,), 2 * 0.25), 0.5, nf2)
        [res] = holder_decay_fit(u, brep, [0.5], 6, s=0.5, nf=nf2)
        assert res.resolved_levels >= 5
        assert abs(res.alpha_hat - gamma) / gamma < 0.02
        assert res.osc_monotone

    def test_solved_instance_positive_exponent(self, nf2):
        prob = line_problem(h=1 / 128, s=0.5, p=2.0, datum="sin", rext=1.0)
        u = solve(prob, tol=1e-10).minimizer
        brep = boundedness_check(u, Ball((0.0,), 2 * 0.25), 0.5, nf2)
        [res] = holder_decay_fit(u, brep, [0.5], 7, s=0.5, nf=nf2)
        assert res.alpha_hat > 0
        assert res.osc_monotone

    def test_flat_function_trivially_scheduled(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 1 / 64)
        u = GridFunction(lat, np.full(lat.n_nodes, 0.7),
                         ExteriorModel(value=0.7))
        brep = boundedness_check(u, Ball((0.0,), 2 * 0.25), 0.5, nf2)
        [res] = holder_decay_fit(u, brep, [0.5], 5, s=0.5, nf=nf2)
        assert all(o == 0.0 for o in res.oscillations)
        assert res.schedule_ok

    def test_too_few_levels_rejected(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, lat.coords[:, 0] ** 2,
                         ExteriorModel(value=1.0))
        brep = boundedness_check(u, Ball((0.0,), 2 * 0.3), 0.5, nf2)
        with pytest.raises(ValueError, match="levels"):
            holder_decay_fit(u, brep, [0.5], 8, s=0.5, nf=nf2)

    def test_fit_takes_a_boundedness_report(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 1 / 64)
        u = GridFunction(lat, lat.coords[:, 0] ** 2,
                         ExteriorModel(value=1.0))
        rep = EstimateReport.from_sides("caccioppoli", 1.0, {"local": 1.0},
                                        math.inf)
        with pytest.raises(ValueError, match="boundedness report"):
            holder_decay_fit(u, rep, [0.5], 5, s=0.5, nf=nf2)

    def test_schedule_constraints_recorded(self):
        sched = DecaySchedule.evaluate(alpha=0.3, sigma=0.2, r0=0.25,
                                       omega0=1.0, s=0.5, p=2.0, q=2.0)
        c = sched.constraints
        assert set(c) == {"alpha_cap", "sigma_quarter", "tail_geometric",
                          "density_level", "iteration_smallness",
                          "oscillation_closure"}
        assert c["alpha_cap"]["satisfied"] is True
        assert c["sigma_quarter"]["satisfied"] is True
        assert c["iteration_smallness"]["satisfied"] is None


class TestTwoDimensionalChecks:
    def test_solved_square_boundedness_and_poincare(self):
        from helpers import square_problem
        prob = square_problem(h=1 / 8, s=0.5, p=2.0, rext=1.0)
        rep = solve(prob, tol=1e-9)
        assert rep.converged
        u = rep.minimizer
        ball = Ball([0.0, 0.0], 0.4)
        b = boundedness_check(u, ball, 0.5, prob.nf,
                              omega_mask=prob.omega_mask)
        assert math.isfinite(b.empirical_constant)
        theta = 0.5 * (1.0 + 2.0 / (2.0 - 0.25))
        sp, = sobolev_poincare_check([u], ball, 0.5, prob.nf, theta)
        assert math.isfinite(sp.empirical_constant)
        cut = Cutoff(plateau=0.15, support=0.3)
        cc, = caccioppoli_check(u, ball, [(0.05, "plus")], cut, 0.5,
                                prob.nf)
        assert math.isfinite(cc.empirical_constant)


class TestBatchedChecks:
    """A sweep scores all its points in one walk over the ball: each
    point's report is bitwise the report of its own walk (the per-point
    references in ``helpers``), with the ball split into several tiles
    and the last tile row partial."""

    CASES = {1: (lambda: line_problem(h=1 / 32, s=0.5, p=2.0, datum="sin"),
                 Ball([0.0], 0.45), Cutoff(plateau=0.2, support=0.4)),
             2: (lambda: square_problem(h=1 / 8, s=0.5, p=2.0, rext=1.0),
                 Ball([0.0, 0.0], 0.4), Cutoff(plateau=0.15, support=0.3))}

    @staticmethod
    def split_blocks(monkeypatch, u, ball, tile=7):
        """Tiles of edge ``tile``, several of them with a partial last
        row; the tail blocks then hold tile^2 indices, one row each."""
        m = int(u.lattice.select(ball).sum())
        assert m > tile and m % tile
        monkeypatch.setattr(pairs, "TILE", tile)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_caccioppoli_points_match_per_point_reference(self, monkeypatch,
                                                          dim):
        make, ball, cut = self.CASES[dim]
        prob = make()
        u = solve(prob, tol=1e-9).minimizer
        vals = np.abs(u.values[u.lattice.select(ball)])
        # the last level lies above every value: its plus truncation has
        # no live exterior node, its minus one has all of them
        top = float(np.abs(u.values).max()) + 1.0
        points = [(float(k), sign)
                  for k in [*np.quantile(vals, [0.25, 0.5, 0.75]), top]
                  for sign in ("plus", "minus")]
        self.split_blocks(monkeypatch, u, ball)
        got = caccioppoli_check(u, ball, points, cut, prob.s, prob.nf)
        assert len(got) == len(points)
        for rep, (k, sign) in zip(got, points):
            want = caccioppoli_reference(u, ball, k, cut, sign, prob.s,
                                         prob.nf)
            assert rep.to_dict() == want.to_dict()
        assert got[-2].lhs == 0.0 and got[-2].details["sup_tail"] == 0.0
        assert got[-1].details["sup_tail"] > 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pair_modulars_match_per_function_reference(self, monkeypatch,
                                                        dim):
        make, ball, _ = self.CASES[dim]
        prob = make()
        u = solve(prob, tol=1e-9).minimizer
        rng = np.random.default_rng(dim)
        fs = [u] + [u.with_values(rng.normal(size=u.lattice.n_nodes))
                    for _ in range(2)]
        theta = 0.5 * (1.0 + dim / (dim - 0.25))
        self.split_blocks(monkeypatch, u, ball)
        got = funcspace.gagliardo_modular(fs, ball, prob.s, prob.nf)
        assert got == [gagliardo_modular_reference(f, ball, prob.s, prob.nf)
                       for f in fs]
        reps = sobolev_poincare_check(fs, ball, prob.s, prob.nf, theta)
        m = int(u.lattice.select(ball).sum())
        for rep, f, modular in zip(reps, fs, got):
            alone, = sobolev_poincare_check([f], ball, prob.s, prob.nf, theta)
            assert rep.to_dict() == alone.to_dict()
            assert rep.rhs_terms["pair_modular_avg"] == \
                modular / (m * u.lattice.h ** dim)


class TestBallSumMemory:
    """The ball sums walk cache-sized tiles, so their temporaries do not
    grow with the ball: at 2-D h = 1/64 (2601 nodes in the default ball)
    each check stays within a fixed budget above its inputs."""

    BUDGET = 8e6

    @staticmethod
    def peak_above_inputs(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def case(self):
        # the verify-2d geometry; the datum on the whole lattice, since a
        # solve at this h takes seconds and hundreds of MB
        prob = square_problem(h=1 / 64, s=0.5, p=2.0, rext=0.5)
        u = prob.datum_extension(prob.exterior_datum.values[prob.omega_mask])
        return prob, u, Ball([0.0, 0.0], 0.45)

    def test_caccioppoli_six_points(self, case):
        prob, u, ball = case
        assert int(u.lattice.select(ball).sum()) == 2601
        vals = np.abs(u.values[u.lattice.select(ball)])
        points = [(float(k), sign)
                  for k in np.quantile(vals, [0.25, 0.5, 0.75])
                  for sign in ("plus", "minus")]
        cut = Cutoff(plateau=0.225, support=0.3825)
        assert self.peak_above_inputs(lambda: caccioppoli_check(
            u, ball, points, cut, prob.s, prob.nf)) <= self.BUDGET

    def test_gagliardo_modular(self, case):
        prob, u, ball = case
        assert self.peak_above_inputs(lambda: funcspace.gagliardo_modular(
            [u], ball, prob.s, prob.nf)) <= self.BUDGET

    def test_log_estimate(self, case):
        prob, u, ball = case
        shift = float(np.abs(u.values).max()) + 1.0
        upos = GridFunction(u.lattice, u.values + shift,
                            ExteriorModel(value=u.exterior.level + shift))
        assert self.peak_above_inputs(lambda: log_estimate_check(
            upos, ball.center, 0.22, 0.45, 0.1, prob.nf, prob.s)) \
            <= self.BUDGET
