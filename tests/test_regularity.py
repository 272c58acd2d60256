import math

import numpy as np
import pytest

from fracglap import (Ball, Cutoff, ExteriorModel, GridFunction, Lattice,
                      boundedness_check, caccioppoli_check,
                      de_giorgi_iterate, holder_decay_fit, log_estimate_check,
                      make_power, make_power_log, sobolev_poincare_check,
                      solve)
from fracglap.regularity import DecaySchedule, _truncation_far_tail

from helpers import line_problem, scipy_radial


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
        rep = sobolev_poincare_check(f, Ball([0.0], 0.9), 0.5, nf2, 1.1)
        assert rep.lhs == 0.0 and rep.empirical_constant == 0.0
        assert rep.passed

    def test_random_sixteen_node_ball(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        rng = np.random.default_rng(17)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        rep = sobolev_poincare_check(f, Ball([0.0], 0.95), 0.5, nf2, 1.1)
        assert math.isfinite(rep.empirical_constant)
        flip = sobolev_poincare_check(f.with_values(-f.values),
                                      Ball([0.0], 0.95), 0.5, nf2, 1.1)
        assert flip.empirical_constant == rep.empirical_constant

    def test_mean_centering_shift_invariance(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        rng = np.random.default_rng(18)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        r1 = sobolev_poincare_check(f, Ball([0.0], 0.9), 0.5, nf2, 1.2)
        r2 = sobolev_poincare_check(f.with_values(f.values + 7.0),
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
            rep = sobolev_poincare_check(f, Ball([0.0] * dim, r), 0.5, nf2,
                                         theta)
            consts.append(rep.empirical_constant)
        assert consts[0] > 0
        np.testing.assert_allclose(consts, consts[0], rtol=1e-12)

    def test_rhs_is_node_averaged_kernel_pair_sum(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        rng = np.random.default_rng(19)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        ball = Ball([0.0], 0.9)
        rep = sobolev_poincare_check(f, ball, 0.5, nf2, 1.2)
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
            sobolev_poincare_check(f, Ball([0.0], 0.9), 0.5, nf2, 1.5)
        with pytest.raises(ValueError):
            sobolev_poincare_check(f, Ball([0.0], 0.9), 0.5, nf2, 1.0)

    def test_tiny_ball_rejected(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.25)
        f = GridFunction(lat, np.zeros(lat.n_nodes))
        with pytest.raises(ValueError):
            sobolev_poincare_check(f, Ball([0.1], 0.05), 0.5, nf2, 1.1)


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
        rep = caccioppoli_check(u, ball, k, cut, "plus", 0.5, nf2)
        assert rep.lhs == 0.0 and rep.passed

    def test_full_cutoff_rejected(self, nf2):
        prob, u = self.make_solved()
        ball = Ball([0.0], 0.45)
        with pytest.raises(ValueError, match="vanish"):
            caccioppoli_check(u, ball, 0.1, Cutoff(plateau=0.2, support=0.45),
                              "plus", 0.5, nf2)

    def test_bad_cutoff_spec(self):
        with pytest.raises(ValueError):
            Cutoff(plateau=0.5, support=0.4)

    def test_finite_constant_both_signs(self, nf2):
        prob, u = self.make_solved()
        ball = Ball([0.0], 0.45)
        cut = Cutoff(plateau=0.2, support=0.4)
        k = float(np.median(np.abs(u.values[u.lattice.select(ball)])))
        for sign in ("plus", "minus"):
            rep = caccioppoli_check(u, ball, k, cut, sign, 0.5, nf2)
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
            rep = caccioppoli_check(u, ball, 0.1, cut, "plus", 0.5, nf2)
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
    ], ids=["p2-plus", "p2-minus", "p1.5-plus", "p1.5-negative-minus",
            "power_log-plus", "power_log-minus", "p3-decaying-plus"])
    def test_matches_scipy_oracle(self, nf, c, a, k, sign):
        s, r = 0.5, 0.25
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        u = GridFunction(lat, np.zeros(lat.n_nodes),
                         ExteriorModel(value=c, exponent=a))
        got = _truncation_far_tail(u, [0.0], r, k, sign, s, nf)

        def fn(rho):
            f = c * rho ** a
            wf = np.maximum(f - k, 0.0) if sign == "plus" \
                else np.maximum(k - f, 0.0)
            return nf.g(wf / rho ** s) * rho ** (-1.0 - s)

        crossing = (k / c) ** (1.0 / a) if k / c > 0 else 0.0
        want = 2.0 * scipy_radial(fn, u.exterior.start_radius, (crossing,))
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
        res = holder_decay_fit(u, [0.0], 0.25, 0.5, 6, s=0.5, nf=nf2)
        assert res.resolved_levels >= 5
        assert abs(res.alpha_hat - gamma) / gamma < 0.02
        assert res.osc_monotone

    def test_solved_instance_positive_exponent(self, nf2):
        prob = line_problem(h=1 / 128, s=0.5, p=2.0, datum="sin", rext=1.0)
        u = solve(prob, tol=1e-10).minimizer
        res = holder_decay_fit(u, [0.0], 0.25, 0.5, 7, s=0.5, nf=nf2)
        assert res.alpha_hat > 0
        assert res.osc_monotone

    def test_flat_function_trivially_scheduled(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 1 / 64)
        u = GridFunction(lat, np.full(lat.n_nodes, 0.7),
                         ExteriorModel(value=0.7))
        res = holder_decay_fit(u, [0.0], 0.25, 0.5, 5, s=0.5, nf=nf2)
        assert all(o == 0.0 for o in res.oscillations)
        assert res.schedule_ok

    def test_too_few_levels_rejected(self, nf2):
        lat = Lattice.from_box([-1.0], [1.0], 0.125)
        u = GridFunction(lat, lat.coords[:, 0] ** 2,
                         ExteriorModel(value=1.0))
        with pytest.raises(ValueError, match="levels"):
            holder_decay_fit(u, [0.0], 0.3, 0.5, 8, s=0.5, nf=nf2)

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
        sp = sobolev_poincare_check(u, ball, 0.5, prob.nf, theta)
        assert math.isfinite(sp.empirical_constant)
        cut = Cutoff(plateau=0.15, support=0.3)
        cc = caccioppoli_check(u, ball, 0.05, cut, "plus", 0.5, prob.nf)
        assert math.isfinite(cc.empirical_constant)
