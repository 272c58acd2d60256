import math

import numpy as np
import pytest
from scipy.integrate import quad

import fracglap.nfunction as nfm
from fracglap import (check_doubling, check_growth_sandwich, check_scaling,
                      check_young, make_power, make_power_log, make_table)
from fracglap.nfunction import GrowthFunction, NFunction


@pytest.fixture(scope="module")
def nf_plog():
    return make_power_log(2.0)


class TestEvalG:
    def test_identity_family(self):
        nf = make_power(2.0)
        assert nf.g(3.0) == 3.0

    def test_g_vanishes_at_zero(self):
        assert make_power(3.0).g(0.0) == 0.0

    def test_power_log_closed_value(self, nf_plog):
        assert nf_plog.g(1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_power_log_matches_fine_table(self, nf_plog):
        # cross-check the closed form against monotone interpolation of
        # a finely tabulated version of the same density
        ts = np.geomspace(1e-6, 10.0, 20001)
        tab = make_table(np.c_[ts, ts * np.log1p(ts)])
        probe = np.linspace(0.05, 9.5, 37)
        np.testing.assert_allclose(nf_plog.g(probe), tab.g(probe), rtol=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            make_power(2.0).g(-1.0)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            make_power(2.0).g(1e31)


class TestEvalBigG:
    def test_quadratic(self):
        assert make_power(2.0).G(2.0) == pytest.approx(2.0, rel=1e-14)

    def test_empty_integral(self, nf_plog):
        assert make_power(2.0).G(0.0) == 0.0
        assert nf_plog.G(0.0) == 0.0

    def test_cubic(self):
        assert make_power(3.0).G(3.0) == pytest.approx(9.0, rel=1e-14)

    def test_power_log_vs_quadrature_oracle(self, nf_plog):
        for t in (1e-4, 0.3, 1.0, 7.0, 1e3, 1e8, 1e16):
            want, _ = quad(lambda u: u * np.log1p(u), 0, t,
                           epsabs=0, epsrel=1e-13, limit=500)
            assert nf_plog.G(t) == pytest.approx(want, rel=1e-9)


class TestEvalH:
    """H(t) = int_0^t G(tau)/tau dtau, the far-tail profile."""

    def test_power_closed_form(self):
        assert make_power(3.0).H(2.0) == pytest.approx(8.0 / 9.0, rel=1e-14)
        assert make_power(2.0).H(0.0) == 0.0

    def test_linear_table_is_half_square(self):
        # g = 2t tabulated: G = t^2, so H = t^2/2 on every segment
        nf = make_table([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [5.0, 10.0]])
        t = np.array([0.0, 0.3, 1.0, 1.5, 2.0, 2.7, 4.2, 5.0])
        np.testing.assert_allclose(nf.H(t), t ** 2 / 2, rtol=1e-15, atol=0)

    def test_table_across_kinks_vs_quadrature_oracle(self):
        pts = [[0.5, 0.4], [1.0, 1.1], [2.0, 2.5], [4.0, 6.0], [8.0, 13.0]]
        nf = make_table(pts)
        for t in (0.2, 0.5, 1.7, 6.0, 8.0):
            edges = [0.0] + [k for k, _ in pts if k < t] + [t]
            want = sum(quad(lambda u: nf.G(u) / u, a, b, epsabs=0,
                            epsrel=1e-13)[0]
                       for a, b in zip(edges[:-1], edges[1:]))
            assert nf.H(t) == pytest.approx(want, rel=1e-12)

    def test_power_log_vs_quadrature_oracle(self, nf_plog):
        # in x = log tau, H is the integral of G(e^x); t = 1e-16 and
        # 1e16 lie outside the certified table
        for t in (1e-16, 1e-4, 0.3, 1.0, 7.0, 1e3, 1e8, 1e16):
            want, _ = quad(lambda x: nf_plog.G(math.exp(x)), -80.0,
                           math.log(t), epsabs=0, epsrel=1e-13, limit=500)
            assert nf_plog.H(t) == pytest.approx(want, rel=1e-10)

    def test_power_log_array_matches_scalars(self, nf_plog):
        t = np.array([0.0, 1e-16, 2e-3, 1.0, 1e16])
        np.testing.assert_array_equal(nf_plog.H(t),
                                      [nf_plog.H(x) for x in t])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_power_log_below_accelerator_takes_series(self, p, monkeypatch):
        nf = make_power_log(p)
        t = np.array([1e-300, 1e-20, 9.9e-15])
        want_G, want_H = nf._quad_exact(t), nf._quad_H_exact(t)
        calls = []
        monkeypatch.setattr(nfm, "integrate_zero_to",
                            lambda *a, **k: calls.append(a))
        np.testing.assert_allclose(nf.G(t), want_G, rtol=1e-12, atol=0)
        np.testing.assert_allclose(nf.H(t), want_H, rtol=1e-12, atol=0)
        assert calls == []


class TestInverses:
    def test_inv_G_quadratic(self):
        assert make_power(2.0).inv_G(2.0) == pytest.approx(2.0, rel=1e-11)

    def test_inv_G_zero(self, nf_plog):
        assert nf_plog.inv_G(0.0) == 0.0

    def test_inv_G_quadrature_oracle(self, nf_plog):
        # bisection root against an independent quadrature at 10x
        # tighter tolerance than the library's target
        t_star = nf_plog.inv_G(1.0)
        val, _ = quad(lambda u: u * np.log1p(u), 0, t_star,
                      epsabs=1e-13, epsrel=1e-13, limit=500)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_inv_g_square(self):
        assert make_power(3.0).inv_g(4.0) == pytest.approx(2.0, rel=1e-11)

    def test_inv_g_zero(self):
        assert make_power(3.0).inv_g(0.0) == 0.0

    def test_table_preimage_between_samples(self):
        ts = np.linspace(0.0, 4.0, 9)[1:]
        tab = make_table(np.c_[ts, ts ** 2])
        fine = np.linspace(0.0, 4.0, 4001)[1:]
        tab_fine = make_table(np.c_[fine, fine ** 2])
        y = 2.3
        coarse_pre = tab.inv_g(y)
        fine_pre = tab_fine.inv_g(y)
        assert coarse_pre == pytest.approx(fine_pre, rel=5e-3)
        assert tab.g(coarse_pre) == pytest.approx(y, rel=1e-12)

    def test_bracket_failure_reports_state(self):
        ts = np.linspace(0.0, 2.0, 5)[1:]
        tab = make_table(np.c_[ts, ts])
        with pytest.raises(ValueError):
            tab.inv_g(10.0)  # outside the tabulated range of g


class TestConjugate:
    def test_self_conjugate_quadratic(self):
        assert make_power(2.0).conjugate(3.0) == pytest.approx(4.5, rel=1e-11)

    def test_zero(self, nf_plog):
        assert make_power(2.0).conjugate(0.0) == 0.0
        assert nf_plog.conjugate(0.0) == 0.0

    def test_cubic_against_grid_search(self):
        # brute-force the supremum of s*t - G(s) on a dense grid
        nf = make_power(3.0)
        t = 1.0
        sgrid = np.linspace(0.0, 5.0, 200001)
        brute = np.max(sgrid * t - sgrid ** 3 / 3.0)
        assert nf.conjugate(t) == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert nf.conjugate(t) == pytest.approx(brute, rel=1e-8)

    def test_optimality_over_sampled_scores(self, nf_plog):
        rng = np.random.default_rng(3)
        for t in rng.uniform(0.1, 20.0, size=8):
            star = nf_plog.conjugate(t)
            sgrid = np.linspace(0.0, 50.0, 2001)
            scores = sgrid * t - nf_plog.G(sgrid)
            assert star >= scores.max() - 1e-8 * max(1.0, star)

    def test_conjugate_exponents(self):
        nf = make_power(3.0)
        assert nf.p_conj == pytest.approx(1.5)
        assert nf.q_conj == pytest.approx(1.5)


class TestGrowthSandwich:
    def test_power_ratio_is_exact(self):
        rep = check_growth_sandwich(make_power(2.5), np.geomspace(1e-3, 1e3, 41))
        assert rep.passed
        assert rep.details["ratio_min"] == pytest.approx(2.5, rel=1e-12)
        assert rep.details["ratio_max"] == pytest.approx(2.5, rel=1e-12)

    def test_power_log_ratios_in_band(self, nf_plog):
        rep = check_growth_sandwich(nf_plog, np.geomspace(1e-3, 1e3, 101),
                                    tol=1e-6)
        assert rep.passed
        assert rep.details["ratio_min"] >= 2.0 - 1e-6
        assert rep.details["ratio_max"] <= 3.0 + 1e-6

    def test_non_monotone_table_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            make_table([[1.0, 1.0], [2.0, 0.5], [3.0, 2.0]])

    def test_empty_grid_rejected(self, nf_plog):
        with pytest.raises(ValueError):
            check_growth_sandwich(nf_plog, [])


class TestYoung:
    def test_quadratic_equality_case(self):
        rep = check_young(make_power(2.0), [(1.0, 1.0)])
        assert rep.passed
        assert rep.empirical_constant == pytest.approx(1.0, abs=1e-10)

    def test_cubic_conjugate_identity_closed_form(self):
        nf = make_power(3.0)
        t = 2.0
        lhs = nf.conjugate(nf.g(t))
        assert lhs == pytest.approx(2.0 * 4.0 - 8.0 / 3.0, rel=1e-10)
        assert lhs <= (nf.q - 1.0) * nf.G(t) * (1 + 1e-10)

    @pytest.mark.parametrize("family,p,tol", [("power", 1.5, 1e-8),
                                              ("power", 3.0, 1e-8),
                                              ("power_log", 2.0, 1e-6)])
    def test_fuzz_pairs(self, family, p, tol):
        nf = make_power(p) if family == "power" else make_power_log(p)
        rng = np.random.default_rng(11)
        pairs = 10.0 ** rng.uniform(-3, 3, size=(2000, 2))
        rep = check_young(nf, pairs, eps=0.25, tol=tol)
        assert rep.passed, rep.details

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            check_young(make_power(2.0), [(1.0, 1.0)], eps=1.5)


class TestScaling:
    def test_quadratic_sandwich_collapses(self):
        nf = make_power(2.0)
        a, t = 0.5, 2.0
        vals = (a ** nf.q * nf.G(t), nf.G(a * t), a ** nf.p * nf.G(t))
        assert vals[0] == pytest.approx(vals[1], rel=1e-14)
        assert vals[1] == pytest.approx(vals[2], rel=1e-14)
        assert check_scaling(nf, [(a, t)]).passed

    def test_unit_factor_is_equality(self, nf_plog):
        rep = check_scaling(nf_plog, [(1.0, 3.0)], tol=1e-6)
        assert rep.passed
        assert rep.empirical_constant <= 1.0 + 1e-9

    def test_power_log_sandwich(self, nf_plog):
        rep = check_scaling(nf_plog, [(0.1, 5.0)], tol=1e-6)
        assert rep.passed

    def test_nonpositive_factor_rejected(self, nf_plog):
        with pytest.raises(ValueError):
            check_scaling(nf_plog, [(-0.5, 1.0)])


class TestDoublingAndInvariants:
    def test_power_kappa_is_two_to_q(self):
        nf = make_power(2.5)
        assert nf.kappa == pytest.approx(2.0 ** 2.5)
        t = np.geomspace(1e-4, 1e4, 33)
        np.testing.assert_allclose(nf.G(2 * t), nf.kappa * nf.G(t), rtol=1e-12)

    def test_doubling_reports(self, nf_plog):
        rep = check_doubling(nf_plog, np.geomspace(1e-4, 1e4, 65), tol=1e-6)
        assert rep.passed, rep.details

    def test_midpoint_convexity_fuzz(self, nf_plog):
        rng = np.random.default_rng(7)
        t1 = 10.0 ** rng.uniform(-3, 3, 500)
        t2 = 10.0 ** rng.uniform(-3, 3, 500)
        mid = nf_plog.G(0.5 * (t1 + t2))
        avg = 0.5 * (nf_plog.G(t1) + nf_plog.G(t2))
        assert np.all(mid <= avg * (1 + 1e-9))

    def test_sum_splitting_bounds(self, nf_plog):
        # 2^-1 (G(t)+G(s)) <= G(t+s) <= 2^(q-1) (G(t)+G(s))
        rng = np.random.default_rng(8)
        t = 10.0 ** rng.uniform(-3, 3, 500)
        s = 10.0 ** rng.uniform(-3, 3, 500)
        tot = nf_plog.G(t + s)
        parts = nf_plog.G(t) + nf_plog.G(s)
        q = nf_plog.q
        assert np.all(0.5 * parts <= tot * (1 + 1e-9))
        assert np.all(tot <= 2.0 ** (q - 1.0) * parts * (1 + 1e-9))

    def test_inverse_roundtrips(self, nf_plog):
        y = np.geomspace(1e-6, 1e6, 25)
        np.testing.assert_allclose(nf_plog.G(nf_plog.inv_G(y)), y, rtol=1e-9)
        t = np.geomspace(1e-3, 1e3, 25)
        np.testing.assert_allclose(nf_plog.inv_G(nf_plog.G(t)), t, rtol=1e-9)
        np.testing.assert_allclose(nf_plog.inv_g(nf_plog.g(t)), t, rtol=1e-9)

    def test_declared_indices_validated(self):
        # a declared band may widen the analytic one but not cut into it
        nf = NFunction(GrowthFunction("power", exponent=2.0), p=1.5, q=3.0)
        assert nf.p == 1.5 and nf.q == 3.0
        with pytest.raises(ValueError):
            NFunction(GrowthFunction("power", exponent=2.0), p=2.5)
        with pytest.raises(ValueError):
            NFunction(GrowthFunction("power", exponent=2.0), q=1.5)

    def test_table_indices_estimated(self):
        # the origin-anchored segment is linear (ratio exactly 2), the
        # bulk of a tabulated t^2 density carries ratio 3
        ts = np.geomspace(1e-6, 10.0, 2001)
        nf = make_table(np.c_[ts, ts ** 2])
        assert nf.p == pytest.approx(2.0, abs=1e-6)
        assert nf.q == pytest.approx(3.0, abs=1e-2)
