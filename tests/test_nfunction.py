import math

import numpy as np
import pytest
from scipy.integrate import quad

import fracglap.nfunction as nfm
import fracglap.quadrature as quadm
from fracglap import (check_doubling, check_growth_sandwich, check_scaling,
                      check_young, make_power, make_power_log, make_table)
from fracglap.nfunction import CERTIFY_TOL, SERIES_MAX, NFunction, from_config
from fracglap.quadrature import integrate_zero_to


@pytest.fixture(scope="module")
def nf_plog():
    return make_power_log(2.0)


TABLE = [[0.5, 0.4], [1.0, 1.0], [2.0, 2.6], [8.0, 15.0]]


def _build_three_ways(table):
    # the constructor, the factory and the config path
    yield lambda: NFunction("table", table=table)
    yield lambda: make_table(table)
    yield lambda: from_config({"family": "table", "points": table})


class TestConstruction:
    """``NFunction(family, exponent, table, p, q)`` holds the whole
    profile and validates its inputs on every path that builds one."""

    def test_attributes(self):
        nf = make_power(2.5)
        assert (nf.family, nf.exponent, nf.table) == ("power", 2.5, None)
        assert nf.t_max == nfm.REPRESENTABLE_MAX
        nf = make_table(TABLE)
        assert nf.family == "table" and nf.exponent is None
        np.testing.assert_array_equal(nf.table, [[0.0, 0.0], *TABLE])
        assert nf.t_max == 8.0

    @pytest.mark.parametrize("build", [
        lambda: NFunction("cubic", exponent=2.0),
        lambda: from_config({"family": "cubic", "p": 2.0}),
    ], ids=["constructor", "config"])
    def test_unknown_family(self, build):
        with pytest.raises(ValueError, match="unknown growth family"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: NFunction("power"),
        lambda: NFunction("power_log", exponent=1.0),
        lambda: make_power(1.0),
        lambda: make_power_log(0.5),
        lambda: from_config({"family": "power"}),
        lambda: from_config({"family": "power_log", "p": 1.0}),
    ], ids=["missing", "power_log-one", "make_power-one",
            "make_power_log-below-one", "config-missing", "config-one"])
    def test_exponent_missing_or_at_most_one(self, build):
        with pytest.raises(ValueError, match="exponent > 1"):
            build()

    @pytest.mark.parametrize("table, match", [
        (None, "must be an"),
        ([[1.0, 1.0]], "must be an"),
        ([1.0, 2.0, 3.0], "must be an"),
        (np.ones((3, 3)).tolist(), "must be an"),
        ([[1.0, 1.0], [1.0, 2.0]], "strictly increasing"),
        ([[1.0, 2.0], [2.0, 1.0]], "strictly increasing"),
        ([[-1.0, 0.5], [1.0, 1.0]], "nonnegative"),
        ([[0.5, -1.0], [1.0, 1.0]], "nonnegative"),
        ([[0.0, 0.5], [1.0, 1.0]], r"g\(0\) must be 0"),
    ], ids=["none", "one-row", "flat", "three-columns", "t-repeats",
            "g-falls", "negative-t", "negative-g", "g0-nonzero"])
    def test_bad_table(self, table, match):
        for build in _build_three_ways(table):
            with pytest.raises(ValueError, match=match):
                build()

    @pytest.mark.parametrize("nf, knots", [
        (make_power(2.0), []),
        (make_power_log(2.0), []),
        (make_table(TABLE), [0.5, 1.0, 2.0]),
        (make_table([[0.0, 0.0], [1.0, 1.0], [2.0, 3.0]]), [1.0]),
    ], ids=["power", "power_log", "table", "table-anchored"])
    def test_knots_are_the_interior_table_samples(self, nf, knots):
        np.testing.assert_array_equal(nf.knots, knots)

    @pytest.mark.parametrize("make", [make_power, make_power_log])
    def test_large_exponents_overflow_by_name(self, make):
        # past p of about 49 the validation samples leave the float
        # range; the accepted exponents form one interval and every
        # rejection says why
        accepted = []
        for p in np.arange(44.0, 61.01, 0.5):
            try:
                make(p)
            except ValueError as exc:
                assert "overflows the float range" in str(exc), (p, exc)
            else:
                accepted.append(p)
        assert accepted and accepted[0] == 44.0
        assert accepted == list(np.arange(44.0, accepted[-1] + 0.01, 0.5))
        assert accepted[-1] < 61.0


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


class TestDomainCheck:
    """``_check_domain`` takes one min and one max pass; NaN is skipped as
    the elementwise comparisons skipped it."""

    @pytest.mark.parametrize("t", [np.array([]), np.zeros((0, 3)),
                                   np.array([np.nan, np.nan]),
                                   np.array(np.nan), np.array(0.0),
                                   np.array([[0.0, 1e30], [np.nan, 2.0]])],
                             ids=["empty", "empty-2d", "all-nan",
                                  "nan-scalar", "zero", "in-range"])
    def test_passes(self, t):
        nfm._check_domain(t)

    @pytest.mark.parametrize("t", [np.array([np.nan, -1.0]),
                                   np.array([[1.0, np.nan], [-np.inf, 2.0]]),
                                   np.array(-1e-300),
                                   # the lower bound is checked first
                                   np.array([-1.0, 1e31])],
                             ids=["nan-negative", "nan-minus-inf",
                                  "negative-scalar", "negative-and-large"])
    def test_negative_raises_value_error(self, t):
        with pytest.raises(ValueError, match="must be >= 0"):
            nfm._check_domain(t)

    @pytest.mark.parametrize("t", [np.array([1.0, 1e31]),
                                   np.array([[np.nan, np.inf]]),
                                   np.array(1e30 * (1 + 1e-15))],
                             ids=["large", "nan-inf", "just-above"])
    def test_above_range_raises_overflow(self, t):
        with pytest.raises(OverflowError):
            nfm._check_domain(t)

    def test_profiles_check_their_arguments(self, nf_plog):
        for nf in (make_power(2.0), nf_plog):
            with pytest.raises(ValueError):
                nf.G(np.array([np.nan, -1.0]))
            with pytest.raises(OverflowError):
                nf.G(np.array([[0.5, 1e31]]))


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


def _scipy_power_log(p, t, H=False):
    # tau = t e^x: G(t) = t^p int_{-inf}^0 e^(px) log1p(t e^x) dx, and H
    # carries the extra factor log(t / tau) = -x; split at the bend of
    # log1p at tau = 1
    def f(x):
        return math.exp(p * x) * math.log1p(t * math.exp(x)) \
            * (-x if H else 1.0)

    lo = -(60.0 / p + max(math.log(t), 0.0))
    pts = [-math.log(t)] if t > 1.0 else None
    return t ** p * quad(f, lo, 0.0, points=pts, epsabs=0, epsrel=1e-13,
                         limit=400)[0]


class TestPowerLogQuadrature:
    """G and H of power_log by ``quadrature.integrate_zero_to``, the
    graded rule after tau = t u, which the accelerator is fitted to."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_vs_scipy_oracle(self, p):
        nf = make_power_log(p)
        t = np.geomspace(1e-30, 1e28, 13)
        want_G = [_scipy_power_log(p, x) for x in t]
        want_H = [_scipy_power_log(p, x, H=True) for x in t]
        np.testing.assert_allclose(nf._quad_exact(t), want_G, rtol=1e-13,
                                   atol=0)
        np.testing.assert_allclose(nf._quad_H_exact(t), want_H, rtol=1e-13,
                                   atol=0)

    def test_H_is_one_quadrature_call(self, nf_plog, monkeypatch):
        calls = []

        def counted(fn, t):
            calls.append(np.size(t))
            return integrate_zero_to(fn, t)

        monkeypatch.setattr(nfm, "integrate_zero_to", counted)
        nf_plog._quad_H_exact(np.geomspace(1e-3, 1e20, 1000))
        assert calls == [1000]

    def test_blocks_do_not_change_values(self, monkeypatch):
        # one graded-rule row per block against the default blocks
        nf = make_power_log(1.5)
        t = np.geomspace(1e-14, 1e28, 300)
        want_G, want_H = nf._quad_exact(t), nf._quad_H_exact(t)
        monkeypatch.setattr(quadm, "BLOCK_NODES", 1)
        np.testing.assert_array_equal(nf._quad_exact(t), want_G)
        np.testing.assert_array_equal(nf._quad_H_exact(t), want_H)

    def test_scalar_zero_and_negative_limits(self):
        assert integrate_zero_to(lambda tau, u: tau, 2.0) == \
            pytest.approx(2.0, rel=1e-15)
        np.testing.assert_array_equal(
            integrate_zero_to(lambda tau, u: 1.0 / np.sqrt(tau),
                              np.zeros((2, 3))), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            integrate_zero_to(lambda tau, u: tau, [1.0, -1.0])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_accelerator_certifies_at_the_first_tier(self, p):
        accel = make_power_log(p)._accel
        assert accel.coef.shape == (25, 64)  # (degree + 1, intervals)
        assert accel.hcoef is not None

    def test_accelerator_certifies_while_G_is_representable(self):
        # a power_log profile is built for 1.000977 <= p <= 48.96: below,
        # ell overflows, above, the validation grid does.  Every exponent
        # between certifies its fit of log G, on the whole accelerator
        # range [1e-14, 1e14] while G stays a normal float there (p up to
        # about 21)
        for p in np.linspace(1.000977, 48.96, 60):
            accel = make_power_log(p)._accel
            assert accel.err <= CERTIFY_TOL / 2, p
            if p <= 20.0:
                assert (accel.lo, accel.hi) == (SERIES_MAX, 1e14), p
        with pytest.raises(ValueError, match="ell = 2"):
            make_power_log(1.000976)
        with pytest.raises(ValueError, match="overflows the float range"):
            make_power_log(48.97)

    @pytest.mark.parametrize("p", [25.0, 40.0])
    def test_accelerator_range_is_clipped_where_G_leaves_the_floats(self, p):
        # past p = 21 G underflows near 1e-14 and overflows near 1e14: the
        # range shrinks to where G is a normal float, the fit certifies
        # there, and the quadrature takes the arguments beyond it
        nf = make_power_log(p)
        accel = nf._accel
        assert accel is not None
        assert SERIES_MAX < accel.lo < accel.hi < 1e14
        tiny, big = np.finfo(float).tiny, np.finfo(float).max
        assert tiny <= nf._quad_exact(np.array([accel.lo]))[0]
        assert nf._quad_exact(np.array([accel.hi]))[0] <= big
        t = np.geomspace(accel.lo, accel.hi, 401)
        np.testing.assert_allclose(nf.G(t), nf._quad_exact(t),
                                   rtol=CERTIFY_TOL, atol=0.0)
        for x in (0.5 * (SERIES_MAX + accel.lo), accel.hi * (1.0 + 1e-3)):
            assert nf.G(x) == nf._quad_exact(np.array([x]))[0]


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
        nf = NFunction("power", exponent=2.0, p=1.5, q=3.0)
        assert nf.p == 1.5 and nf.q == 3.0
        with pytest.raises(ValueError):
            NFunction("power", exponent=2.0, p=2.5)
        with pytest.raises(ValueError):
            NFunction("power", exponent=2.0, q=1.5)

    def test_table_indices_estimated(self):
        # the origin-anchored segment is linear (ratio exactly 2), the
        # bulk of a tabulated t^2 density carries ratio 3
        ts = np.geomspace(1e-6, 10.0, 2001)
        nf = make_table(np.c_[ts, ts ** 2])
        assert nf.p == pytest.approx(2.0, abs=1e-6)
        assert nf.q == pytest.approx(3.0, abs=1e-2)
