import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad

from fracglap import (Ball, ExteriorModel, GridFunction, Kernel, Lattice,
                      gagliardo_modular, luxemburg_norm, make_power,
                      membership_check, sphere_measure, tail)
from fracglap.nfunction import make_power_log, make_table

from helpers import (KINKED_TABLE, csv_writer_reference, scan_knot_radii,
                     scipy_radial)


@pytest.fixture
def nf2():
    return make_power(2.0)


def table_square():
    # g(t) = 2t tabulated exactly: G(t) = t^2 with no quadrature error
    ts = np.linspace(0.0, 100.0, 4001)[1:]
    return make_table(np.c_[ts, 2.0 * ts])


class TestLattice:
    def test_counts_and_coords(self):
        lat = Lattice.from_box([0.0], [1.0], 0.25)
        assert lat.counts == (5,)
        np.testing.assert_allclose(lat.coords[:, 0],
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_non_multiple_side_rejected(self):
        with pytest.raises(ValueError):
            Lattice.from_box([0.0], [1.0], 0.3)

    def test_refined_keeps_box(self):
        lat = Lattice.from_box([-1.0, 0.0], [1.0, 2.0], 0.5)
        fine = lat.refined()
        assert fine.h == 0.25
        assert fine.hi == lat.hi
        assert fine.n_nodes == (2 * lat.counts[0] - 1) ** 2

    def test_ball_selection_by_node_center(self):
        lat = Lattice.from_box([-1.0], [1.0], 0.5)
        mask = lat.select(Ball([0.0], 0.5))
        np.testing.assert_array_equal(mask, [False, True, True, True, False])


class TestKernel:
    def test_pure_constructs(self):
        Kernel().validate_on(Lattice.from_box([0.0], [1.0], 0.25).coords)

    def test_bad_ellipticity(self):
        with pytest.raises(ValueError):
            Kernel(lam=2.0, Lam=1.0)
        with pytest.raises(ValueError):
            Kernel(lam=2.0, Lam=3.0)  # pure kernel needs lam <= 1 <= Lam

    def test_oscillating_coefficient_symmetric(self):
        k = Kernel.from_config({"form": "weighted", "lambda": 0.5,
                                "Lambda": 2.0, "frequency": 3.0})
        lat = Lattice.from_box([0.0, 0.0], [1.0, 1.0], 0.25)
        k.validate_on(lat.coords)
        xa, xb = lat.coords[3:4], lat.coords[17:18]
        assert k.coefficient_values(xa, xb) == pytest.approx(
            k.coefficient_values(xb, xa))

    def test_asymmetric_coefficient_rejected(self):
        k = Kernel(lam=0.5, Lam=2.0,
                   coefficient=lambda xa, xb: 1.0 + 0.1 * (xa - xb).sum(-1))
        with pytest.raises(ValueError, match="symmetric"):
            k.validate_on(Lattice.from_box([0.0], [1.0], 0.125).coords)


class TestGagliardoModular:
    def test_constant_vanishes(self, nf2):
        lat = Lattice.from_box([0.0], [1.0], 0.25)
        f = GridFunction(lat, np.full(5, 3.7))
        assert gagliardo_modular([f], None, 0.5, nf2)[0] == 0.0

    def test_two_node_enumeration(self, nf2):
        # both ordered pairs of a two-node lattice, h = d = 1
        lat = Lattice.from_box([0.0], [1.0], 1.0)
        f = GridFunction(lat, [0.0, 1.0])
        assert gagliardo_modular([f], None, 0.5, nf2)[0] == pytest.approx(1.0)

    def test_quadratic_homogeneity(self, nf2):
        lat = Lattice.from_box([0.0], [2.0], 0.25)
        rng = np.random.default_rng(0)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        m1 = gagliardo_modular([f], None, 0.5, nf2)[0]
        m2 = gagliardo_modular([f.with_values(2 * f.values)], None, 0.5,
                               nf2)[0]
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)

    def test_relabel_symmetry(self, nf2):
        lat = Lattice.from_box([0.0], [2.0], 0.25)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=lat.n_nodes)
        m1 = gagliardo_modular([GridFunction(lat, vals)], None, 0.6, nf2)[0]
        m2 = gagliardo_modular([GridFunction(lat, vals[::-1])], None, 0.6,
                               nf2)[0]
        assert m1 == pytest.approx(m2, rel=1e-13)

    def test_positive_for_nonconstant(self, nf2):
        lat = Lattice.from_box([0.0], [2.0], 0.25)
        vals = np.zeros(lat.n_nodes)
        vals[3] = 1e-9
        f = GridFunction(lat, vals)
        assert gagliardo_modular([f], None, 0.5, nf2)[0] > 0

    def test_refinement_cauchy(self, nf2):
        # smooth test function: halving h moves the modular by little
        lat = Lattice.from_box([0.0], [1.0], 1 / 64)
        fine = lat.refined()
        f1 = GridFunction(lat, np.sin(2 * np.pi * lat.coords[:, 0]))
        f2 = GridFunction(fine, np.sin(2 * np.pi * fine.coords[:, 0]))
        m1 = gagliardo_modular([f1], None, 0.5, nf2)[0]
        m2 = gagliardo_modular([f2], None, 0.5, nf2)[0]
        assert abs(m2 - m1) / m1 < 0.05

    def test_empty_region(self, nf2):
        lat = Lattice.from_box([0.0], [1.0], 0.25)
        f = GridFunction(lat, np.zeros(5))
        with pytest.raises(ValueError):
            gagliardo_modular([f], Ball([9.0], 0.1), 0.5, nf2)

    def test_s_range(self, nf2):
        lat = Lattice.from_box([0.0], [1.0], 0.25)
        f = GridFunction(lat, np.zeros(5))
        with pytest.raises(ValueError):
            gagliardo_modular([f], None, 1.2, nf2)

    def test_functions_share_one_lattice(self, nf2):
        f = GridFunction(Lattice.from_box([0.0], [1.0], 0.25), np.zeros(5))
        g = GridFunction(Lattice.from_box([0.0], [1.0], 0.125), np.zeros(9))
        with pytest.raises(ValueError, match="one lattice"):
            gagliardo_modular([f, g], None, 0.5, nf2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_norms_match_power_closed_forms(p):
    # G(t) = t^p/p: sum G(|f|/lam) h^n = 1 gives lam = (sum |f|^p h^n/p)^(1/p)
    nf = make_power(p)
    lat = Lattice.from_box([0.0], [2.0], 0.125)
    f = GridFunction(lat, np.random.default_rng(2).normal(size=lat.n_nodes))
    want = (np.sum(np.abs(f.values) ** p) * lat.h / p) ** (1.0 / p)
    assert luxemburg_norm(f, None, nf) == pytest.approx(want, rel=1e-12)


class TestLuxemburgNorm:
    def test_zero_function(self, nf2):
        lat = Lattice.from_box([0.0], [1.0], 0.25)
        assert luxemburg_norm(GridFunction(lat, np.zeros(5)), None, nf2) == 0.0

    def test_constant_closed_form(self):
        # m G(c / lam) = 1 with G = t^2 gives lam = c sqrt(measure)
        nft = table_square()
        lat = Lattice.from_box([0.0], [3.0], 0.5)
        c = 1.3
        f = GridFunction(lat, np.full(lat.n_nodes, c))
        measure = lat.n_nodes * 0.5
        assert luxemburg_norm(f, None, nft) == pytest.approx(
            c * math.sqrt(measure), rel=1e-9)

    def test_unit_modular_at_returned_norm(self, nf2):
        lat = Lattice.from_box([0.0], [2.0], 0.125)
        rng = np.random.default_rng(2)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        lam = luxemburg_norm(f, None, nf2)
        modular = float(np.sum(nf2.G(np.abs(f.values) / lam))) * lat.h
        assert modular == pytest.approx(1.0, abs=1e-8)

    def test_homogeneity_power_family(self, nf2):
        lat = Lattice.from_box([0.0], [2.0], 0.125)
        rng = np.random.default_rng(3)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        lam = luxemburg_norm(f, None, nf2)
        lam3 = luxemburg_norm(f.with_values(-3.0 * f.values), None, nf2)
        assert lam3 == pytest.approx(3.0 * lam, rel=1e-9)


class TestExteriorModel:
    @pytest.mark.parametrize("cfg, value, exponent", [
        (None, 0.0, 0.0),
        ({"kind": "zero"}, 0.0, 0.0),
        ({"kind": "zero", "value": 0.7, "exponent": 0.4}, 0.0, 0.0),
        ({"kind": "constant", "value": 0.3}, 0.3, 0.0),
        ({"kind": "constant", "value": 0.3, "exponent": 0.4}, 0.3, 0.0),
        ({"kind": "power", "value": -0.4, "exponent": -0.3}, -0.4, -0.3),
        ({"kind": "power", "value": 0.3}, 0.3, 0.0),
    ], ids=["none", "zero", "zero-ignores-numbers", "constant",
            "constant-ignores-exponent", "power", "power-default-exponent"])
    def test_from_config_maps_kind_to_value_and_exponent(self, cfg, value,
                                                          exponent):
        model = ExteriorModel.from_config(cfg)
        assert (model.value, model.exponent) == (value, exponent)
        assert model.center is None and model.start_radius is None

    def test_from_config_keeps_center_and_start_radius(self):
        model = ExteriorModel.from_config({"kind": "constant", "value": 0.3,
                                           "center": [0.5], "start_radius": 2})
        assert model == ExteriorModel(value=0.3, center=(0.5,),
                                      start_radius=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown exterior model kind"):
            ExteriorModel.from_config({"kind": "linear", "value": 0.3})

    def test_kind_is_not_a_field(self):
        assert [f.name for f in fields(ExteriorModel)] == [
            "value", "exponent", "center", "start_radius"]

    @pytest.mark.parametrize("value, exponent, level, growth", [
        (0.0, 0.0, 0.0, 0.0), (0.3, 0.0, 0.3, 0.0), (0.0, 0.25, 0.0, 0.0),
        (-0.4, -0.3, None, -0.3), (0.3, 0.25, None, 0.25)])
    def test_level_and_growth_exponent(self, value, exponent, level, growth):
        model = ExteriorModel(value=value, exponent=exponent)
        assert model.level == level
        assert model.growth_exponent == growth

    @pytest.mark.parametrize("value, exponent", [(0.3, 0.0), (0.0, 0.25),
                                                 (-0.4, -0.3)])
    def test_profiles_are_c_rho_to_the_a(self, value, exponent):
        model = ExteriorModel(value=value, exponent=exponent)
        rho = np.array([0.5, 2.0, 7.0])
        np.testing.assert_allclose(model.signed_profile(rho),
                                   value * rho ** exponent, rtol=1e-15)
        np.testing.assert_allclose(model.shifted_abs_profile(rho, 0.0),
                                   abs(value) * rho ** exponent, rtol=1e-15)


class TestTail:
    def test_zero_outside_ball(self, nf2):
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        f = GridFunction(lat, np.zeros(5), ExteriorModel())
        assert tail(f, [0.0], 0.1, 0.5, nf2) == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_far_field_closed_form(self, dim, p):
        nf = make_power(p)
        M, s, R = 0.7, 0.6, 2.0
        lat = Lattice.from_box([-0.5] * dim, [0.5] * dim, 0.5)
        model = ExteriorModel(value=M,
                              start_radius=lat.circumradius(lat.center()))
        f = GridFunction(lat, np.zeros(lat.n_nodes), model)
        got = tail(f, [0.0] * dim, R, s, nf)
        want = sphere_measure(dim) * M ** (p - 1.0) * R ** (-s * p) / (s * p)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_inverse_reduction_for_power_density(self, p):
        # R^s g^{-1}(R^s Tail) equals [R^{sp} T]^{1/(p-1)} with
        # T = int |u|^{p-1} |x-x0|^{-n-sp}; exact identity for power g
        nf = make_power(p)
        M, s, R = 1.3, 0.45, 1.5
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=M,
                              start_radius=lat.circumradius(lat.center()))
        f = GridFunction(lat, np.zeros(5), model)
        tl = tail(f, [0.0], R, s, nf)
        lhs = R ** s * nf.inv_g(R ** s * tl)
        T = sphere_measure(1) * M ** (p - 1.0) * R ** (-s * p) / (s * p)
        rhs = (R ** (s * p) * T) ** (1.0 / (p - 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_lattice_part_riemann_sum(self, nf2):
        # nodes outside the ball contribute g(|f|/d^s) d^(-1-s) h
        lat = Lattice.from_box([-2.0], [2.0], 0.5)
        vals = np.ones(lat.n_nodes)
        f = GridFunction(lat, vals, ExteriorModel())
        s, R = 0.5, 1.2
        got = tail(f, [0.0], R, s, nf2)
        d = np.abs(lat.coords[:, 0])
        sel = d > R
        want = float(np.sum((1.0 / d[sel] ** s) * d[sel] ** (-1 - s))) * 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_radius(self, nf2):
        lat = Lattice.from_box([-2.0], [2.0], 0.25)
        f = GridFunction(lat, np.abs(np.sin(lat.coords[:, 0])),
                         ExteriorModel(value=0.3))
        tails = [tail(f, [0.0], R, 0.5, nf2) for R in (0.5, 1.0, 2.0, 3.0)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_missing_model_is_error(self, nf2):
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        f = GridFunction(lat, np.zeros(5))
        with pytest.raises(ValueError, match="exterior"):
            tail(f, [0.0], 0.4, 0.5, nf2)
        with pytest.raises(ValueError, match="^tail needs an exterior "
                           "model on the grid function$"):
            membership_check(f, 0.5, nf2)

    def test_far_quadrature_vs_scipy(self):
        # independent oracle for a non-power integrand
        nf = make_power_log(2.0)
        M, s, R = 0.9, 0.55, 1.7
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=M,
                              start_radius=lat.circumradius(lat.center()))
        f = GridFunction(lat, np.zeros(5), model)
        got = tail(f, [0.0], R, s, nf)
        want, _ = quad(lambda r: (M / r ** s) * np.log1p(M / r ** s)
                       * r ** (-1 - s), R, np.inf, epsabs=0, epsrel=1e-11)
        assert got == pytest.approx(2.0 * want, rel=1e-12)

    @pytest.mark.parametrize("nf, c, a, s", [
        (make_power_log(2.0), 1.0, 0.45, 0.5),
        (make_power_log(2.0), 1.0, 0.9, 0.6),
        (make_power(1.5), -0.3, -0.3, 0.5),
        (make_power(2.0), 0.3, 0.25, 0.5),
        (make_power(3.0), 0.3, 0.45, 0.5),
    ], ids=["power_log", "power_log-growing", "p1.5-decaying", "p2", "p3"])
    def test_off_center_power_model_vs_scipy(self, nf, c, a, s):
        # the query point sits 0.3 from the model center, so the far part
        # takes the worst-case shifted profile; no box node lies past R
        # with a nonzero value
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        f = GridFunction(lat, np.zeros(lat.n_nodes),
                         ExteriorModel(value=c, exponent=a))
        x0, R = 0.3, 0.2
        got = tail(f, [x0], R, s, nf)
        model = f.exterior
        shift = abs(x0 - model.center[0])

        def fn(rho):
            prof = model.shifted_abs_profile(rho, shift)
            return nf.g(prof / rho ** s) * rho ** (-1.0 - s)

        want = 2.0 * scipy_radial(fn, model.start_radius + shift)
        assert got == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("c, a, x0", [
        (0.75, 0.0, 0.0), (3.0, 0.25, 0.3), (3.0, -0.5, 0.3),
        (1.7, 0.55, 0.45)],
        ids=["level", "growing", "decaying", "turning"])
    def test_table_tail_breaks_at_the_knots(self, c, a, x0):
        # g has a kink at each interior knot: the radial rule breaks
        # where |f| rho^(-s) crosses one.  With a > s the shifted
        # profile falls from 2.10 to its minimum 1.93 at
        # rho* = s shift / (a - s) = 4.5 and rises past it, crossing the
        # knot 2 on both sides.
        nf = make_table(KINKED_TABLE)
        s, R = 0.5, 0.2
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        f = GridFunction(lat, np.zeros(lat.n_nodes),
                         ExteriorModel(value=c, exponent=a))
        got = tail(f, [x0], R, s, nf)
        model = f.exterior
        shift = abs(x0 - model.center[0])
        r0 = model.start_radius + shift

        def arg(rho):
            return model.shifted_abs_profile(rho, shift) / rho ** s

        breaks = scan_knot_radii(arg, nf.knots, r0)
        assert breaks
        want = 2.0 * scipy_radial(lambda rho: nf.g(arg(rho))
                                  * rho ** (-1.0 - s), r0, breaks)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_divergence_is_decided_by_the_growth_exponent(self):
        # mu = s - (a - s)(p - 1): 0.6 - 0.6 * 1 = 0 diverges, and a zero
        # value has no growth at all
        nf = make_power(2.0)
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        grow = GridFunction(lat, np.zeros(5),
                            ExteriorModel(value=1.0,
                                          exponent=1.2))
        assert math.isinf(tail(grow, [0.0], 0.4, 0.6, nf))
        flat = GridFunction(lat, np.zeros(5),
                            ExteriorModel(value=0.0,
                                          exponent=1.2))
        assert tail(flat, [0.0], 0.4, 0.6, nf) == 0.0


class TestMembership:
    def test_zero_function_is_member(self, nf2):
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        f = GridFunction(lat, np.zeros(5), ExteriorModel())
        rep = membership_check(f, 0.5, nf2)
        assert rep.member and rep.consistent
        assert rep.tails == (0.0, 0.0)
        assert rep.weighted_integral == 0.0

    def test_slow_growth_is_member(self):
        nf = make_power(2.5)
        s = 0.6
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=1.0, exponent=s - 0.2,
                              start_radius=0.8)
        f = GridFunction(lat, np.zeros(5), model)
        rep = membership_check(f, s, nf)
        assert rep.member and rep.consistent

    def test_fast_growth_detected_divergent(self):
        # |f| ~ |x|^{2s} with p >= 2 diverges: the weighted integrand
        # decays like rho^(-1-mu), mu = s - (a - s)(p - 1) = -0.3 <= 0
        nf = make_power(2.5)
        s = 0.6
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=1.0, exponent=2 * s,
                              start_radius=0.8)
        f = GridFunction(lat, np.zeros(5), model)
        rep = membership_check(f, s, nf)
        assert not rep.member
        assert rep.consistent
        assert math.isinf(rep.weighted_integral)


    def test_near_divergence_is_a_value_error(self):
        # mu = s - (a - s)(p - 1) = 0.075: the graded rule's nodes reach
        # radii where g's argument rho^(a - s) passes the representable
        # range, for the tail and the weighted integral alike
        nf = make_power(2.5)
        s = 0.6
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=1.0, exponent=0.95, start_radius=0.8)
        f = GridFunction(lat, np.zeros(5), model)
        with pytest.raises(ValueError, match="too close to divergence"):
            tail(f, [0.0], 0.25, s, nf)
        with pytest.raises(ValueError, match="too close to divergence"):
            membership_check(f, s, nf)

    @pytest.mark.parametrize("a", [0.4, 0.65])
    def test_weighted_integral_vs_scipy(self, a):
        # finite below and above a = s: power 2.5 with s = 0.6 gives
        # mu = 0.525 at a = 0.65; the center sits off the origin, so the
        # weight has its kink at rho = |center| past the start radius
        nf = make_power(2.5)
        s = 0.6
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=1.0, exponent=a,
                              center=(1.2,), start_radius=0.8)
        f = GridFunction(lat, np.zeros(5), model)
        rep = membership_check(f, s, nf)
        assert rep.member and rep.consistent

        def fn(rho):
            base = 1.0 + np.maximum(rho - 1.2, 0.0)
            return nf.g(model.shifted_abs_profile(rho, 0.0) / base ** s) \
                * base ** (-1.0 - s)

        want = 2.0 * scipy_radial(fn, 0.8, (1.2,))
        assert rep.weighted_integral == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("c, a", [(0.75, 0.0), (3.0, 0.25), (3.0, -0.5),
                                      (1.82, 0.55)],
                             ids=["level", "growing", "decaying", "turning"])
    def test_table_weighted_integral_breaks_at_the_knots(self, c, a):
        # the argument |f| base^(-s) of g crosses knots of the table on
        # both sides of the weight's kink at rho = |center| = 1.2; with
        # a > s it falls past the kink from 2.011 to its minimum 1.986 at
        # rho* = a (|center| - 1) / (a - s) = 2.2, crossing the knot 2
        # three times
        nf = make_table(KINKED_TABLE)
        s = 0.5
        lat = Lattice.from_box([-0.5], [0.5], 0.25)
        model = ExteriorModel(value=c, exponent=a, center=(1.2,),
                              start_radius=0.8)
        f = GridFunction(lat, np.zeros(5), model)
        rep = membership_check(f, s, nf)

        def base(rho):
            return 1.0 + np.maximum(rho - 1.2, 0.0)

        def arg(rho):
            return model.shifted_abs_profile(rho, 0.0) / base(rho) ** s

        breaks = scan_knot_radii(arg, nf.knots, 0.8)
        assert breaks
        want = 2.0 * scipy_radial(
            lambda rho: nf.g(arg(rho)) * base(rho) ** (-1.0 - s), 0.8,
            (1.2, *breaks))
        assert rep.weighted_integral == pytest.approx(want, rel=1e-12, abs=0)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        lat = Lattice.from_box([-0.5, -0.5], [0.5, 0.5], 0.25)
        rng = np.random.default_rng(9)
        f = GridFunction(lat, rng.normal(size=lat.n_nodes))
        path = tmp_path / "grid.csv"
        f.to_csv(path)
        g = GridFunction.from_csv(path, lat)
        np.testing.assert_array_equal(f.values, g.values)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_csv_bytes_match_csv_writer(self, tmp_path, dim):
        lat = Lattice.from_box([-0.5] * dim, [0.5] * dim, 0.25)
        rng = np.random.default_rng(dim)
        vals = rng.normal(size=lat.n_nodes)
        vals[:4] = [-0.0, 1e-300, 1e300, -1e300]
        f = GridFunction(lat, vals)
        f.to_csv(tmp_path / "got.csv")
        csv_writer_reference(f, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() \
            == (tmp_path / "want.csv").read_bytes()

    def test_nonfinite_rejected(self):
        lat = Lattice.from_box([0.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            GridFunction(lat, [0.0, np.nan, 1.0])
