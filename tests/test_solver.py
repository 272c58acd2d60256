import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize

import fracglap.nfunction as nfm
from fracglap import pairs
from fracglap import solver as sl
from fracglap import (ExteriorModel, GridFunction, InadmissibleError, Kernel,
                      Lattice, NonlocalProblem, assemble_quadratic, energy,
                      gradient, make_power, make_power_log, make_table, solve,
                      sphere_measure, weak_residual)
from fracglap.cli import FD_ROUNDING, build_problem, run
from fracglap.quadrature import integrate_graded, integrate_radial

from helpers import (KINKED_TABLE, central_differences_full,
                     energy_reference, energy_values, far_terms_reference,
                     gradient_reference, gradient_values, line_problem,
                     oracle_energy, quadratic_oracle, square_problem,
                     surrogate_add_at_reference)


@pytest.fixture(scope="module")
def p2_problem():
    return line_problem(h=1 / 32, s=0.5, p=2.0, datum="sin")


class TestEnergy:
    def test_constant_data_zero_energy(self):
        prob = line_problem(datum=2.5)
        v = prob.datum_extension(2.5)
        assert energy(prob, v) == 0.0

    def test_three_node_hand_enumeration(self):
        # one domain node between two halo nodes; every ordered pair
        # and the radial tail term written out by hand
        lat = Lattice.from_box([0.0], [2.0], 1.0)
        omega = np.array([False, True, False])
        datum = GridFunction(lat, [0.3, 0.0, -0.2], ExteriorModel())
        prob = NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.5,
                               datum, truncation_radius=1.0)
        v = prob.datum_extension(0.7)
        pair_part = 2 * ((0.7 - 0.3) ** 2 / 2 + (0.7 + 0.2) ** 2 / 2)
        far = 2 * sphere_measure(1) * (0.7 ** 2 / 2) * 1.0
        assert energy(prob, v) == pytest.approx(pair_part + far, rel=1e-14)

    def test_two_domain_one_halo_six_ordered_pairs(self):
        # two domain nodes and one halo node give six ordered-pair
        # terms; both orderings of each pair carry the same value
        lat = Lattice.from_box([0.0], [3.0], 1.0)
        omega = np.array([False, True, True, False])
        s, h = 0.4, 1.0
        fvals = np.array([0.5, 0.0, 0.0, -0.3])
        datum = GridFunction(lat, fvals, ExteriorModel())
        prob = NonlocalProblem(lat, omega, make_power(3.0), Kernel(), s,
                               datum, truncation_radius=1.0)
        a, b = 0.8, -0.1
        v = prob.datum_extension([a, b])
        G = lambda t: abs(t) ** 3 / 3
        pair_part = 2 * (G(a - 0.5) + G(a - b) + G(b + 0.3)) * h ** 2
        far = 2 * sphere_measure(1) * h \
            * (abs(a) ** 3 + abs(b) ** 3) / 3 * 1.0 / (s * 3) * 1.0 ** (-s * 3)
        assert energy(prob, v) == pytest.approx(pair_part + far, rel=1e-13)

    def test_quadratic_matches_matrix_oracle(self, p2_problem):
        prob = p2_problem
        A, b, c0, oi = quadratic_oracle(prob)
        rng = np.random.default_rng(0)
        for _ in range(3):
            vom = rng.normal(size=oi.size)
            v = prob.datum_extension(vom)
            want = oracle_energy(A, b, c0, vom)
            assert energy(prob, v) == pytest.approx(want, rel=1e-12)

    def test_translation_invariance(self):
        c = 1.234
        prob = line_problem(h=1 / 16, datum="sin")
        lat = prob.lattice
        f2 = GridFunction(lat, prob.exterior_datum.values + c,
                          ExteriorModel(
                              value=prob.exterior_datum.exterior.value + c))
        prob2 = NonlocalProblem(lat, prob.omega_mask, prob.nf, prob.kernel,
                                prob.s, f2,
                                truncation_radius=prob.truncation_radius)
        rng = np.random.default_rng(1)
        vom = rng.normal(size=int(prob.omega_mask.sum()))
        e1 = energy(prob, prob.datum_extension(vom))
        e2 = energy(prob2, prob2.datum_extension(vom + c))
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_scaling_covariance_power_family(self):
        c = 2.5
        p = 3.0
        prob = line_problem(h=1 / 16, p=p, datum="sin")
        lat = prob.lattice
        f2 = GridFunction(lat, c * prob.exterior_datum.values,
                          ExteriorModel(
                              value=c * prob.exterior_datum.exterior.value))
        prob2 = NonlocalProblem(lat, prob.omega_mask, prob.nf, prob.kernel,
                                prob.s, f2,
                                truncation_radius=prob.truncation_radius)
        rng = np.random.default_rng(2)
        vom = rng.normal(size=int(prob.omega_mask.sum()))
        e1 = energy(prob, prob.datum_extension(vom))
        e2 = energy(prob2, prob2.datum_extension(c * vom))
        assert e2 == pytest.approx(c ** p * e1, rel=1e-12)
        g1 = gradient_values(prob, prob.datum_extension(vom).values)
        g2 = gradient_values(prob2, prob2.datum_extension(c * vom).values)
        np.testing.assert_allclose(g2, c ** (p - 1) * g1, rtol=1e-11)

    def test_inadmissible_rejected(self, p2_problem):
        v = p2_problem.datum_extension(0.0)
        v.values[np.flatnonzero(p2_problem.halo_mask)[0]] += 0.1
        with pytest.raises(InadmissibleError):
            energy(p2_problem, v)


class TestGradient:
    @pytest.mark.parametrize("family,p", [("power", 1.5), ("power", 2.0),
                                          ("power", 3.0), ("power_log", 2.0)])
    def test_matches_central_differences(self, family, p):
        prob = line_problem(h=1 / 16, s=0.6, p=p, family=family)
        rng = np.random.default_rng(5)
        v = prob.datum_extension(rng.normal(size=int(prob.omega_mask.sum())))
        g = gradient_values(prob, v.values)
        idx = np.flatnonzero(prob.omega_mask)
        eps = 1e-6
        for k in range(0, idx.size, 3):
            vp = v.values.copy()
            vp[idx[k]] += eps
            vm = v.values.copy()
            vm[idx[k]] -= eps
            fd = (energy_values(prob, vp) - energy_values(prob, vm)) / (2 * eps)
            assert g[k] == pytest.approx(fd, rel=2e-6, abs=1e-12)

    def test_constant_data_zero_gradient(self):
        prob = line_problem(datum=1.5)
        g = gradient(prob, prob.datum_extension(1.5))
        assert np.abs(g.values).max() == 0.0

    def test_quadratic_matrix_gradient(self, p2_problem):
        prob = p2_problem
        A, b, _, oi = quadratic_oracle(prob)
        rng = np.random.default_rng(3)
        vom = rng.normal(size=oi.size)
        g = gradient_values(prob, prob.datum_extension(vom).values)
        np.testing.assert_allclose(g, A @ vom - b, rtol=1e-11, atol=1e-13)

    def test_gradient_supported_on_domain(self, p2_problem):
        g = gradient(p2_problem, p2_problem.datum_extension(0.0))
        assert np.all(g.values[p2_problem.halo_mask] == 0.0)


class TestSolve:
    def test_constant_data_immediate(self):
        prob = line_problem(datum=2.0)
        rep = solve(prob)
        assert rep.converged and rep.iterations == 0
        np.testing.assert_allclose(rep.minimizer.values, 2.0)
        assert rep.final_energy == 0.0

    @pytest.mark.parametrize("datum", [2.0, "sin"], ids=["constant", "sin"])
    def test_unknown_initial_rejected(self, datum):
        # constant data returns early; the start is checked before that
        with pytest.raises(ValueError, match="initial must be"):
            solve(line_problem(datum=datum), initial="bogus")

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_quadratic_matches_direct_solve(self, s):
        prob = line_problem(h=1 / 32, s=s, p=2.0, datum="sin")
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        A, b, _, oi = quadratic_oracle(prob)
        direct = np.linalg.solve(A, b)
        err = np.abs(rep.minimizer.values[prob.omega_mask] - direct).max()
        assert err < 1e-8

    def test_line_search_failure_stops_at_the_start(self, monkeypatch):
        # no backtrack allowed: the first step is refused, and the solve
        # reports the failure and returns the point it started from
        monkeypatch.setattr(sl, "MAX_BACKTRACKS", 0)
        prob = line_problem(h=1 / 16, rext=1.0)
        rep = solve(prob, tol=1e-9)
        assert rep.line_search_failures == 1
        assert rep.iterations == 0 and not rep.converged
        np.testing.assert_array_equal(rep.minimizer.values,
                                      prob.datum_extension(0.0).values,
                                      strict=True)

    def test_harmonic_start_is_instant_for_quadratic(self, p2_problem):
        rep = solve(p2_problem, tol=1e-8, initial="harmonic")
        assert rep.converged and rep.iterations == 0

    def test_monotone_descent(self):
        prob = line_problem(h=1 / 32, s=0.5, p=3.0, datum="cusp")
        rep = solve(prob, tol=1e-9)
        assert rep.converged
        hist = np.array(rep.energy_history)
        slack = 1e-12 * (1.0 + np.abs(hist[:-1]))
        assert np.all(np.diff(hist) <= slack)

    def test_nonlinear_minimality_probes(self):
        prob = line_problem(h=1 / 32, s=0.5, p=3.0, datum="sin")
        rep = solve(prob, tol=1e-9)
        assert rep.converged
        e0 = energy(prob, rep.minimizer)
        rng = np.random.default_rng(7)
        base = rep.minimizer.values
        for _ in range(100):
            pert = base.copy()
            pert[prob.omega_mask] += 0.01 * rng.normal(
                size=int(prob.omega_mask.sum()))
            assert energy_values(prob, pert) > e0

    def test_minimizer_scaling_homogeneous(self):
        c = 3.0
        prob = line_problem(h=1 / 16, s=0.5, p=1.5, datum="sin")
        rep = solve(prob, tol=1e-11)
        lat = prob.lattice
        f2 = GridFunction(lat, c * prob.exterior_datum.values,
                          ExteriorModel(
                              value=c * prob.exterior_datum.exterior.value))
        prob2 = NonlocalProblem(lat, prob.omega_mask, prob.nf, prob.kernel,
                                prob.s, f2,
                                truncation_radius=prob.truncation_radius)
        rep2 = solve(prob2, tol=1e-11)
        np.testing.assert_allclose(rep2.minimizer.values,
                                   c * rep.minimizer.values, atol=5e-7)

    def test_maximum_principle_probe(self):
        prob = line_problem(h=1 / 32, s=0.6, p=3.0, datum="sin")
        rep = solve(prob, tol=1e-9)
        f = prob.exterior_datum.values[prob.halo_mask]
        u = rep.minimizer.values[prob.omega_mask]
        lo = min(f.min(), prob.exterior_datum.exterior.value)
        hi = max(f.max(), prob.exterior_datum.exterior.value)
        assert u.min() >= lo - 1e-8 and u.max() <= hi + 1e-8

    def test_single_node_domain_bisection(self):
        lat = Lattice.from_box([0.0], [2.0], 1.0)
        omega = np.array([False, True, False])
        datum = GridFunction(lat, [1.0, 0.0, -0.5],
                             ExteriorModel())
        prob = NonlocalProblem(lat, omega, make_power(3.0), Kernel(), 0.5,
                               datum, truncation_radius=1.0)
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        g = gradient_values(prob, rep.minimizer.values)
        assert abs(g[0]) <= rep.details["threshold"]
        # the one unknown is the root of the scalar derivative
        vals = rep.minimizer.values.copy()

        def dphi(x):
            vals[1] = x
            return gradient_values(prob, vals)[0]

        root = optimize.brentq(dphi, -1.0, 1.0, xtol=1e-14, rtol=1e-14)
        assert rep.minimizer.values[1] == pytest.approx(root, abs=1e-10)

    def test_non_convergence_reported_not_raised(self):
        # p = 3: at p = 2 one step converges
        prob = line_problem(h=1 / 32, s=0.5, p=3.0, datum="sin")
        rep = solve(prob, tol=1e-13, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.minimizer is not None

    def test_weighted_kernel_instance(self):
        k = Kernel.from_config({"form": "weighted", "lambda": 0.5,
                                "Lambda": 2.0, "frequency": 2.0})
        prob = line_problem(h=1 / 16, s=0.5, p=2.0, datum="sin", kernel=k)
        rep = solve(prob, tol=1e-9)
        assert rep.converged
        assert weak_residual(prob, rep.minimizer) <= rep.details["threshold"]


def _sin_problem(h, p, exterior=None):
    """1-D, s = 0.5, r = 2: the CLI's sin datum with a constant exterior
    0.3 unless another model is given."""
    return build_problem({"problem": {
        "dim": 1, "h": h, "omega": {"lo": [-0.5], "hi": [0.5]}, "s": 0.5,
        "nfunction": {"family": "power", "p": p},
        "datum": {"family": "sin"},
        "exterior": exterior or {"kind": "constant", "value": 0.3},
        "truncation_radius": 2.0}})


class TestSurrogateMetric:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_iterations_do_not_grow_with_refinement(self, p):
        reps = [solve(_sin_problem(1 / k, p), tol=1e-11) for k in (32, 256)]
        assert all(rep.converged for rep in reps)
        assert reps[1].iterations <= 1.5 * reps[0].iterations

    @pytest.mark.parametrize("exterior", [
        {"kind": "constant", "value": 0.3},
        {"kind": "power", "value": 0.3, "exponent": 0.25}])
    def test_one_step_at_p2(self, exterior):
        # for p = 2 the metric is the Hessian, so the first full step
        # lands on the minimizer
        rep = solve(_sin_problem(1 / 32, 2.0, exterior), tol=1e-11)
        assert rep.converged and rep.iterations == 1

    def test_p2_step_is_the_direct_solve(self):
        prob = _sin_problem(1 / 32, 2.0)
        rep = solve(prob, tol=1e-11)
        A, b, _, _ = assemble_quadratic(prob)
        np.testing.assert_allclose(rep.minimizer.values[prob.omega_mask],
                                   np.linalg.solve(A, b), rtol=0, atol=1e-12)

    def test_one_pair_pass_per_trial(self, monkeypatch):
        # a cusp datum at p = 3 backtracks several times
        prob = line_problem(h=1 / 16, p=3.0, datum="cusp")
        passes = []
        trials = []
        walk, fused = sl._pair_blocks, sl._energy_gradient

        def counted_walk(*args, **kwargs):
            passes.append(1)
            return walk(*args, **kwargs)

        def recorded(prob, vals):
            out = fused(prob, vals)
            trials.append(out[0])
            return out

        monkeypatch.setattr(sl, "_pair_blocks", counted_walk)
        monkeypatch.setattr(sl, "_energy_gradient", recorded)
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        # the accepted trials are the energy history, in order; the
        # trials in between are the backtracks
        accepted = iter(rep.energy_history)
        nxt = next(accepted)
        backtracks = 0
        for e in trials:
            if e == nxt:
                nxt = next(accepted, None)
            else:
                backtracks += 1
        assert nxt is None
        assert backtracks > 0
        assert len(passes) == rep.iterations + backtracks + 1

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_blocked_substitution_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        A = m @ m.T + n * np.eye(n)
        g = rng.standard_normal(n)
        want = np.linalg.solve(A, g)
        got = sl._cholesky_solve(sl._cholesky(A), g)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


class TestCholesky:
    """``_cholesky`` factors A in its own storage by right-looking block
    columns of width ``SUBST_BLOCK``: LAPACK's factor up to rounding, bit
    for bit in one block, with temporaries of at most N x SUBST_BLOCK."""

    @staticmethod
    def _spd(n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        return m @ m.T + n * np.eye(n)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_factor_is_lapack_in_the_storage_of_a(self, n):
        A = self._spd(n)
        want = np.linalg.cholesky(A)
        L, inverses = sl._cholesky(A)
        assert L is A
        got = np.tril(L)
        if n <= sl.SUBST_BLOCK:
            np.testing.assert_array_equal(got, want, strict=True)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert len(inverses) == -(-n // sl.SUBST_BLOCK)
        for k, inv in enumerate(inverses):
            blk = slice(k * sl.SUBST_BLOCK, (k + 1) * sl.SUBST_BLOCK)
            np.testing.assert_array_equal(inv, np.linalg.inv(L[blk, blk]),
                                          strict=True)

    @pytest.mark.parametrize("n", [129, 300])
    def test_substitution_never_reads_the_stale_upper_triangle(self, n):
        A = self._spd(n)
        g = np.random.default_rng(n + 1).standard_normal(n)
        want = np.linalg.solve(A, g)
        factor = sl._cholesky(A)
        clean = sl._cholesky_solve(factor, g)
        factor[0][np.triu_indices(n, 1)] = np.nan
        np.testing.assert_array_equal(sl._cholesky_solve(factor, g), clean,
                                      strict=True)
        np.testing.assert_allclose(clean, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_temporaries_stay_below_a_quarter_of_a(self):
        # N = 1089, the 2-D h = 1/32 benchmark domain: nine block columns
        A = self._spd(1089)
        tracemalloc.start()
        try:
            sl._cholesky(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 4


class TestPairStorage:
    """A problem keeps two float arrays per pair, the weights and d^(-s);
    the distances are kept per shift.  The per-node scatters walk the
    pairs in blocks, so a pass adds one pair-length array, the stored
    pair derivatives, to them."""

    def test_no_per_pair_distance(self):
        prob = square_problem(h=1 / 8, rext=0.5)
        solve(prob, tol=1e-9)
        n = prob._pairs[0].size
        found = []

        def visit(x):
            if isinstance(x, (tuple, list)):
                for y in x:
                    visit(y)
            elif isinstance(x, np.ndarray) and x.dtype.kind == "f" \
                    and x.size == n:
                found.append(id(x))

        for x in vars(prob).values():
            visit(x)
        assert sorted(found) == sorted([id(prob._pairs[3]),
                                        id(prob._inv_ds)])
        assert prob._pairs[2].size < n / 10

    @pytest.mark.parametrize("what", ["scale", "energy_gradient", "gradient"])
    def test_scatter_temporaries_are_blocks(self, what, monkeypatch):
        prob = square_problem(h=1 / 32, rext=0.5)
        monkeypatch.setattr(pairs, "PAIR_BLOCK", 2**12)
        v = prob.datum_extension(0.1)
        prob._inv_ds
        calls = {"scale": lambda: prob._gradient_scale,
                 "energy_gradient": lambda: sl._energy_gradient(prob,
                                                                v.values),
                 "gradient": lambda: gradient(prob, v)}
        tracemalloc.start()
        try:
            calls[what]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = prob._pairs[0].size
        assert n > 100 * 2**12
        # one float per pair, plus the node sums and the blocks
        assert peak < 1.1 * 8 * n


class TestWeakResidual:
    def test_zero_at_minimizer(self, p2_problem):
        rep = solve(p2_problem, tol=1e-10)
        assert weak_residual(p2_problem, rep.minimizer) \
            <= rep.details["threshold"]

    def test_positive_off_minimizer(self, p2_problem):
        v = p2_problem.datum_extension(0.0)
        assert weak_residual(p2_problem, v) > 1e-3

    def test_equals_matrix_residual_for_quadratic(self, p2_problem):
        A, b, _, oi = quadratic_oracle(p2_problem)
        rng = np.random.default_rng(11)
        vom = rng.normal(size=oi.size)
        v = p2_problem.datum_extension(vom)
        want = float(np.abs(A @ vom - b).max())
        assert weak_residual(p2_problem, v) == pytest.approx(want, rel=1e-11)

    def test_matches_gradient_components(self, p2_problem):
        rng = np.random.default_rng(12)
        v = p2_problem.datum_extension(
            rng.normal(size=int(p2_problem.omega_mask.sum())))
        g = gradient(p2_problem, v)
        assert weak_residual(p2_problem, v) == pytest.approx(
            float(np.abs(g.values).max()), rel=1e-13)


class TestProblemValidation:
    def test_domain_on_boundary_rejected(self):
        lat = Lattice.from_box([0.0], [2.0], 1.0)
        omega = np.array([True, True, False])
        datum = GridFunction(lat, np.zeros(3), ExteriorModel())
        with pytest.raises(ValueError, match="strictly inside"):
            NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.5,
                            datum, truncation_radius=1.0)

    def test_truncation_beyond_halo_rejected(self):
        lat = Lattice.from_box([0.0], [2.0], 1.0)
        omega = np.array([False, True, False])
        datum = GridFunction(lat, np.zeros(3), ExteriorModel())
        with pytest.raises(ValueError, match="truncation"):
            NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.5,
                            datum, truncation_radius=1.5)

    def test_missing_model_rejected(self):
        lat = Lattice.from_box([0.0], [2.0], 1.0)
        omega = np.array([False, True, False])
        datum = GridFunction(lat, np.zeros(3))
        with pytest.raises(ValueError, match="model"):
            NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.5,
                            datum, truncation_radius=1.0)

    def test_divergent_exterior_energy_rejected(self):
        lat = Lattice.from_box([-2.0], [2.0], 0.5)
        omega = (np.abs(lat.coords[:, 0]) < 0.6)
        model = ExteriorModel(value=1.0, exponent=1.5)
        datum = GridFunction(lat, np.zeros(lat.n_nodes), model)
        with pytest.raises(ValueError, match="diverges"):
            NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.5,
                            datum, truncation_radius=1.0)

    @pytest.mark.parametrize("exponent", [0.25, 0.0])
    def test_overflowing_exterior_model_rejected(self, exponent):
        # G of the far field's level 1e300 leaves the float range
        lat = Lattice.from_box([-2.0], [2.0], 0.5)
        omega = (np.abs(lat.coords[:, 0]) < 0.6)
        model = ExteriorModel(value=1e300, exponent=exponent)
        datum = GridFunction(lat, np.zeros(lat.n_nodes), model)
        with pytest.raises(ValueError, match="^exterior model overflows "
                           "the interaction tail$") as info:
            NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.5,
                            datum, truncation_radius=1.0)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_assemble_requires_quadratic(self):
        prob = line_problem(h=1 / 16, p=3.0)
        with pytest.raises(ValueError):
            assemble_quadratic(prob)

    def test_deterministic_energy(self, p2_problem):
        v = p2_problem.datum_extension(0.25)
        assert energy(p2_problem, v) == energy(p2_problem, v)


class TestTwoDimensional:
    def test_solve_and_oracle_2d(self):
        from helpers import square_problem
        prob = square_problem(h=1 / 8, s=0.5, p=2.0, rext=1.0)
        rep = solve(prob, tol=1e-10)
        assert rep.converged
        A, b, _, oi = quadratic_oracle(prob)
        direct = np.linalg.solve(A, b)
        err = np.abs(rep.minimizer.values[prob.omega_mask] - direct).max()
        assert err < 1e-8


class TestGradedRule:
    def test_power_corners_at_both_ends(self):
        # int_lo^hi ((t - lo)(hi - t))^0.1 dt = L^1.2 B(1.1, 1.1); a
        # zero-length segment gives 0
        lo = np.array([0.0, 2.0, 1.0])
        hi = np.array([1.0, 5.0, 1.0])
        got = integrate_graded(
            lambda t: ((t - lo[:, None]) * (hi[:, None] - t)) ** 0.1, lo, hi,
            sl.FAR_PANELS, sl.FAR_POINTS)
        want = (hi - lo) ** 1.2 * math.gamma(1.1) ** 2 / math.gamma(2.2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_segment_bits_do_not_depend_on_the_batch(self):
        # a segment's integral is the same float alone or among 200
        rng = np.random.default_rng(17)
        lo = rng.uniform(0.0, 1.0, 200)
        hi = lo + rng.uniform(0.0, 2.0, 200)

        def fn(t):
            return np.exp(-t) * np.sqrt(t) + t ** 1.5

        batched = integrate_graded(fn, lo, hi, sl.FAR_PANELS, sl.FAR_POINTS)
        alone = np.concatenate([
            integrate_graded(fn, lo[k:k + 1], hi[k:k + 1], sl.FAR_PANELS,
                             sl.FAR_POINTS) for k in range(lo.size)])
        np.testing.assert_array_equal(batched, alone, strict=True)


class TestRadialRule:
    def test_breakpoint_at_a_kink(self):
        # int_1^inf |rho - 2| rho^-3 drho = 1/4 + 1/4
        got = integrate_radial(lambda rho: np.abs(rho - 2.0) * rho ** -3.0,
                               1.0, 1.0, breaks=(2.0, 0.5))
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_slow_decay_past_the_double_range(self):
        # m = 0.04 sends the nodes nearest tau = 0 past 1.8e308; the
        # share they leave out is (1 / 1.8e308)^m = 5e-13
        got = integrate_radial(lambda rho: rho ** -1.04, 1.0, 0.04)
        assert got == pytest.approx(25.0, rel=1e-12)

    def test_no_decay_diverges(self):
        assert math.isinf(integrate_radial(lambda rho: 1.0 / rho, 1.0, 0.0))


def _far_problem(nf, model, h=1 / 8, r=1.0):
    lat = Lattice.from_box([-0.5 - r - h], [0.5 + r + h], h)
    x = lat.coords[:, 0]
    omega = np.abs(x) < 0.5 + 1e-12
    datum = GridFunction(lat, np.sin(2 * x), model.resolved(lat))
    return NonlocalProblem(lat, omega, nf, Kernel(), 0.5, datum,
                           truncation_radius=r)


def _scipy_far_terms(prob, w):
    """The far energy and gradient of an exterior model f = c rho^a (a
    level model has a = 0 or c = 0), read from its fields, by
    ``scipy.integrate.quad`` in u = log(rho), split at the zero of
    w - f(rho) (geometrically graded when that zero lies just before
    log r) and, for tables, where the tail argument crosses a knot
    (located on a fine u grid and refined by ``brentq``)."""
    model = prob.exterior_datum.exterior
    r, s, nf = prob.truncation_radius, prob.s, prob.nf
    c, a = model.value, model.exponent
    u0 = math.log(r)
    # past u0 + 700 both integrands are below 1e-16 of their peak here
    u_end = u0 + 700.0
    knots = nf.knots
    energies, gradients = [], []
    for wi in w:
        def arg(u):
            rho = np.exp(u)
            return np.abs(wi - c * rho ** a) * rho ** (-s)

        def energy_density(u):
            return float(nf.G(arg(u)))

        def gradient_density(u):
            rho = math.exp(u)
            dw = wi - c * rho ** a
            return float(nf.g(abs(dw) * rho ** (-s))) * math.copysign(
                1.0, dw) * (dw != 0) * rho ** (-s)

        points = []
        if a and wi * c > 0:
            zero = math.log(wi / c) / a
            if zero > u0:
                points.append(zero)
            else:
                # a zero just before u0 leaves a near-singular start:
                # split geometrically away from it
                gap = u0 - zero
                points += [u0 + gap * 2.0 ** k for k in range(60)
                           if 0 < gap * 2.0 ** k < 1.0]
        grid = np.linspace(u0, u_end, 70001)
        values = arg(grid)
        for t in knots:
            side = np.sign(values - t)
            for i in np.flatnonzero(side[:-1] != side[1:]):
                points.append(optimize.brentq(lambda u: arg(u) - t, grid[i],
                                              grid[i + 1], xtol=1e-15,
                                              rtol=1e-15))
        edges = [u0] + sorted(points) + [u_end]
        e = g = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            e += integrate.quad(energy_density, lo, hi, epsabs=0,
                                epsrel=1e-12, limit=400)[0]
            g += integrate.quad(gradient_density, lo, hi, epsabs=0,
                                epsrel=1e-12, limit=400)[0]
        energies.append(e)
        gradients.append(g)
    return prob._far_coef * np.array(energies), \
        prob._far_coef * np.array(gradients)


FAR_PROFILES = {
    "power1.5": lambda: make_power(1.5),
    "power3": lambda: make_power(3.0),
    "power_log": lambda: make_power_log(2.0),
    "table": lambda: make_table([[0.5, 0.4], [1.0, 1.1], [2.0, 2.5],
                                 [4.0, 6.0], [8.0, 13.0]]),
}
POWER_EXTERIOR_PROFILES = {**FAR_PROFILES,
                           "power1.1": lambda: make_power(1.1)}
POWER_EXPONENTS = [-0.3, 0.25, 0.45]
LEVEL_MODELS = {"zero": ExteriorModel(),
                "constant": ExteriorModel(value=0.3)}


class TestFarTail:
    # node values on both sides of the level, at it and next to it
    w = np.array([-2.0, -0.4, 0.0, 0.3, 0.3 + 1e-9, 1.7])
    # the same for the power model f(r) = 0.3 (r = 1), plus 0.1, whose
    # difference w - f changes sign inside the tail for a < 0 (1.7 does
    # for a > 0)
    w_power = np.array([-2.0, -0.4, 0.0, 0.1, 0.3 - 1e-9, 0.3, 0.3 + 1e-9,
                        1.7])

    @pytest.mark.parametrize("model", sorted(LEVEL_MODELS))
    @pytest.mark.parametrize("profile", sorted(FAR_PROFILES))
    def test_substitution_matches_radial_quadrature(self, profile, model):
        prob = _far_problem(FAR_PROFILES[profile](), LEVEL_MODELS[model])
        want_e, want_g = _scipy_far_terms(prob, self.w)
        got_e, got_g = prob._far_tail(self.w, derivative=True)
        np.testing.assert_allclose(got_e, want_e, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got_g, want_g, rtol=1e-10, atol=0)

    def test_gradient_vanishes_at_the_level(self):
        prob = _far_problem(make_power_log(2.0), LEVEL_MODELS["constant"])
        e, g = prob._far_tail(np.array([0.3]), derivative=True)
        assert g[0] == 0.0
        assert e[0] == 0.0

    def test_power_exterior_matches_closed_form(self):
        # p = 2, s = 0.5, r = 1, f = 0.3 rho^0.25: the per-node tail is
        # (1/2) int_1^inf (w - 0.3 rho^0.25)^2 rho^-2 drho
        # = (w^2 - 0.8 w + 0.18)/2
        model = ExteriorModel(value=0.3, exponent=0.25)
        prob = _far_problem(make_power(2.0), model)
        w = np.linspace(-2.0, 2.0, 41)
        cfar = prob._far_coef
        got_e, got_g = prob._far_tail(w, derivative=True)
        np.testing.assert_allclose(got_e,
                                   cfar * 0.5 * (w * w - 0.8 * w + 0.18),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(got_g, cfar * (w - 0.4),
                                   rtol=1e-12, atol=1e-12 * cfar)

    @pytest.mark.parametrize("exponent", POWER_EXPONENTS)
    @pytest.mark.parametrize("profile", sorted(POWER_EXTERIOR_PROFILES))
    def test_power_exterior_matches_scipy_oracle(self, profile, exponent):
        model = ExteriorModel(value=0.3, exponent=exponent)
        prob = _far_problem(POWER_EXTERIOR_PROFILES[profile](), model)
        want_e, want_g = _scipy_far_terms(prob, self.w_power)
        got_e, got_g = prob._far_tail(self.w_power, derivative=True)
        np.testing.assert_allclose(got_e, want_e, rtol=1e-10, atol=0)
        np.testing.assert_allclose(got_g, want_g, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("profile", sorted(FAR_PROFILES))
    def test_zero_exponent_is_the_constant_model(self, profile):
        power = _far_problem(FAR_PROFILES[profile](),
                             ExteriorModel(value=0.3,
                                           exponent=0.0))
        level = _far_problem(FAR_PROFILES[profile](),
                             LEVEL_MODELS["constant"])
        for got, want in zip(power._far_tail(self.w_power, derivative=True),
                             level._far_tail(self.w_power, derivative=True)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("exponent", [-0.3, 0.25])
    @pytest.mark.parametrize("profile", sorted(POWER_EXTERIOR_PROFILES))
    def test_graded_rule_matches_a_refined_rule(self, profile, exponent,
                                                monkeypatch):
        model = ExteriorModel(value=0.3, exponent=exponent)
        prob = _far_problem(POWER_EXTERIOR_PROFILES[profile](), model)
        e, g = prob._far_tail(self.w_power, derivative=True)
        monkeypatch.setattr(sl, "FAR_PANELS", 2 * sl.FAR_PANELS)
        monkeypatch.setattr(sl, "FAR_POINTS", 4 * sl.FAR_POINTS)
        e_fine, g_fine = prob._far_tail(self.w_power, derivative=True)
        np.testing.assert_allclose(e, e_fine, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g, g_fine, rtol=0,
                                   atol=1e-13 * np.abs(g_fine).max())

    def test_power_exterior_solve_converges_quickly(self, tmp_path):
        # with the radial quadrature's biased closure of the tail, this
        # solve took 86 iterations
        cfg = {
            "problem": {
                "dim": 1, "h": 1 / 16,
                "omega": {"lo": [-0.5], "hi": [0.5]}, "s": 0.5,
                "nfunction": {"family": "power", "p": 2.0},
                "kernel": {"form": "pure"},
                "datum": {"family": "sin", "frequency": 2.0,
                          "amplitude": 1.0},
                "exterior": {"kind": "power", "value": 0.3,
                             "exponent": 0.25},
                "truncation_radius": 2.0,
            },
            "pipeline": ["solve"], "seed": 1,
            "solver": {"tol": 1e-11, "initial": "harmonic"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(str(path), out_override=str(out)) == 0
        report = json.loads((out / "SolveReport.json").read_text())
        assert report["converged"]
        assert report["iterations"] <= 50


def _stack_problem(dim, nf, model, r=0.5, kernel=None):
    """Domain [-0.25, 0.25]^dim with a halo of width r + h, s = 0.5 and
    a sin datum under the exterior ``model``; about a thousand pairs
    (h = 1/64 in 1-D, 1/8 in 2-D)."""
    h = 1 / 64 if dim == 1 else 1 / 8
    lat = Lattice.from_box([-0.25 - r - h] * dim, [0.25 + r + h] * dim, h)
    x = lat.coords
    omega = np.all(np.abs(x) < 0.25 + 1e-12, axis=1)
    datum = GridFunction(lat, np.sin(2 * x.sum(axis=1)), model.resolved(lat))
    return NonlocalProblem(lat, omega, nf, kernel or Kernel(), 0.5, datum,
                           truncation_radius=r)


def _noisy_stack(prob, n_cand, rng):
    """(n_cand, nodes) copies of the datum plus noise in [-0.25, 0.25] on
    the domain: the pair arguments stay inside the table's range."""
    V = np.tile(prob.exterior_datum.values, (n_cand, 1))
    V[:, prob.omega_mask] += rng.uniform(
        -0.25, 0.25, size=(n_cand, int(prob.omega_mask.sum())))
    return V


STACK_PROFILES = {
    "power1.5": lambda: make_power(1.5),
    "power2": lambda: make_power(2.0),
    "power3": lambda: make_power(3.0),
    "power_log2": lambda: make_power_log(2.0),
    "table": FAR_PROFILES["table"],
}
STACK_MODELS = {
    "constant": ExteriorModel(value=0.3),
    "power0.25": ExteriorModel(value=0.3, exponent=0.25),
    "power-0.3": ExteriorModel(value=0.3, exponent=-0.3),
}


class TestEnergies:
    """``_energies`` scores a stack of candidates in one blocked pass; each
    row, and the energy of that candidate alone, is the unblocked
    pair sum up to summation order."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("model", sorted(STACK_MODELS))
    @pytest.mark.parametrize("profile", sorted(STACK_PROFILES))
    def test_rows_match_single_energies(self, profile, model, dim,
                                        monkeypatch):
        prob = _stack_problem(dim, STACK_PROFILES[profile](),
                              STACK_MODELS[model])
        n_pairs = prob._pairs[0].size
        # small blocks: several per pass, the last one partial
        monkeypatch.setattr(pairs, "PAIR_BLOCK", 700)
        rng = np.random.default_rng(dim)
        for n_cand in (1, 7, 100):
            rows = 700 // n_cand
            assert n_pairs > rows and n_pairs % rows
            V = _noisy_stack(prob, n_cand, rng)
            want = [energy_reference(prob, v) for v in V]
            np.testing.assert_allclose(sl._energies(prob, V), want,
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose([energy_values(prob, v) for v in V],
                                       want, rtol=1e-13, atol=0)


WEIGHTED = Kernel.from_config({"form": "weighted", "lambda": 0.5,
                               "Lambda": 2.0, "frequency": 2.0})


class TestEnergyGradient:
    """``_energy_gradient`` gives the energy and the domain gradient in one
    walk over the pairs: bitwise the energy of a stack of one
    (``_energies``) and the unblocked gradient (``gradient_reference``)."""

    @pytest.mark.parametrize("kernel", ["pure", "weighted"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("model", ["constant", "power0.25"])
    @pytest.mark.parametrize("profile", sorted(STACK_PROFILES))
    def test_matches_energy_and_reference_gradient(self, profile, model, dim,
                                                   kernel, monkeypatch):
        prob = _stack_problem(dim, STACK_PROFILES[profile](),
                              STACK_MODELS[model],
                              kernel=WEIGHTED if kernel == "weighted"
                              else None)
        # several blocks per pass, the last one partial
        monkeypatch.setattr(pairs, "PAIR_BLOCK", 700)
        assert prob._pairs[0].size % 700
        for vals in _noisy_stack(prob, 3, np.random.default_rng(dim)):
            e, g = sl._energy_gradient(prob, vals)
            assert e == energy_values(prob, vals)
            np.testing.assert_array_equal(g, gradient_reference(prob, vals),
                                          strict=True)


class TestDomainCheck:
    """A pair pass bounds every argument t = |v(x) - v(y)| d^(-s) once, by
    (max V - min V) max d^(-s).  Within the profile's domain the blocks
    skip its domain check, with the same bits; past it they take the
    checked G and g, which raise as on every block before."""

    @pytest.mark.parametrize("profile", sorted(STACK_PROFILES))
    def test_bounded_pass_skips_the_check_and_keeps_the_bits(
            self, profile, monkeypatch):
        prob = _stack_problem(2, STACK_PROFILES[profile](),
                              STACK_MODELS["constant"])
        monkeypatch.setattr(pairs, "PAIR_BLOCK", 700)
        Vt = np.ascontiguousarray(
            _noisy_stack(prob, 7, np.random.default_rng(3)).T)
        checks = []
        real = nfm._check_domain

        def spy(t, *args):
            checks.append(t.size)
            return real(t, *args)

        monkeypatch.setattr(nfm, "_check_domain", spy)
        fast = sl._pair_energies(prob, Vt)
        assert checks == []
        # a bound below 0 sends every pass through the checked G
        monkeypatch.setattr(sl, "REPRESENTABLE_MAX", -1.0)
        checked = sl._pair_energies(prob, Vt)
        assert len(checks) > 1
        np.testing.assert_array_equal(fast, checked, strict=True)

    def test_unbounded_pass_raises_as_before(self):
        prob = _stack_problem(1, make_power(1.5), STACK_MODELS["constant"])
        vals = prob.exterior_datum.values.copy()
        vals[np.flatnonzero(prob.omega_mask)[0]] = 1e31
        with pytest.raises(OverflowError, match="representable range"):
            sl._pair_energies(prob, vals[:, None])
        with pytest.raises(OverflowError, match="representable range"):
            sl._energy_gradient(prob, vals)


class TestLocalEnergies:
    """``verify:gradient_fd`` differences only the energy terms that
    contain the probed node (``_local_energies``).  Its central
    differences agree with those of the whole energy
    (``central_differences_full``) within the rounding allowance the
    stage gave the latter, FD_ROUNDING eps_mach (|E+| + |E-|) / (2 h)."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("model", sorted(STACK_MODELS))
    @pytest.mark.parametrize("profile", sorted(STACK_PROFILES))
    def test_differences_match_full_energy(self, profile, model, dim):
        prob = _stack_problem(dim, STACK_PROFILES[profile](),
                              STACK_MODELS[model])
        rng = np.random.default_rng(dim)
        vals = prob.exterior_datum.values.copy()
        vals[prob.omega_mask] += rng.uniform(
            -0.25, 0.25, size=int(prob.omega_mask.sum()))
        nodes = rng.choice(np.flatnonzero(prob.omega_mask), 12,
                           replace=False)
        eps = 1e-6 * max(1.0, float(np.abs(vals).max()))
        lp, lm = sl._local_energies(prob, vals, nodes, eps)
        fp, fm = central_differences_full(prob, vals, nodes, eps)
        allowance = FD_ROUNDING * np.finfo(float).eps * (fp + fm) / (2 * eps)
        gap = np.abs((lp - lm) - (fp - fm)) / (2 * eps)
        assert np.all(gap <= allowance)
        # the terms that contain a node are a part of the energy
        assert np.all((0.0 < lp) & (lp < fp) & (0.0 < lm) & (lm < fm))


ORACLE_PROFILES = {**{k: STACK_PROFILES[k]
                      for k in ("power1.5", "power2", "power3", "power_log2")},
                   "kinked_table": lambda: make_table(KINKED_TABLE)}
ORACLE_MODELS = {**LEVEL_MODELS,
                 **{f"power{a}": ExteriorModel(value=0.3, exponent=a)
                    for a in POWER_EXPONENTS}}


class TestSolverResidual:
    """The solver's residual is the weak residual of its minimizer, bit
    for bit: the solve and the checks read one gradient
    (``_energy_gradient``)."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("model", ["constant", "power0.25"])
    @pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
    def test_descent(self, profile, model, dim):
        # converged or stopped at max_iter (2-D p = 1.5 crawls), the
        # residual is that of the last accepted trial
        prob = _stack_problem(dim, ORACLE_PROFILES[profile](),
                              STACK_MODELS[model])
        rep = solve(prob, tol=1e-9, max_iter=50)
        assert rep.iterations > 0
        assert weak_residual(prob, rep.minimizer) == rep.residual_norm

    @pytest.mark.parametrize("make", [lambda: line_problem(datum=2.5),
                                      lambda: square_problem(datum=2.5)],
                             ids=["1d", "2d"])
    def test_constant_datum(self, make):
        prob = make()
        rep = solve(prob, tol=1e-9)
        assert rep.converged and rep.iterations == 0
        assert weak_residual(prob, rep.minimizer) == rep.residual_norm

    @pytest.mark.parametrize("dim", [1, 2])
    def test_line_search_failure(self, dim, monkeypatch):
        monkeypatch.setattr(sl, "MAX_BACKTRACKS", 0)
        prob = _stack_problem(dim, make_power(3.0),
                              STACK_MODELS["power0.25"])
        rep = solve(prob, tol=1e-9)
        assert rep.line_search_failures == 1 and not rep.converged
        assert rep.residual_norm > 0.0
        assert weak_residual(prob, rep.minimizer) == rep.residual_norm


class TestFarTailOneWalk:
    """``_far_tail`` gives the tail energy and its derivative from one
    walk: bitwise the two walks it replaced (``far_terms_reference``),
    and an energy-only call is bitwise the energy half."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
    @pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
    def test_matches_the_two_walks(self, profile, model, dim):
        prob = _stack_problem(dim, ORACLE_PROFILES[profile](),
                              ORACLE_MODELS[model])
        # a noisy stack, plus values at the far level 0.3 and next to it
        w = np.concatenate([
            _noisy_stack(prob, 7, np.random.default_rng(dim))[
                :, prob.omega_mask].ravel(), TestFarTail.w_power])
        want = far_terms_reference(prob, w)
        got = prob._far_tail(w, derivative=True)
        assert isinstance(got, tuple) and len(got) == 2
        for g, wnt in zip(got, want):
            np.testing.assert_array_equal(g, wnt, strict=True)
        np.testing.assert_array_equal(prob._far_tail(w), want[0],
                                      strict=True)

    @pytest.mark.parametrize("model", ["power0.25", "power-0.3"])
    def test_one_layout_per_energy_gradient(self, model, monkeypatch):
        prob = _stack_problem(1, make_table(KINKED_TABLE),
                              STACK_MODELS[model])
        real = sl._knot_crossings
        calls = []

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sl, "_knot_crossings", spy)
        vals = _noisy_stack(prob, 1, np.random.default_rng(4))[0]
        sl._energy_gradient(prob, vals)
        assert len(calls) == 1


class TestFarBlocks:
    """The power-exterior tail walks its segments in blocks of at most
    ``BLOCK_NODES`` quadrature nodes per integrand, so a stack of
    candidates never builds a larger quadrature array than one block; a
    segment's integral has the same bits in any block.  A walk for the
    energy and its derivative maps the rule onto a block once."""

    @pytest.mark.parametrize("model", ["power0.25", "power-0.3"])
    @pytest.mark.parametrize("profile", ["power2", "table"])
    def test_blocks_bound_the_rule_and_keep_the_bits(self, profile, model,
                                                     monkeypatch):
        prob = _stack_problem(2, STACK_PROFILES[profile](),
                              STACK_MODELS[model])
        rng = np.random.default_rng(5)
        w = np.tile(prob.exterior_datum.values[prob.omega_mask], 7) \
            + rng.uniform(-0.25, 0.25, size=7 * int(prob.omega_mask.sum()))
        real = sl.integrate_graded
        sizes = []

        def spy(fn, lo, hi, panels, npts):
            sizes.append(lo.size)
            return real(fn, lo, hi, panels, npts)

        monkeypatch.setattr(sl, "integrate_graded", spy)
        monkeypatch.setattr(sl, "BLOCK_NODES", 2**40)
        whole = prob._far_tail(w, derivative=True)
        n_seg = sizes[0]
        assert sizes == [n_seg]
        # several blocks per call, the last one partial
        rows = next(k for k in range(3, 12) if n_seg % k)
        per_rule = 2 * sl.FAR_PANELS * sl.FAR_POINTS
        monkeypatch.setattr(sl, "BLOCK_NODES", rows * per_rule)
        sizes.clear()
        blocked = prob._far_tail(w, derivative=True)
        assert sizes == [rows] * (n_seg // rows) + [n_seg % rows]
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got, want, strict=True)
        np.testing.assert_array_equal(prob._far_tail(w), whole[0],
                                      strict=True)


class TestSurrogateAssembly:
    """The surrogate assigns each off-diagonal entry and accumulates the
    diagonal in a vector: bitwise the assembly by ``np.add.at`` on A.  It
    walks the pairs in blocks of ``pairs.PAIR_BLOCK``; only the constant,
    summed block by block, may then move at rounding level."""

    @staticmethod
    def _problem(case):
        if case == "2d":
            return square_problem(h=1 / 8, rext=0.5)
        kernel = None if case == "1d" else WEIGHTED
        return line_problem(h=1 / 16, datum="sin", kernel=kernel)

    @pytest.mark.parametrize("case", ["1d", "2d", "weighted"])
    def test_matches_add_at_reference(self, case):
        prob = self._problem(case)
        A, b, const, _ = sl._assemble_surrogate(prob)
        A_ref, b_ref, const_ref = surrogate_add_at_reference(prob)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(b, b_ref)
        assert const == const_ref

    @pytest.mark.parametrize("case", ["1d", "2d", "weighted"])
    def test_blocks_keep_the_bits_of_a_and_b(self, case, monkeypatch):
        prob = self._problem(case)
        # several blocks per walk, the last one partial
        monkeypatch.setattr(pairs, "PAIR_BLOCK", 300)
        assert prob._pairs[0].size > 600 and prob._pairs[0].size % 300
        A, b, const, _ = sl._assemble_surrogate(prob)
        A_ref, b_ref, const_ref = surrogate_add_at_reference(prob)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(b, b_ref)
        assert const == pytest.approx(const_ref, rel=1e-14, abs=0)
