"""The offset-table pair build against the dense construction it
replaced, the ball sums' tiles against coordinate norms, and the chunk
budget as a pure memory knob."""

import math
import tracemalloc

import numpy as np
import pytest

import fracglap.pairs as pairs
from fracglap import (Ball, Cutoff, ExteriorModel, GridFunction, Kernel,
                      Lattice, NonlocalProblem, boundedness_check,
                      caccioppoli_check, gagliardo_modular, holder_decay_fit,
                      log_estimate_check, make_power)
from fracglap.regularity import _truncation_far_tail

from helpers import (coordinate_distance_blocks, naive_caccioppoli,
                     naive_pair_sum, pair_distances)


def dense_pairs(prob):
    """The dense row-chunked build: distances from an N_omega x N
    coordinate-difference matrix, kept here as the oracle."""
    lat = prob.lattice
    coords = lat.coords
    omega_idx = np.flatnonzero(prob.omega_mask)
    ia_list, ja_list, d_list = [], [], []
    chunk = max(1, int(2**22 / max(1, lat.n_nodes)))
    for start in range(0, omega_idx.size, chunk):
        rows = omega_idx[start:start + chunk]
        d = np.linalg.norm(coords[rows, None, :] - coords[None, :, :], axis=2)
        keep = (d > 0) & (d <= prob.truncation_radius + 1e-12)
        keep &= prob.halo_mask[None, :] | (np.arange(lat.n_nodes)[None, :]
                                           > rows[:, None])
        r, c = np.nonzero(keep)
        ia_list.append(rows[r])
        ja_list.append(c)
        d_list.append(d[keep])
    ia = np.concatenate(ia_list)
    ja = np.concatenate(ja_list)
    dist = np.concatenate(d_list)
    kvals = prob.kernel.pair_values(coords[ia], coords[ja], dist)
    weight = 2.0 * kvals * lat.h ** (2 * lat.dim)
    return ia, ja, dist, weight


WEIGHTED = {"form": "weighted", "lambda": 0.5, "Lambda": 2.0,
            "frequency": 3.0}


def box_problem(dim, h, rext, kernel=None, half=0.5, s=0.5):
    """Instance on the cube (-half, half)^dim with a halo of width rext
    rounded up to the lattice."""
    pad = math.ceil(rext / h + 1e-9) * h
    lat = Lattice.from_box([-half - pad] * dim, [half + pad] * dim, h)
    x = lat.coords
    omega = np.all((x > -half - 1e-12) & (x < half + 1e-12), axis=1)
    f = np.sin(2.0 * x.sum(axis=1)) + 0.1 * x[:, 0]
    model = ExteriorModel(value=float(f[-1]))
    kernel = Kernel() if kernel is None else Kernel.from_config(kernel)
    return NonlocalProblem(lat, omega, make_power(2.0), kernel, s,
                           GridFunction(lat, f, model),
                           truncation_radius=rext)


def pair_layout(prob):
    """(ia, ja, dist, weight) with each pair's distance expanded from the
    per-shift table, the layout of ``dense_pairs``."""
    ia, ja, _, weight = prob._pairs
    return ia, ja, pair_distances(prob), weight


def assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("dim, h, rext, kernel", [
    (1, 1 / 32, 2.0, None),
    (1, 1 / 16, 0.77, WEIGHTED),        # r / h = 12.32
    (2, 1 / 8, 0.5, None),
    (2, 1 / 8, 0.45, WEIGHTED),         # r / h = 3.6
    (2, 1 / 16, 0.3, None),             # r / h = 4.8
    (3, 1 / 4, 0.6, None),              # r / h = 2.4
    (3, 1 / 4, 0.5, WEIGHTED),
])
def test_offset_build_matches_dense(dim, h, rext, kernel):
    prob = box_problem(dim, h, rext, kernel)
    assert_bitwise(pair_layout(prob), dense_pairs(prob))


def test_offset_build_matches_dense_irregular_domain():
    # a domain that is not a box still yields the dense pair set
    lat = Lattice.from_box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
    omega = np.linalg.norm(lat.coords, axis=1) < 0.4
    f = np.cos(lat.coords[:, 1])
    prob = NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.3,
                           GridFunction(lat, f, ExteriorModel()),
                           truncation_radius=0.55)
    assert_bitwise(pair_layout(prob), dense_pairs(prob))


def test_stencil_is_sorted_and_within_radius():
    # a one-node domain: its pairs are the whole stencil, all to the halo
    lat = Lattice.from_box([0.0, 0.0], [4.0, 3.0], 0.25)
    stride = lat.counts[1]
    centre = 8 * stride + 6
    omega = np.zeros(lat.n_nodes, dtype=bool)
    omega[centre] = True
    ia, ja, table = pairs.truncated_pairs(lat, omega, 0.6)
    assert np.all(ia == centre)
    shifts = ja - ia
    assert np.all(np.diff(shifts) > 0)
    # the stencil is symmetric, and its shifts are the finite entries of
    # the per-shift table, centred on shift 0
    np.testing.assert_array_equal(shifts, -shifts[::-1])
    np.testing.assert_array_equal(
        np.flatnonzero(np.isfinite(table)) - table.size // 2, shifts)
    dist = pairs.shift_values(table, ia, ja)
    # 0.6 / 0.25 = 2.4: every k != 0 with |k| <= 2.4 (20 offsets)
    assert shifts.size == 20
    k0, k1 = np.divmod(shifts + 2 * stride + 2, stride)
    ks = np.stack([k0 - 2, k1 - 2], axis=1)
    assert np.all(np.sum(ks * ks, axis=1) * 0.25 ** 2 <= 0.6 ** 2)
    assert np.all(dist <= 0.6)


@pytest.mark.parametrize("dim, h, rext, kernel", [
    (1, 0.1, 0.65, None),
    (1, 1 / 12, 0.7, WEIGHTED),
    (2, 0.1, 0.35, WEIGHTED),
    (2, 1 / 12, 0.3, None),
])
def test_non_dyadic_spacing(dim, h, rext, kernel):
    # coordinate differences round at these spacings; the offset table
    # gives every offset one distance
    prob = box_problem(dim, h, rext, kernel)
    ia, ja, dist, weight = pair_layout(prob)
    dia, dja, ddist, dweight = dense_pairs(prob)
    assert_bitwise((ia, ja), (dia, dja))
    shift, first = np.unique(ja - ia, return_inverse=True)
    one = np.full(shift.size, np.nan)
    one[first] = dist
    np.testing.assert_array_equal(dist, one[first])
    np.testing.assert_allclose(dist, ddist, rtol=4e-15, atol=0)
    np.testing.assert_allclose(weight, dweight, rtol=1e-13, atol=0)


def _checks(prob):
    u = prob.exterior_datum
    x0 = tuple(0.0 for _ in range(prob.lattice.dim))
    cac, = caccioppoli_check(u, Ball(x0, 0.4), [(0.1, "plus")],
                             Cutoff(0.15, 0.3), prob.s, prob.nf)
    gm = gagliardo_modular([u], Ball(x0, 0.45), prob.s, prob.nf)[0]
    return cac.to_dict(), gm


@pytest.mark.parametrize("dim, h, rext", [(1, 1 / 32, 1.0), (2, 1 / 16, 0.5)])
def test_tiny_chunk_budget_changes_nothing(monkeypatch, dim, h, rext):
    ref = box_problem(dim, h, rext)
    ref_pairs = ref._pairs
    ref_checks = _checks(ref)
    monkeypatch.setattr(pairs, "PAIR_BLOCK", 5)
    tiny = box_problem(dim, h, rext)
    assert_bitwise(tiny._pairs, ref_pairs)
    assert _checks(tiny) == ref_checks


def test_build_writes_the_pairs_in_place(monkeypatch):
    # the pair ends are counted first and written into their arrays, so
    # the build holds them once, plus a byte per candidate pair for the
    # block masks and blocks of PAIR_BLOCK entries
    monkeypatch.setattr(pairs, "PAIR_BLOCK", 2**12)
    prob = box_problem(2, 1 / 32, 0.5)
    tracemalloc.start()
    try:
        ia, ja, _ = pairs.truncated_pairs(
            prob.lattice, prob.omega_mask, prob.truncation_radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ia.size > 100 * 2**12
    assert peak < 1.2 * (ia.nbytes + ja.nbytes)
    assert_bitwise((ia, ja), prob._pairs[:2])


def test_shift_values_gather_in_blocks(monkeypatch):
    # a value per shift reads the same bits on every pair of that shift,
    # in any block size
    prob = box_problem(2, 1 / 8, 0.5, WEIGHTED)
    ia, ja, dist, _ = prob._pairs
    table = np.sin(np.arange(dist.size) * 0.37)
    want = table[ja - ia + dist.size // 2]
    monkeypatch.setattr(pairs, "PAIR_BLOCK", 37)
    assert ia.size % 37
    np.testing.assert_array_equal(pairs.shift_values(table, ia, ja), want,
                                  strict=True)
    assert np.all(np.isinf(dist[dist.size // 2]))


# 25 problems with weighted kernels: 1-D, 2-D and 3-D, dyadic h and
# h = 0.1 and 1/3, s from 0.3 to 0.9
INV_DS_CASES = [(dim, h, rext, s)
                for dim, h, rext in [(1, 1 / 32, 0.5), (1, 1 / 3, 0.5),
                                     (2, 1 / 16, 0.25), (2, 0.1, 0.3),
                                     (3, 1 / 8, 0.25)]
                for s in (0.3, 0.45, 0.6, 0.75, 0.9)]


@pytest.mark.parametrize("dim, h, rext, s", INV_DS_CASES)
def test_largest_inverse_distance_power_is_read_off_the_lattice(dim, h,
                                                                 rext, s):
    # the nearest offset is at distance h, and the closed form takes the
    # array power that the pairs' d^(-s) takes, bit for bit
    prob = box_problem(dim, h, rext, WEIGHTED, s=s)
    assert prob._inv_ds_max == prob._inv_ds.max()


def test_offset_blocks_bounded(monkeypatch):
    # a block holds at most TILE^2 indices; the gathered distances are the
    # coordinate norms
    monkeypatch.setattr(pairs, "TILE", 8)
    lat = Lattice.from_box([0.0, 0.0], [1.0, 0.75], 0.125)
    rng = np.random.default_rng(0)
    ia = rng.choice(lat.n_nodes, 50, replace=False)
    ib = rng.choice(lat.n_nodes, 20, replace=False)
    table = pairs.OffsetTable(lat)
    assert table.dist.size == (2 * 9 - 1) * (2 * 7 - 1)
    blocks = list(table.blocks(ia, ib))
    assert all(kc.size <= 64 for _, kc in blocks)
    assert all(kc.shape == (3, 20) for _, kc in blocks[:-1])
    x = lat.coords
    full = np.linalg.norm(x[ia, None, :] - x[None, ib, :], axis=2)
    got = table.dist.take(np.vstack([kc for _, kc in blocks]))
    np.testing.assert_array_equal(got, np.where(full > 0, full, np.inf))


def test_offset_tiles_cover_each_unordered_pair_once(monkeypatch):
    # 50 nodes in tiles of 7: 8 tile rows, the last of one node; the
    # tiles at or right of the diagonal, row by row, off-diagonal ones
    # counted twice
    monkeypatch.setattr(pairs, "TILE", 7)
    lat = Lattice.from_box([0.0, 0.0], [1.0, 0.75], 0.125)
    idx = np.random.default_rng(1).choice(lat.n_nodes, 50, replace=False)
    table = pairs.OffsetTable(lat)
    tiles = list(table.tiles(idx))
    starts = [(rows.start, cols.start) for rows, cols, _, _ in tiles]
    assert starts == [(i, j) for i in range(0, 50, 7)
                      for j in range(i, 50, 7)]
    x = lat.coords[idx]
    full = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    full[full == 0] = np.inf
    weight = np.zeros((50, 50))
    for rows, cols, kc, mult in tiles:
        assert kc.shape == (len(range(50)[rows]), len(range(50)[cols]))
        assert mult == (1.0 if rows == cols else 2.0)
        np.testing.assert_array_equal(table.dist.take(kc), full[rows, cols])
        weight[rows, cols] += mult
    assert {kc.shape for _, _, kc, _ in tiles} == {(7, 7), (7, 1), (1, 1)}
    # each ordered pair once: in a diagonal tile itself, off the diagonal
    # through its mirror's weight 2
    np.testing.assert_array_equal(weight + weight.T, np.full((50, 50), 2.0))


# non-dyadic spacings in 1-D and 2-D, whose coordinate differences round
SPACING = {1: 1 / 40, 2: 1 / 12, 3: 1 / 8}
CENTER = {1: (0.013,), 2: (0.013, -0.029), 3: (0.013, -0.029, 0.041)}


def grid_function(dim, half):
    """A positive smooth function on the cube (-half, half)^dim with a
    constant exterior model."""
    lat = Lattice.from_box([-half] * dim, [half] * dim, SPACING[dim])
    x = lat.coords
    vals = 1.2 + 0.5 * np.sin(3.0 * x.sum(axis=1)) + 0.3 * x[:, 0] ** 2
    return GridFunction(lat, vals, ExteriorModel(value=0.3))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_caccioppoli_matches_coordinate_oracle(dim):
    u = grid_function(dim, 1.0)
    nf, s = make_power(2.5), 0.4
    ball = Ball(CENTER[dim], 0.6)
    cutoff = Cutoff(0.3, 0.51)
    levels = np.quantile(u.values[u.lattice.select(ball)], [0.25, 0.5, 0.75])
    for k in levels:
        for sign in ("plus", "minus"):
            rep, = caccioppoli_check(u, ball, [(k, sign)], cutoff, s, nf)
            lhs, cut, lip, sup = naive_caccioppoli(u, ball, k, cutoff, sign,
                                                   s, nf)
            far = _truncation_far_tail(u, np.asarray(ball.center), 0.6, k,
                                       sign, s, nf)
            assert rep.lhs == pytest.approx(lhs, rel=1e-13)
            assert rep.rhs_terms["cutoff_term"] == pytest.approx(cut,
                                                                 rel=1e-13)
            assert rep.details["discrete_lipschitz"] == pytest.approx(
                lip, rel=1e-13)
            assert rep.details["sup_tail"] == pytest.approx(sup + far,
                                                            rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("region", ["ball", None])
def test_gagliardo_modular_matches_coordinate_oracle(dim, region):
    # the whole box is kept small in 3-D
    u = grid_function(dim, 1.0 if region else 0.5)
    nf, s, n = make_power(1.5), 0.6, dim
    reg = Ball(CENTER[dim], 0.7) if region else None
    idx = np.flatnonzero(u.lattice.select(reg))
    want = naive_pair_sum(u, idx, lambda dv, d: nf.G(dv / d ** s) / d ** n) \
        * u.lattice.h ** (2 * n)
    got, = gagliardo_modular([u], reg, s, nf)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_log_estimate_matches_coordinate_oracle(dim):
    u = grid_function(dim, 1.0)
    nf, s, n, dshift = make_power(2.0), 0.5, dim, 0.1
    x0, r = np.asarray(CENTER[dim]), 0.4
    rep = log_estimate_check(u, x0, r, 0.9, dshift, nf, s)
    idx = np.flatnonzero(np.linalg.norm(u.lattice.coords - x0, axis=1)
                         <= r + 1e-12)
    logs = GridFunction(u.lattice, np.log(u.values + dshift))
    want = naive_pair_sum(logs, idx, lambda dl, d: dl / d ** n) \
        * u.lattice.h ** (2 * n)
    assert rep.lhs == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_holder_seminorm_matches_coordinate_oracle(dim):
    u = grid_function(dim, 1.0)
    x0, r0 = np.asarray(CENTER[dim]), 0.45
    nf = make_power(2.0)
    brep = boundedness_check(u, Ball(tuple(x0), 2 * r0), 0.5, nf)
    [res] = holder_decay_fit(u, brep, [0.8], 6, 0.5, nf)
    assert res.alpha_hat > 0
    half = np.flatnonzero(np.linalg.norm(u.lattice.coords - x0, axis=1)
                          <= r0 + 1e-12)
    x, v = u.lattice.coords[half], u.values[half]
    want = 0.0
    for sl, d in coordinate_distance_blocks(x, x):
        off = d > 0
        quot = np.abs(v[sl, None] - v[None, :])[off] / d[off] ** res.alpha_hat
        want = max(want, quot.max())
    assert res.holder_seminorm == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_small_tiles_match_coordinate_oracle(monkeypatch, dim):
    # tiles of edge 7: several tile rows, most walks with a partial last
    # one (48, 162 and 464 Caccioppoli nodes), and one-row tail blocks
    monkeypatch.setattr(pairs, "TILE", 7)
    test_caccioppoli_matches_coordinate_oracle(dim)
    for region in ("ball", None):
        test_gagliardo_modular_matches_coordinate_oracle(dim, region)
    test_log_estimate_matches_coordinate_oracle(dim)
    test_holder_seminorm_matches_coordinate_oracle(dim)
