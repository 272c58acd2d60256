"""The offset-stencil pair build against the dense construction it
replaced, and the chunk budget as a pure memory knob."""

import math

import numpy as np
import pytest

import fracglap.pairs as pairs
from fracglap import (Ball, Cutoff, ExteriorModel, GridFunction, Kernel,
                      Lattice, NonlocalProblem, caccioppoli_check,
                      gagliardo_modular, make_power)


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


def box_problem(dim, h, rext, kernel=None, half=0.5):
    """Instance on the cube (-half, half)^dim with a halo of width rext
    rounded up to the lattice."""
    pad = math.ceil(rext / h + 1e-9) * h
    lat = Lattice.from_box([-half - pad] * dim, [half + pad] * dim, h)
    x = lat.coords
    omega = np.all((x > -half - 1e-12) & (x < half + 1e-12), axis=1)
    f = np.sin(2.0 * x.sum(axis=1)) + 0.1 * x[:, 0]
    model = ExteriorModel(kind="constant", value=float(f[-1]))
    kernel = Kernel() if kernel is None else Kernel.from_config(kernel)
    return NonlocalProblem(lat, omega, make_power(2.0), kernel, 0.5,
                           GridFunction(lat, f, model),
                           truncation_radius=rext)


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
    assert_bitwise(prob._pairs, dense_pairs(prob))


def test_offset_build_matches_dense_irregular_domain():
    # a domain that is not a box still yields the dense pair set
    lat = Lattice.from_box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
    omega = np.linalg.norm(lat.coords, axis=1) < 0.4
    f = np.cos(lat.coords[:, 1])
    prob = NonlocalProblem(lat, omega, make_power(2.0), Kernel(), 0.3,
                           GridFunction(lat, f, ExteriorModel(kind="zero")),
                           truncation_radius=0.55)
    assert_bitwise(prob._pairs, dense_pairs(prob))


def test_stencil_is_sorted_and_within_radius():
    lat = Lattice.from_box([0.0, 0.0], [4.0, 3.0], 0.25)
    shifts = pairs.offset_stencil(lat, 0.6)
    assert np.all(np.diff(shifts) > 0)
    # 0.6 / 0.25 = 2.4: every k with |k| <= 2.4 (21 offsets, 0 included)
    assert shifts.size == 21
    stride = lat.counts[1]
    k0, k1 = np.divmod(shifts + 2 * stride + 2, stride)
    ks = np.stack([k0 - 2, k1 - 2], axis=1)
    assert np.all(np.sum(ks * ks, axis=1) * 0.25 ** 2 <= 0.6 ** 2)


def _checks(prob):
    u = prob.exterior_datum
    x0 = tuple(0.0 for _ in range(prob.lattice.dim))
    cac = caccioppoli_check(u, Ball(x0, 0.4), 0.1, Cutoff(0.15, 0.3), "plus",
                            prob.s, prob.nf)
    gm = gagliardo_modular(u, Ball(x0, 0.45), prob.s, prob.nf)
    return cac.to_dict(), gm


@pytest.mark.parametrize("dim, h, rext", [(1, 1 / 32, 1.0), (2, 1 / 16, 0.5)])
def test_tiny_chunk_budget_changes_nothing(monkeypatch, dim, h, rext):
    ref = box_problem(dim, h, rext)
    ref_pairs = ref._pairs
    ref_checks = _checks(ref)
    monkeypatch.setattr(pairs, "CHUNK_ELEMENTS", 5)
    tiny = box_problem(dim, h, rext)
    assert_bitwise(tiny._pairs, ref_pairs)
    assert _checks(tiny) == ref_checks


def test_distance_blocks_bounded(monkeypatch):
    monkeypatch.setattr(pairs, "CHUNK_ELEMENTS", 64)
    xa = np.random.default_rng(0).normal(size=(50, 2))
    xb = np.random.default_rng(1).normal(size=(20, 2))
    blocks = list(pairs.distance_blocks(xa, xb))
    assert all(d.shape == (1, 20) for _, d in blocks)
    full = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=2)
    np.testing.assert_array_equal(np.vstack([d for _, d in blocks]), full)
