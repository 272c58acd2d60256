"""Lattice pair enumeration with bounded temporaries.

Two routines serve every pairwise sum in the package:

* ``truncated_pairs`` builds the solver's pair set (pairs with an end in
  the domain, within the truncation radius) from the integer offset
  stencil |k|_inf <= floor(r / h): each stencil offset is one flat-index
  shift, so the build never forms a distance matrix.
* ``OffsetTable`` serves the O(m^2) ball sums of the estimate checks:
  on a lattice |x - y| = h |k| depends only on the integer offset k, so
  one table holds h |k| for every offset, a caller raises it to the
  powers it needs once per call, and row blocks of integer table
  indices gather them for two node sets.

No temporary grows past ``CHUNK_ELEMENTS`` entries, except the row
blocks whose height a caller fixes (a block is then the summation unit
of a reported sum, so its height is part of the result).
"""

from __future__ import annotations

import math

import numpy as np

CHUNK_ELEMENTS = 2**18
# row-block height of the ball sums whose blocks are summation units
BALL_ROWS = 512


def offset_stencil(lattice, radius):
    """Flat-index shifts of the integer offsets k with |k|_inf <=
    floor(radius / h) and h |k| <= radius (with a rounding margin), in
    increasing order."""
    h = lattice.h
    m = int(math.floor((radius + 1e-12) / h + 1e-9))
    axis = np.arange(-m, m + 1)
    ks = np.stack([g.ravel() for g in np.meshgrid(*[axis] * lattice.dim,
                                                  indexing="ij")], axis=1)
    # drops only offsets more than 1e-6 h past the radius in exact
    # arithmetic; the cut-off test itself is on node coordinates
    reach = (radius + 1e-12) / h + 1e-6
    ks = ks[np.sum(ks * ks, axis=1) <= reach * reach]
    strides = np.ones(lattice.dim, dtype=np.int64)
    for d in range(lattice.dim - 2, -1, -1):
        strides[d] = strides[d + 1] * lattice.counts[d + 1]
    return np.sort(ks @ strides)


def truncated_pairs(lattice, omega_mask, radius):
    """(ia, ja, dist) of the unordered node pairs with an end in the
    domain and 0 < |x_i - x_j| <= radius, in (i, j) order; a pair of two
    domain nodes appears once, with j > i.

    Flat indices are shifted without wrapping around the box: the caller
    guarantees that every domain node has lattice nodes up to ``radius``
    in each direction (``NonlocalProblem`` checks this margin), so
    i + shift is the node at offset k for every stencil offset.
    """
    coords = lattice.coords
    halo = ~omega_mask
    shifts = offset_stencil(lattice, radius)
    omega_idx = np.flatnonzero(omega_mask)
    rows = max(1, CHUNK_ELEMENTS // (shifts.size * lattice.dim))
    ia_list, ja_list, d_list = [], [], []
    for start in range(0, omega_idx.size, rows):
        ib = omega_idx[start:start + rows]
        i = np.repeat(ib, shifts.size)
        j = (ib[:, None] + shifts[None, :]).ravel()
        d = np.linalg.norm(coords[i] - coords[j], axis=1)
        keep = (d > 0) & (d <= radius + 1e-12) & (halo[j] | (j > i))
        ia_list.append(i[keep])
        ja_list.append(j[keep])
        d_list.append(d[keep])
    return (np.concatenate(ia_list), np.concatenate(ja_list),
            np.concatenate(d_list))


class OffsetTable:
    """Distances h |k| of the integer offsets k between two nodes of a
    lattice, for the O(m^2) ball sums of the estimate checks.

    ``dist`` has prod_d (2 counts_d - 1) entries: offset k sits at
    sum_d (k_d + counts_d - 1) P_d, with P the row-major strides of the
    padded shape (2 counts_d - 1).  A caller raises ``dist`` to the
    powers it needs once and gathers them with the index blocks of
    ``blocks``; no pair distance is formed from coordinates.

    The zero offset holds inf, not 0: a ball-sum term is a function of
    the node difference that vanishes with it, over nonnegative powers of
    the distance, so on the diagonal it is exactly 0 and needs no mask
    (a distance of 0 would make it 0/0).
    """

    def __init__(self, lattice):
        self._counts = lattice.counts
        self._span = tuple(2 * c - 1 for c in lattice.counts)
        self._zero = int(np.ravel_multi_index([c - 1 for c in self._counts],
                                              self._span))
        axes = np.meshgrid(*[np.arange(1 - c, c) for c in self._counts],
                           indexing="ij", sparse=True)
        self.dist = lattice.h * np.sqrt(sum(k * k for k in axes).ravel())
        self.dist[self._zero] = np.inf

    def _codes(self, idx):
        """Multi-indices of flat node indices in the padded shape."""
        return np.ravel_multi_index(np.unravel_index(idx, self._counts),
                                    self._span)

    def blocks(self, ia, ib, rows=None):
        """Yield (sl, kc) over row blocks of the node indices ``ia``:
        kc[i, j] indexes ``dist`` at the offset from ib[j] to ia[sl][i].

        ``rows`` None bounds each block to ``CHUNK_ELEMENTS`` indices;
        use that when the result does not depend on the block height
        (row sums, maxima).
        """
        ca = self._codes(ia)
        cb = self._codes(ib) - self._zero
        if rows is None:
            rows = max(1, CHUNK_ELEMENTS // max(1, cb.size))
        for start in range(0, ca.size, rows):
            sl = slice(start, start + rows)
            yield sl, ca[sl, None] - cb[None, :]
