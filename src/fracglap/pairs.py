"""Lattice pair enumeration with bounded temporaries.

Two routines serve every pairwise sum in the package:

* ``truncated_pairs`` builds the solver's pair set (pairs with an end in
  the domain, within the truncation radius) from the integer offset
  stencil |k|_inf <= floor(r / h): each stencil offset is one flat-index
  shift, so the build never forms a distance matrix.
* ``distance_blocks`` yields row blocks of the dense distance matrix
  between two node sets, for the O(m^2) ball sums of the estimate
  checks.

No temporary grows past ``CHUNK_ELEMENTS`` entries, except the row
blocks whose height a caller fixes (a block is then the summation unit
of a reported sum, so its height is part of the result).
"""

from __future__ import annotations

import math

import numpy as np

CHUNK_ELEMENTS = 2**18


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


def distance_blocks(xa, xb, rows=None):
    """Yield (sl, d) with d = |xa[sl] - xb| over row blocks of ``xa``.

    ``rows`` None bounds each block to ``CHUNK_ELEMENTS`` coordinate
    differences; use that when the result does not depend on the block
    height (row sums, maxima).
    """
    if rows is None:
        rows = max(1, CHUNK_ELEMENTS // max(1, xb.shape[0] * xb.shape[1]))
    for start in range(0, xa.shape[0], rows):
        sl = slice(start, start + rows)
        yield sl, np.linalg.norm(xa[sl, None, :] - xb[None, :, :], axis=2)
