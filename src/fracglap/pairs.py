"""Lattice pair enumeration with bounded temporaries.

On a lattice |x - y| = h |k| depends only on the integer offset k, so one
table, ``OffsetTable``, holds h |k| for every offset, and every pairwise
sum in the package reads its distances from it.  There are two access
patterns:

* ``truncated_pairs`` builds the solver's pair set (pairs with an end in
  the domain, within the truncation radius): the table offsets within
  the radius are flat-index shifts, and it returns the pair ends and the
  distance of each shift.  No pair stores its distance: a value that
  depends only on the offset is kept once per shift and gathered onto the
  pairs through j - i (``shift_values``), so no distance matrix or
  per-pair distance array is formed.
* the estimate checks raise the table to the powers they need once per
  call and gather them with blocks of integer table indices: the square
  tiles of the O(m^2) ball sums, which are symmetric in the pair, so a
  walk takes each unordered pair once (``OffsetTable.tiles``), and row
  blocks for two node sets (``OffsetTable.blocks``).

Walks over pair-length arrays bound a temporary by ``PAIR_BLOCK``
entries, the checks' walks by ``TILE``^2, so none grows with the pairs
or the ball.  Tiles, and the blocks of the solver's energy pass, are
summation units, so their sizes are part of the result; row blocks (row
sums, maxima), the pair build's blocks and the gathers' are not.
"""

from __future__ import annotations

import math

import numpy as np

# entries per block of a walk over pair-length arrays, 512 KiB per float
# temporary; 2^14 and 2^18 measured slower for the solver's energy pass
PAIR_BLOCK = 2**16
# tile edge of the ball sums, their summation unit: a float temporary of
# a 128 x 128 tile is 128 KiB, well inside a core's L2 cache
TILE = 128


def truncated_pairs(lattice, omega_mask, radius):
    """(ia, ja, dist): the unordered node pairs with an end in the
    domain and 0 < h |k| <= radius, in (i, j) order (a pair of two domain
    nodes appears once, with j > i), and the distance h |k| of each flat
    shift j - i of the stencil, the ``OffsetTable`` offsets within the
    radius.  ``dist`` is centred on shift 0, the values that
    ``shift_values`` gathers onto the pairs; a shift outside the stencil
    holds inf.

    The stencil is symmetric (-k is in it with k, and the zero offset
    holds inf, so it drops out).  Flat indices are shifted without
    wrapping around the box: the caller guarantees that every domain node
    has lattice nodes up to ``radius`` in each direction
    (``NonlocalProblem`` checks this margin), so i + shift is the node at
    offset k for every stencil offset.  The same margin gives |k_d| <=
    (counts_d - 1) / 2, under which the flat shifts rise with the table
    codes: a pair's shift j - i names its offset, and the pairs of a node
    come in increasing j.  The pairs are counted in a first walk over
    row blocks, which keeps only each block's mask, and written into
    their arrays in a second, so no list of blocks is concatenated.
    """
    table = OffsetTable(lattice)
    codes = np.flatnonzero(table.dist <= radius + 1e-12)
    dsel = table.dist[codes]
    counts = lattice.counts
    strides = [math.prod(counts[d + 1:]) for d in range(lattice.dim)]
    shifts = sum((k - c + 1) * st for k, c, st in
                 zip(np.unravel_index(codes, table._span), counts, strides))
    halo = ~omega_mask
    omega_idx = np.flatnonzero(omega_mask)
    rows = max(1, PAIR_BLOCK // shifts.size)
    # one byte per candidate pair, against 16 for the kept ends
    keeps = []
    for start in range(0, omega_idx.size, rows):
        ib = omega_idx[start:start + rows, None]
        j = ib + shifts
        keeps.append(halo[j] | (j > ib))
    n_pairs = sum(int(np.count_nonzero(keep)) for keep in keeps)
    ia = np.empty(n_pairs, dtype=omega_idx.dtype)
    ja = np.empty(n_pairs, dtype=shifts.dtype)
    stop = 0
    for k, keep in enumerate(keeps):
        ib = omega_idx[k * rows:(k + 1) * rows, None]
        kept = (ib + shifts)[keep]
        start, stop = stop, stop + kept.size
        ja[start:stop] = kept
        ia[start:stop] = np.broadcast_to(ib, keep.shape)[keep]
    dist = np.full(2 * int(shifts[-1]) + 1, np.inf)
    dist[shifts + shifts[-1]] = dsel
    return ia, ja, dist


def shift_values(table, ia, ja):
    """The per-shift values ``table`` on the pairs (ia, ja): the value of
    a pair is table[ja - ia + table.size // 2], the table holding shift k
    at k + table.size // 2, as the ``dist`` of ``truncated_pairs`` does.
    Gathered in blocks of ``PAIR_BLOCK`` pairs, so the only pair-length
    array is the result; a value reads the same bits as the table
    entry."""
    out = np.empty(ia.size, dtype=table.dtype)
    for start in range(0, ia.size, PAIR_BLOCK):
        sl = slice(start, start + PAIR_BLOCK)
        code = ja[sl] - ia[sl]
        code += table.size // 2
        np.take(table, code, out=out[sl])
    return out


class OffsetTable:
    """Distances h |k| of the integer offsets k between two nodes of a
    lattice, for the solver's pair set and the O(m^2) ball sums of the
    estimate checks.

    ``dist`` has prod_d (2 counts_d - 1) entries: offset k sits at
    sum_d (k_d + counts_d - 1) P_d, with P the row-major strides of the
    padded shape (2 counts_d - 1).  A caller raises ``dist`` to the
    powers it needs once and gathers them with the index blocks of
    ``blocks`` and ``tiles``; no pair distance is formed from
    coordinates.

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

    def blocks(self, ia, ib):
        """Yield (sl, kc) over row blocks of the node indices ``ia``:
        kc[i, j] indexes ``dist`` at the offset from ib[j] to ia[sl][i].
        A block holds at most ``TILE``^2 indices, or one row, so use it
        where the result does not depend on the block height (row sums,
        maxima)."""
        ca = self._codes(ia)
        cb = self._codes(ib) - self._zero
        rows = max(1, TILE * TILE // max(1, cb.size))
        for start in range(0, ca.size, rows):
            sl = slice(start, start + rows)
            yield sl, ca[sl, None] - cb[None, :]

    def tiles(self, idx):
        """Yield (rows, cols, kc, mult) over the tiles of the pairs of the
        node indices ``idx`` with themselves: kc[i, j] indexes ``dist`` at
        the offset from idx[cols][j] to idx[rows][i].

        The tiles are the squares of edge ``TILE`` with cols at or right
        of rows, row by row.  A symmetric pair sum is the sum over the
        tiles of mult times the tile's sum: a diagonal tile (rows ==
        cols) holds both orders of its pairs and has mult 1, an
        off-diagonal one stands for its mirror too and has mult 2, which
        is exact.  So each unordered pair is walked once, and the order
        of the tiles, and of the pairs within a tile, depends on ``idx``
        alone.
        """
        ca = self._codes(idx)
        cb = ca - self._zero
        for i in range(0, ca.size, TILE):
            rows = slice(i, i + TILE)
            for j in range(i, ca.size, TILE):
                cols = slice(j, j + TILE)
                yield (rows, cols, ca[rows, None] - cb[None, cols],
                       1.0 if i == j else 2.0)
