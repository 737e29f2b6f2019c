"""Space-filling curves as coordinate tables, and the grid-distance
quantities built on them.

Each curve has one table per order, built in place by quadrant recursion:
a read-only, C-contiguous (4^k, 2) int32 array holding the (row, col) of
every curve index, so that a cell is one 8-byte word.  :func:`curve_coords`
gives it as its (2, 4^k) transpose, so ``rows, cols = curve_coords(kind,
k)`` unpacks it.  :func:`curve_indices` is its inverse, a bit loop over
int64 coordinates for orders k <= 31.  The simulator reads only the table:
a message costs the Manhattan distance between two of its cells, which
:func:`cell_distances` prices with one word gather per endpoint.

Two curves are supported on square ``2^k x 2^k`` grids:

* The Hilbert curve: edge-connected, so consecutive curve positions are at
  Manhattan distance 1, and positions ``i`` and ``j`` are never further than
  ``3*sqrt(j-i) + 6`` apart.
* The Z-order (Morton) curve: block-aligned, but consecutive blocks are
  joined by long "diagonal" steps whose worst case is tracked separately by
  :func:`zorder_longest_diagonal`.

Coordinates are ``(row, col)`` with row 0 at the top and curve index 0 at the
top-left cell.  The Hilbert base curve (k=1) visits (0,0), (1,0), (1,1),
(0,1); Z-order visits quadrants upper-left, upper-right, lower-left,
lower-right at every scale.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np


class CurveKind(str, enum.Enum):
    HILBERT = "hilbert"
    ZORDER = "zorder"


def cell_count(k: int) -> int:
    return 1 << (2 * k)


def _check_index(k, idx):
    if not 0 <= idx < cell_count(k):
        raise ValueError(f"curve index {idx} out of range for order k={k}")


def _check_order(k):
    # the codecs are int64, so the 4^k cell indices must fit: k <= 31
    if not 0 <= k <= 31:
        raise ValueError(f"curve order k={k} outside 0..31")


def aligned_square_side(a, b) -> int:
    """Side of the smallest power-of-two-aligned square containing both cells."""
    a0, a1, b0, b1 = int(a[0]), int(a[1]), int(b[0]), int(b[1])
    if min(a0, a1, b0, b1) < 0:
        raise ValueError(f"cell coordinates must be non-negative, "
                         f"got {(a0, a1)} and {(b0, b1)}")
    # both cells lie in one aligned square of side 2^m iff each coordinate
    # xor is below 2^m
    return 1 << max((a0 ^ b0).bit_length(), (a1 ^ b1).bit_length())


@lru_cache(maxsize=None)
def curve_coords(kind: CurveKind, k: int):
    """The (rows, cols) of every curve index of the order-k grid, as the
    read-only (2, 4^k) int32 transpose of the curve's cell table.

    The table itself, ``curve_coords(kind, k).T``, is C-contiguous: cell i
    is its row i.  It is built in place by quadrant recursion from the
    single cell (0, 0): level j (s = 2^j) lays copies of the order-j curve,
    held in the table's first 4^j rows, into the other three quadrants of
    the order-(j+1) grid, in curve order, then reorients the first copy.
    Only that reorientation takes a temporary, of at most a quarter of the
    table.
    """
    _check_order(k)
    hilbert = CurveKind(kind) is CurveKind.HILBERT
    cells = np.empty((cell_count(k), 2), dtype=np.int32)
    cells[0] = 0
    for j in range(k):
        s = 1 << j
        m = 1 << 2 * j
        prev = cells[:m]
        if hilbert:
            # two translated copies, anti-transposed, then the source
            # itself transposed, last as it overwrites the source
            np.add(prev, (s, 0), out=cells[m:2 * m])
            np.add(prev, (s, s), out=cells[2 * m:3 * m])
            np.subtract((s - 1, 2 * s - 1), prev[:, ::-1], out=cells[3 * m:4 * m])
            prev[:] = prev[:, ::-1]
        else:
            np.add(prev, (0, s), out=cells[m:2 * m])
            np.add(prev, (s, 0), out=cells[2 * m:3 * m])
            np.add(prev, (s, s), out=cells[3 * m:4 * m])
    cells.setflags(write=False)
    return cells.T


def cell_distances(words, src, dst):
    """The Manhattan distance between cells ``words[src[i]]`` and
    ``words[dst[i]]`` for each i, as a new uint32 array.

    ``words`` holds one cell per int64 word, its row and column in two
    int32 lanes, as ``curve_coords(kind, k).T.view(np.int64).reshape(-1)``
    views a cell table.  One gather per endpoint, then one subtraction and
    one ``abs`` over both lanes and one add of the lanes: every coordinate
    lies in [0, 2^31), so each |difference| fits int32 and their sum, at
    most 2^32 - 2, fits uint32.
    """
    gap = words.take(src).view(np.int32)
    gap -= words.take(dst).view(np.int32)
    np.abs(gap, out=gap)
    gap = gap.view(np.uint32)
    return gap[0::2] + gap[1::2]


def curve_indices(kind: CurveKind, k: int, rows, cols):
    """Vectorized inverse: curve indices of (rows, cols) arrays.  Raises
    ValueError, naming the first, for coordinates that are not integers or
    a cell outside the 2^k x 2^k grid."""
    _check_order(k)
    kind = CurveKind(kind)
    rows, cols = np.asarray(rows), np.asarray(cols)
    for a in (rows, cols):
        # a cast would truncate 1.7 to 1
        if a.size and a.dtype.kind not in "iu":
            first = a.reshape(-1)[:1].tolist()[0]
            raise ValueError(f"cell coordinates must be integers, not {first!r}")
    # checked in the given dtypes, so a uint64 past int64 is named as given
    rows, cols = np.broadcast_arrays(rows, cols)
    side = 1 << k
    if rows.size and (min(rows.min(), cols.min()) < 0
                      or max(rows.max(), cols.max()) >= side):
        bad = ((rows < 0) | (rows >= side) | (cols < 0) | (cols >= side)).reshape(-1)
        i = int(bad.argmax())
        raise ValueError(f"cell ({rows.flat[i]}, {cols.flat[i]}) is outside the "
                         f"order-{k} grid: coordinates must lie in [0, {side})")
    rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    if kind is CurveKind.ZORDER:
        idx = np.zeros_like(rows)
        for m in range(k):
            idx |= ((cols >> m) & 1) << (2 * m)
            idx |= ((rows >> m) & 1) << (2 * m + 1)
        return idx
    x = cols.copy()
    y = rows.copy()
    d = np.zeros_like(x)
    s = side >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        swap = ry == 0
        refl = swap & (rx == 1)
        x_r = np.where(refl, side - 1 - x, x)
        y_r = np.where(refl, side - 1 - y, y)
        x, y = np.where(swap, y_r, x_r), np.where(swap, x_r, y_r)
        s >>= 1
    return d


@lru_cache(maxsize=None)
def zorder_step_profile(k: int):
    """Per-step data for the order-k Z-order curve.

    Returns (dist, crossing, effective) arrays of length ``4^k - 1``, where
    ``dist[t]`` is the Manhattan length of the step t -> t+1, ``crossing[t]``
    is True when the step leaves its 2x2-aligned block (a diagonal), and
    ``effective[t]`` is ``dist[t]`` for diagonals and 1 otherwise.
    """
    rows, cols = curve_coords(CurveKind.ZORDER, k)
    # int64, so the sum of two int32 steps cannot wrap
    dist = np.abs(np.diff(rows), dtype=np.int64) + np.abs(np.diff(cols), dtype=np.int64)
    crossing = (rows[:-1] >> 1 != rows[1:] >> 1) | (cols[:-1] >> 1 != cols[1:] >> 1)
    effective = np.where(crossing, dist, 1)
    for a in (dist, crossing, effective):
        a.setflags(write=False)
    return dist, crossing, effective


def zorder_longest_diagonal(k: int, i: int, j: int) -> int:
    """Longest-diagonal cost E_d between Z-order positions i <= j.

    The maximum, over curve steps t -> t+1 with i <= t < j, of the step's
    Manhattan length when the step crosses a power-of-two-aligned block
    boundary.  Steps inside a 2x2 block contribute 1, and the empty range
    (i == j) costs 0.
    """
    _check_order(k)
    if i > j:
        raise ValueError(f"invalid range [{i}, {j}]")
    _check_index(k, i)
    _check_index(k, j)
    if i == j:
        return 0
    _, _, effective = zorder_step_profile(k)
    return int(effective[i:j].max())
