"""Space-filling curves as coordinate tables, and the grid-distance
quantities built on them.

Each curve has one table per order: :func:`curve_coords` gives the cell of
every curve index as two read-only int64 arrays, built by quadrant
recursion.  :func:`curve_indices` is its inverse, a bit loop over int64
coordinates for orders k <= 31.  The simulator reads only the table: a
message costs the Manhattan distance between two of its cells.

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
    """(rows, cols) int64 arrays for every curve index of the order-k grid.

    Built by quadrant recursion from the single cell (0, 0): level j
    (s = 2^j) lays four copies of the order-j curve into the quadrants of
    the order-(j+1) grid, in curve order.
    """
    _check_order(k)
    hilbert = CurveKind(kind) is CurveKind.HILBERT
    rows = np.zeros(1, dtype=np.int64)
    cols = np.zeros(1, dtype=np.int64)
    for j in range(k):
        s = 1 << j
        if hilbert:
            # transposed, two translated copies, anti-transposed
            rows, cols = (np.concatenate((cols, rows + s, rows + s, s - 1 - cols)),
                          np.concatenate((rows, cols, cols + s, 2 * s - 1 - rows)))
        else:
            rows, cols = (np.concatenate((rows, rows, rows + s, rows + s)),
                          np.concatenate((cols, cols + s, cols, cols + s)))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def curve_indices(kind: CurveKind, k: int, rows, cols):
    """Vectorized inverse: curve indices of (rows, cols) arrays."""
    _check_order(k)
    kind = CurveKind(kind)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if kind is CurveKind.ZORDER:
        idx = np.zeros_like(rows)
        for m in range(k):
            idx |= ((cols >> m) & 1) << (2 * m)
            idx |= ((rows >> m) & 1) << (2 * m + 1)
        return idx
    side = 1 << k
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
    dist = np.abs(np.diff(rows)) + np.abs(np.diff(cols))
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
    if i > j:
        raise ValueError(f"invalid range [{i}, {j}]")
    _check_index(k, i)
    _check_index(k, j)
    if i == j:
        return 0
    _, _, effective = zorder_step_profile(k)
    return int(effective[i:j].max())
