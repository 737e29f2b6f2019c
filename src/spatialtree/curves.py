"""Space-filling curve codecs and the grid-distance quantities built on them.

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
lower-right at every scale.  All functions are pure.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class CurveKind(str, enum.Enum):
    HILBERT = "hilbert"
    ZORDER = "zorder"


class GridCoord(NamedTuple):
    row: int
    col: int


def grid_side(k: int) -> int:
    return 1 << k


def cell_count(k: int) -> int:
    return 1 << (2 * k)


def _check_index(k, idx):
    if not 0 <= idx < cell_count(k):
        raise ValueError(f"curve index {idx} out of range for order k={k}")


def _check_coord(k, row, col):
    side = grid_side(k)
    if not (0 <= row < side and 0 <= col < side):
        raise ValueError(f"coordinate ({row}, {col}) outside {side}x{side} grid")


def _check_order(k):
    # the codecs are int64, so the 4^k cell indices must fit: k <= 31
    if not 0 <= k <= 31:
        raise ValueError(f"curve order k={k} outside 0..31")


def index_to_coord(kind: CurveKind, k: int, idx: int) -> GridCoord:
    """Grid cell of the idx-th element of the order-k curve."""
    _check_order(k)
    _check_index(k, idx)
    rows, cols = _coords(kind, k, np.array([idx], dtype=np.int64))
    return GridCoord(int(rows[0]), int(cols[0]))


def coord_to_index(kind: CurveKind, k: int, coord) -> int:
    """Inverse of :func:`index_to_coord`."""
    row, col = coord
    _check_coord(k, row, col)
    return int(curve_indices(kind, k, [row], [col])[0])


def manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def curve_distance(kind: CurveKind, k: int, i: int, j: int) -> int:
    """Manhattan distance between curve positions i and j."""
    return manhattan(index_to_coord(kind, k, i), index_to_coord(kind, k, j))


def aligned_square_side(a, b) -> int:
    """Side of the smallest power-of-two-aligned square containing both cells."""
    s = 1
    while (a[0] // s, a[1] // s) != (b[0] // s, b[1] // s):
        s <<= 1
    return s


@lru_cache(maxsize=None)
def curve_coords(kind: CurveKind, k: int):
    """(rows, cols) int64 arrays for every curve index of the order-k grid."""
    _check_order(k)
    rows, cols = _coords(kind, k, np.arange(cell_count(k), dtype=np.int64))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _coords(kind: CurveKind, k: int, idx: np.ndarray):
    """(rows, cols) int64 arrays of the cells at curve indices idx."""
    rows = np.zeros_like(idx)
    cols = np.zeros_like(idx)
    if CurveKind(kind) is CurveKind.ZORDER:
        for m in range(k):
            cols |= ((idx >> (2 * m)) & 1) << m
            rows |= ((idx >> (2 * m + 1)) & 1) << m
        return rows, cols
    # iterative construction, one quadrant level per pass
    t = idx.copy()
    s = 1
    side = 1 << k
    while s < side:
        rx = (t >> 1) & 1
        ry = (t ^ rx) & 1
        refl = (ry == 0) & (rx == 1)
        rows_r = np.where(refl, s - 1 - rows, rows)
        cols_r = np.where(refl, s - 1 - cols, cols)
        swap = ry == 0
        rows, cols = (
            np.where(swap, cols_r, rows_r) + s * ry,
            np.where(swap, rows_r, cols_r) + s * rx,
        )
        t >>= 2
        s <<= 1
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
