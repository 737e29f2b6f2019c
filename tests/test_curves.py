import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialtree.curves import (CurveKind, aligned_square_side, cell_count,
                                cell_distances, curve_coords, curve_indices,
                                zorder_longest_diagonal, zorder_step_profile)

# Golden tables, pinned from the recursive quadrant constructions below.
HILBERT_K1 = [(0, 0), (1, 0), (1, 1), (0, 1)]
HILBERT_K2 = [(0, 0), (0, 1), (1, 1), (1, 0),
              (2, 0), (3, 0), (3, 1), (2, 1),
              (2, 2), (3, 2), (3, 3), (2, 3),
              (1, 3), (1, 2), (0, 2), (0, 3)]
ZORDER_K1 = [(0, 0), (0, 1), (1, 0), (1, 1)]
ZORDER_K2 = [(0, 0), (0, 1), (1, 0), (1, 1),
             (0, 2), (0, 3), (1, 2), (1, 3),
             (2, 0), (2, 1), (3, 0), (3, 1),
             (2, 2), (2, 3), (3, 2), (3, 3)]


def hilbert_recursive(k):
    """Independent geometric construction: four reoriented copies per level."""
    if k == 0:
        return [(0, 0)]
    prev = hilbert_recursive(k - 1)
    h = 1 << (k - 1)
    out = [(c, r) for (r, c) in prev]                        # transposed
    out += [(r + h, c) for (r, c) in prev]
    out += [(r + h, c + h) for (r, c) in prev]
    out += [(h - 1 - c, 2 * h - 1 - r) for (r, c) in prev]   # anti-transposed
    return out


def zorder_recursive(k):
    if k == 0:
        return [(0, 0)]
    prev = zorder_recursive(k - 1)
    h = 1 << (k - 1)
    return ([(r, c) for r, c in prev] + [(r, c + h) for r, c in prev]
            + [(r + h, c) for r, c in prev] + [(r + h, c + h) for r, c in prev])


def reference_coords(kind, k, idx):
    """(rows, cols) of the cells at curve indices idx, worked out per index
    by reading its bits: an independent check of the recursive tables."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.zeros_like(idx)
    cols = np.zeros_like(idx)
    if CurveKind(kind) is CurveKind.ZORDER:
        for m in range(k):
            cols |= ((idx >> (2 * m)) & 1) << m
            rows |= ((idx >> (2 * m + 1)) & 1) << m
        return rows, cols
    # one quadrant level per pass, from the finest up
    t = idx.copy()
    s = 1
    while s < 1 << k:
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


def table_distance(kind, k, i, j):
    """Manhattan distance between curve positions i and j, read off the table."""
    rows, cols = curve_coords(kind, k)
    return int(abs(rows[i] - rows[j]) + abs(cols[i] - cols[j]))


def test_golden_tables_match_recursive_construction():
    assert hilbert_recursive(1) == HILBERT_K1
    assert hilbert_recursive(2) == HILBERT_K2
    assert zorder_recursive(1) == ZORDER_K1
    assert zorder_recursive(2) == ZORDER_K2


@pytest.mark.parametrize("kind,table,k", [
    (CurveKind.HILBERT, HILBERT_K1, 1),
    (CurveKind.HILBERT, HILBERT_K2, 2),
    (CurveKind.ZORDER, ZORDER_K1, 1),
    (CurveKind.ZORDER, ZORDER_K2, 2),
])
def test_codec_matches_golden_table(kind, table, k):
    rows, cols = curve_coords(kind, k)
    assert list(zip(rows.tolist(), cols.tolist())) == table
    want_rows, want_cols = zip(*table)
    assert curve_indices(kind, k, want_rows, want_cols).tolist() == list(range(len(table)))


def test_curve_start_is_origin():
    for kind in CurveKind:
        for k in range(4):
            rows, cols = curve_coords(kind, k)
            assert (rows[0], cols[0]) == (0, 0)
            assert curve_indices(kind, k, [0], [0]).tolist() == [0]


def test_zorder_known_cell_anchors():
    # cells 6 and 10 of the 4x4 figure
    rows, cols = curve_coords(CurveKind.ZORDER, 2)
    assert (rows[6], cols[6]) == (1, 2)
    assert (rows[10], cols[10]) == (3, 0)
    assert curve_indices(CurveKind.ZORDER, 2, [1, 3], [2, 0]).tolist() == [6, 10]


@pytest.mark.parametrize("kind", list(CurveKind))
@pytest.mark.parametrize("k", range(0, 11))
def test_scalar_codec_roundtrip_exhaustive(kind, k):
    rows, cols = curve_coords(kind, k)
    idx = np.arange(cell_count(k))
    want_rows, want_cols = reference_coords(kind, k, idx)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(curve_indices(kind, k, rows, cols), idx)
    if k <= 5:
        rec = hilbert_recursive(k) if kind is CurveKind.HILBERT else zorder_recursive(k)
        assert list(zip(rows.tolist(), cols.tolist())) == rec


@pytest.mark.parametrize("kind", list(CurveKind))
def test_vectorized_matches_scalar(kind):
    for k in range(0, 11):
        rows, cols = curve_coords(kind, k)
        assert rows.dtype == cols.dtype == np.int32
        assert not rows.flags.writeable and not cols.flags.writeable
        # one table, a cell's row and column side by side
        assert curve_coords(kind, k).T.flags.c_contiguous
        n = cell_count(k)
        # the reference one index at a time, on a sample of the larger orders
        for idx in range(0, n, 1 if n <= 4096 else n // 1024 + 1):
            r, c = reference_coords(kind, k, idx)
            assert (rows[idx], cols[idx]) == (r, c)


@pytest.mark.parametrize("kind", list(CurveKind))
def test_curve_coords_is_cached_and_built_in_bounded_memory(kind):
    assert curve_coords(kind, 3) is curve_coords(kind, 3)
    # the benchmark clears the cache before every set-up repetition
    curve_coords.cache_clear()
    tracemalloc.start()
    try:
        curve_coords(kind, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the order-9 table takes 2 MiB and building it in place holds at most
    # a quarter of it more; two int64 tables built level by level (6 MiB)
    # would fail
    assert peak <= 4.5 * 2**20


@pytest.mark.parametrize("kind,k,cell", [
    (CurveKind.HILBERT, 1, (2, 0)),   # was read as index 0, cell (0, 0)
    (CurveKind.ZORDER, 1, (-1, 0)),   # was read as index 2
    (CurveKind.HILBERT, 3, (0, -1)),
    (CurveKind.ZORDER, 3, (0, 8)),
])
def test_curve_indices_rejects_cells_outside_the_grid(kind, k, cell):
    rows, cols = [0, 1, cell[0]], [0, 0, cell[1]]
    with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) is outside"):
        curve_indices(kind, k, rows, cols)


def test_out_of_range_arguments_raise():
    # the codecs are int64, so orders past 31 are refused, not wrapped
    for kind in CurveKind:
        for call in (lambda: curve_indices(kind, 32, [0], [0]),
                     lambda: curve_coords(kind, 32),
                     lambda: curve_coords(kind, -1)):
            with pytest.raises(ValueError):
                call()
    with pytest.raises(ValueError):
        zorder_longest_diagonal(2, 5, 3)
    with pytest.raises(ValueError):
        zorder_longest_diagonal(2, 0, 16)


@pytest.mark.parametrize("kind", list(CurveKind))
def test_largest_order_corners_roundtrip(kind):
    k = 31
    side = 1 << k
    idx = np.array([0, 1, cell_count(k) // 3, cell_count(k) - 2, cell_count(k) - 1])
    rows, cols = reference_coords(kind, k, idx)
    assert np.all((0 <= rows) & (rows < side) & (0 <= cols) & (cols < side))
    assert np.array_equal(curve_indices(kind, k, rows, cols), idx)
    # the last cell: top-right for Hilbert, bottom-right for Z-order
    want = (0, side - 1) if kind is CurveKind.HILBERT else (side - 1, side - 1)
    assert (rows[-1], cols[-1]) == want


@pytest.mark.parametrize("cells", [
    [(0, 2**31 - 1), (2**31 - 1, 0)],
    [(2**31 - 1, 0), (0, 2**31 - 1)],  # the lanes swapped
    [(0, 0), (2**31 - 1, 2**31 - 1)],
])
def test_cell_distances_is_exact_at_the_largest_coordinates(cells):
    # a two-cell word table: each |difference| is 2^31 - 1, so their sum
    # needs all 32 bits of the uint32 result
    words = np.array(cells, dtype=np.int32).view(np.int64).reshape(-1)
    got = cell_distances(words, [0, 1, 1], [1, 0, 1])
    assert got.dtype == np.uint32
    assert got.tolist() == [2**32 - 2, 2**32 - 2, 0]


def test_curve_distance_examples():
    assert table_distance(CurveKind.HILBERT, 3, 17, 17) == 0
    # cells (0,0) and (0,1) of the pinned k=1 table
    assert table_distance(CurveKind.HILBERT, 1, 0, 3) == 1
    # cells (1,2) and (3,0) of the pinned Z-order table
    assert table_distance(CurveKind.ZORDER, 2, 6, 10) == 4


def reference_square_side(a, b):
    s = 1
    while (a[0] // s, a[1] // s) != (b[0] // s, b[1] // s):
        s <<= 1
    return s


def test_aligned_square_side_closed_form():
    assert aligned_square_side((0, 0), (0, 0)) == 1
    assert aligned_square_side((1, 1), (2, 2)) == 4
    assert aligned_square_side((0, 5), (0, 4)) == 2
    # numpy int64 cells, as the acceptance suite passes them
    rows, cols = curve_coords(CurveKind.ZORDER, 3)
    for i in range(len(rows)):
        for j in range(len(rows)):
            a, b = (rows[i], cols[i]), (rows[j], cols[j])
            assert aligned_square_side(a, b) == reference_square_side(a, b)
    big = 1 << 40
    assert aligned_square_side((big + 5, 0), (big + 1, 1)) == 8


@pytest.mark.parametrize("a,b", [((-1, 0), (0, 0)), ((0, 0), (0, -1)),
                                 ((np.int64(-3), 2), (1, 1))])
def test_aligned_square_side_rejects_negative_cells(a, b):
    with pytest.raises(ValueError, match="non-negative"):
        aligned_square_side(a, b)


def test_zorder_longest_diagonal_anchors():
    assert zorder_longest_diagonal(2, 6, 10) == 4  # figure caption value
    assert zorder_longest_diagonal(2, 7, 7) == 0
    assert zorder_longest_diagonal(3, 21, 21) == 0
    assert zorder_longest_diagonal(2, 0, 3) == 1   # no block boundary crossed


def test_zorder_longest_diagonal_brute_force_small():
    # brute force against the pinned table definition for all k=2 pairs
    rows, cols = curve_coords(CurveKind.ZORDER, 2)
    for i in range(16):
        for j in range(i, 16):
            best = 0 if i == j else 1
            for t in range(i, j):
                a = (rows[t], cols[t])
                b = (rows[t + 1], cols[t + 1])
                if aligned_square_side(a, b) >= 4:  # leaves its 2x2 block
                    best = max(best, abs(a[0] - b[0]) + abs(a[1] - b[1]))
            assert zorder_longest_diagonal(2, i, j) == best


def test_hilbert_unit_steps():
    for k in range(1, 7):
        rows, cols = curve_coords(CurveKind.HILBERT, k)
        d = np.abs(np.diff(rows)) + np.abs(np.diff(cols))
        assert d.min() == d.max() == 1


def test_hilbert_distance_bound_small_orders():
    # dist(i, j) <= 3*sqrt(j-i) + 6, exhaustively for k <= 5
    for k in range(1, 6):
        rows, cols = curve_coords(CurveKind.HILBERT, k)
        n = cell_count(k)
        for i in range(n - 1):
            d = np.abs(rows[i + 1:] - rows[i]) + np.abs(cols[i + 1:] - cols[i])
            gap = np.arange(1, n - i)
            assert np.all(d <= 3.0 * np.sqrt(gap) + 6.0)


def test_hilbert_alignedness():
    # any 4^m consecutive positions fit in a box of side <= 2 * 2^m
    for k in range(2, 7):
        rows, cols = curve_coords(CurveKind.HILBERT, k)
        for m in range(1, k):
            w = 4 ** m
            rw = np.lib.stride_tricks.sliding_window_view(rows, w)
            cw = np.lib.stride_tricks.sliding_window_view(cols, w)
            span = np.maximum(rw.max(axis=1) - rw.min(axis=1),
                              cw.max(axis=1) - cw.min(axis=1))
            assert span.max() < 2 * (2 ** m)


def test_zorder_aligned_block_containment():
    # every aligned block of 4^m consecutive positions is exactly a 2^m subgrid
    for k in range(2, 7):
        rows, cols = curve_coords(CurveKind.ZORDER, k)
        for m in range(1, k + 1):
            w = 4 ** m
            side = 2 ** m
            for start in range(0, cell_count(k), w):
                r = rows[start:start + w]
                c = cols[start:start + w]
                assert r.max() - r.min() == side - 1
                assert c.max() - c.min() == side - 1
                assert r.min() % side == 0 and c.min() % side == 0


def test_zorder_distance_decomposition():
    # dist(i, j) <= (8*sqrt(j-i) + 8) + E_d(i, j) for all pairs, k <= 5
    for k in range(1, 6):
        rows, cols = curve_coords(CurveKind.ZORDER, k)
        _, _, effective = zorder_step_profile(k)
        n = cell_count(k)
        for i in range(n - 1):
            d = (np.abs(rows[i + 1:] - rows[i])
                 + np.abs(cols[i + 1:] - cols[i])).astype(float)
            gap = np.arange(1, n - i)
            ed = np.maximum.accumulate(effective[i:])
            assert np.all(d <= 8.0 * np.sqrt(gap) + 8.0 + ed)


@settings(max_examples=300)
@given(st.integers(0, cell_count(7) - 1), st.integers(0, cell_count(7) - 1),
       st.sampled_from(list(CurveKind)))
def test_roundtrip_random_order7(i, j, kind):
    rows, cols = curve_coords(kind, 7)
    assert curve_indices(kind, 7, [rows[i]], [cols[i]]).tolist() == [i]
    assert table_distance(kind, 7, i, j) == table_distance(kind, 7, j, i)
