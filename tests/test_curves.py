import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialtree.curves import (CurveKind, aligned_square_side, cell_count,
                                coord_to_index, curve_coords, curve_distance,
                                curve_indices, index_to_coord, manhattan,
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
    for idx, cell in enumerate(table):
        assert tuple(index_to_coord(kind, k, idx)) == cell
        assert coord_to_index(kind, k, cell) == idx


def test_curve_start_is_origin():
    assert tuple(index_to_coord(CurveKind.HILBERT, 1, 0)) == (0, 0)
    assert coord_to_index(CurveKind.HILBERT, 1, (0, 0)) == 0


def test_zorder_known_cell_anchors():
    # cells 6 and 10 of the 4x4 figure
    assert tuple(index_to_coord(CurveKind.ZORDER, 2, 6)) == (1, 2)
    assert coord_to_index(CurveKind.ZORDER, 2, (1, 2)) == 6
    assert tuple(index_to_coord(CurveKind.ZORDER, 2, 10)) == (3, 0)


@pytest.mark.parametrize("kind", list(CurveKind))
@pytest.mark.parametrize("k", range(0, 6))
def test_scalar_codec_roundtrip_exhaustive(kind, k):
    rec = hilbert_recursive(k) if kind is CurveKind.HILBERT else zorder_recursive(k)
    for idx in range(cell_count(k)):
        cell = index_to_coord(kind, k, idx)
        assert tuple(cell) == rec[idx]
        assert coord_to_index(kind, k, cell) == idx


@pytest.mark.parametrize("kind", list(CurveKind))
def test_vectorized_matches_scalar(kind):
    for k in range(0, 7):
        rows, cols = curve_coords(kind, k)
        n = cell_count(k)
        sample = range(n) if n <= 4096 else range(0, n, 97)
        for idx in sample:
            r, c = index_to_coord(kind, k, idx)
            assert (rows[idx], cols[idx]) == (r, c)
        idx = curve_indices(kind, k, rows, cols)
        assert np.array_equal(idx, np.arange(n))


def test_out_of_range_arguments_raise():
    with pytest.raises(ValueError):
        index_to_coord(CurveKind.HILBERT, 2, 16)
    with pytest.raises(ValueError):
        index_to_coord(CurveKind.ZORDER, 2, -1)
    with pytest.raises(ValueError):
        coord_to_index(CurveKind.HILBERT, 2, (4, 0))
    # the codecs are int64, so orders past 31 are refused, not wrapped
    for kind in CurveKind:
        for call in (lambda: index_to_coord(kind, 32, 0),
                     lambda: coord_to_index(kind, 32, (0, 0)),
                     lambda: curve_indices(kind, 32, [0], [0]),
                     lambda: curve_coords(kind, 32)):
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
    for idx in (0, 1, cell_count(k) // 3, cell_count(k) - 2, cell_count(k) - 1):
        row, col = index_to_coord(kind, k, idx)
        assert 0 <= row < side and 0 <= col < side
        assert coord_to_index(kind, k, (row, col)) == idx
    # the last cell: top-right for Hilbert, bottom-right for Z-order
    want = (0, side - 1) if kind is CurveKind.HILBERT else (side - 1, side - 1)
    assert tuple(index_to_coord(kind, k, cell_count(k) - 1)) == want


def test_manhattan_examples():
    assert manhattan((0, 0), (0, 0)) == 0
    assert manhattan((0, 0), (3, 1)) == 4
    assert manhattan((2, 5), (7, 1)) == 9


@given(st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
       st.tuples(st.integers(0, 1000), st.integers(0, 1000)))
def test_manhattan_is_a_metric(a, b):
    assert manhattan(a, b) == manhattan(b, a) >= 0
    assert (manhattan(a, b) == 0) == (a == b)


def test_curve_distance_examples():
    assert curve_distance(CurveKind.HILBERT, 3, 17, 17) == 0
    # cells (0,0) and (0,1) of the pinned k=1 table
    assert curve_distance(CurveKind.HILBERT, 1, 0, 3) == 1
    # cells (1,2) and (3,0) of the pinned Z-order table
    assert curve_distance(CurveKind.ZORDER, 2, 6, 10) == 4


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
                    best = max(best, manhattan(a, b))
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
    assert coord_to_index(kind, 7, index_to_coord(kind, 7, i)) == i
    assert curve_distance(kind, 7, i, j) == curve_distance(kind, 7, j, i)
