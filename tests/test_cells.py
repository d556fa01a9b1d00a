"""Cell decomposition of the local discrepancy and its exact sup."""

import numpy as np
import pytest

from discnorm import cells
from discnorm.cells import build_cell_grid, count_in_box, local_discrepancy
from discnorm.pointset import PointSet, empty_pointset, generate_uniform
from discnorm.star import star_discrepancy_exact


def _star_corner_grid(points):
    """Exact star discrepancy on the corner grid, independent of CellGrid.

    Each axis holds the distinct coordinates plus 1.  At a corner t the
    closed count (<=) gives closed/N - vol(t) and the open count (<)
    gives vol(t) - open/N; together they contain the supremum.
    """
    d = points.dim
    n = points.n_points
    if n == 0:
        return 1.0
    axes = []
    for k in range(d):
        g = np.unique(points.coords[:, k])
        if g[-1] != 1.0:
            g = np.append(g, 1.0)
        axes.append(g)
    occupancy = np.zeros(tuple(g.size for g in axes), dtype=np.int64)
    idx = tuple(np.searchsorted(axes[k], points.coords[:, k]) for k in range(d))
    np.add.at(occupancy, idx, 1)
    closed = occupancy
    for k in range(d):
        closed = np.cumsum(closed, axis=k)
    # the open count at a corner is the closed count at the previous corner
    open_cnt = closed
    for k in range(d):
        shifted = np.zeros_like(open_cnt)
        sl_to = [slice(None)] * d
        sl_from = [slice(None)] * d
        sl_to[k] = slice(1, None)
        sl_from[k] = slice(0, -1)
        shifted[tuple(sl_to)] = open_cnt[tuple(sl_from)]
        open_cnt = shifted
    vol = axes[0].copy()
    for k in range(1, d):
        vol = np.multiply.outer(vol, axes[k])
    return float(max((closed / n - vol).max(), (vol - open_cnt / n).max(), 0.0))


def test_count_strict_upper_face():
    ps = PointSet(np.array([[0.5, 0.5]]))
    # the box [0, t) is half open: a point on the upper face is outside
    assert count_in_box(ps, [0.5, 0.5]) == 0
    assert count_in_box(ps, [0.5000001, 0.6]) == 1
    assert count_in_box(ps, [1.0, 1.0]) == 1


def test_count_validation():
    ps = generate_uniform(4, 2, seed=0)
    with pytest.raises(ValueError):
        count_in_box(ps, [0.5])
    with pytest.raises(ValueError):
        count_in_box(ps, [0.5, 1.5])


def test_local_discrepancy_empty_set():
    ps = empty_pointset(2)
    assert local_discrepancy(ps, [0.5, 0.5]) == -0.25
    assert local_discrepancy(ps, [1.0, 1.0]) == -1.0
    with pytest.raises(ValueError):
        local_discrepancy(ps, [0.5, 1.5])


def test_count_empty_set():
    ps = empty_pointset(3)
    assert count_in_box(ps, [1.0, 1.0, 1.0]) == 0
    with pytest.raises(ValueError):
        count_in_box(ps, [0.5, 0.5])


def test_cell_volumes_partition_the_cube():
    for n, d, seed in [(5, 1, 1), (7, 2, 2), (6, 3, 3)]:
        grid = build_cell_grid(generate_uniform(n, d, seed=seed))
        assert abs(grid.cell_volumes().sum() - 1.0) < 1e-12


def test_counts_match_direct_counting():
    rng = np.random.Generator(np.random.PCG64(99))
    for n, d, seed in [(6, 1, 10), (9, 2, 11), (5, 3, 12)]:
        ps = generate_uniform(n, d, seed=seed)
        grid = build_cell_grid(ps)
        frac = grid.count_fractions()
        # probe a random interior point of every cell along a random slice
        for _ in range(50):
            idx = tuple(rng.integers(0, len(b) - 1) for b in grid.breakpoints)
            t = np.array([
                grid.breakpoints[i][j] + (grid.breakpoints[i][j + 1] - grid.breakpoints[i][j]) * 0.5
                for i, j in enumerate(idx)
            ])
            assert grid.counts[idx] == count_in_box(ps, t)
            assert frac[idx] == count_in_box(ps, t) / n


def test_duplicated_points_counted_with_multiplicity():
    ps = PointSet(np.array([[0.25], [0.25], [0.75]]))
    grid = build_cell_grid(ps)
    assert count_in_box(ps, [0.5]) == 2
    assert grid.counts.max() == 3


def test_sup_abs_matches_star_discrepancy():
    for n, d, seed in [(8, 1, 20), (12, 2, 21), (8, 3, 22), (16, 2, 23)]:
        ps = generate_uniform(n, d, seed=seed)
        grid = build_cell_grid(ps)
        assert abs(grid.sup_abs_discrepancy() - _star_corner_grid(ps)) < 1e-14
        assert star_discrepancy_exact(ps) == grid.sup_abs_discrepancy()


def test_sup_abs_empty_set_is_one():
    grid = build_cell_grid(empty_pointset(2))
    assert grid.sup_abs_discrepancy() == 1.0


def test_cell_budget_guard(monkeypatch):
    ps = generate_uniform(40, 3, seed=5)
    monkeypatch.setattr(cells, "MAX_CELLS_DEFAULT", 1000)
    with pytest.raises(ValueError):
        build_cell_grid(ps)
