"""Exact star discrepancy and its Monte Carlo lower bound."""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from discnorm.bounds import NormSpec
from discnorm.cells import build_cell_grid
from discnorm.pointset import PointSet, empty_pointset, generate_uniform
from discnorm.star import star_discrepancy_exact
from oracles import star_discrepancy_lower_mc


def _star_1d_oracle(xs):
    """Classic one-dimensional formula: max over order statistics of
    max(i/N - x_(i), x_(i) - (i-1)/N)."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - xs, xs - (i - 1) / n).max())


def test_centered_grid_is_exactly_half_over_n():
    for n in (1, 2, 4, 8):
        pts = PointSet(((2 * np.arange(1, n + 1) - 1) / (2 * n)).reshape(-1, 1))
        assert star_discrepancy_exact(pts) == 1.0 / (2 * n)


def test_one_dimensional_oracle():
    for n, seed in [(1, 0), (5, 1), (16, 2), (33, 3)]:
        pts = generate_uniform(n, 1, seed=seed)
        want = _star_1d_oracle(pts.coords[:, 0])
        assert abs(star_discrepancy_exact(pts) - want) < 1e-14


def test_single_centered_point_2d():
    # sup is reached approaching (0.5, 0.5) from above: count jumps to 1
    # while the volume is still 1/4
    pts = PointSet(np.array([[0.5, 0.5]]))
    assert star_discrepancy_exact(pts) == 0.75


def test_empty_set_is_one():
    assert star_discrepancy_exact(empty_pointset(4)) == 1.0


def test_exact_dominates_monte_carlo():
    # (48, 4) is a size the exact engine handles below the cell-count cap
    for n, d, seed in [(8, 1, 10), (16, 2, 11), (8, 3, 12), (32, 2, 13), (48, 4, 14)]:
        pts = generate_uniform(n, d, seed=seed)
        exact = star_discrepancy_exact(pts)
        mc = star_discrepancy_lower_mc(pts, samples=50_000, seed=seed)
        assert mc <= exact + 1e-12
        # with this many anchors the lower bound is reasonably sharp
        assert mc >= 0.5 * exact


def test_monte_carlo_empty_set_is_the_largest_sampled_volume():
    t = np.random.Generator(np.random.PCG64(3)).random((1000, 2))
    assert star_discrepancy_lower_mc(empty_pointset(2), samples=1000, seed=3) == t.prod(axis=1).max()


def test_monte_carlo_deterministic():
    pts = generate_uniform(16, 2, seed=21)
    a = star_discrepancy_lower_mc(pts, samples=10_000, seed=5)
    b = star_discrepancy_lower_mc(pts, samples=10_000, seed=5)
    assert a == b


def test_feasibility_guard():
    big = generate_uniform(64, 5, seed=1)
    with pytest.raises(ValueError, match="infeasible"):
        star_discrepancy_exact(big)


def test_duplicate_coordinates():
    pts = PointSet(np.array([[0.25, 0.5], [0.25, 0.5], [0.75, 0.5]]))
    val = star_discrepancy_exact(pts)
    mc = star_discrepancy_lower_mc(pts, samples=200_000, seed=3)
    assert mc <= val + 1e-12
    assert 0.0 < val <= 1.0


def _star_fraction(pts):
    """The star discrepancy as an exact rational: the sup over the cell grid
    of |count / N - corner product| at each cell's two diagonal corners,
    every coordinate read exactly."""
    grid = build_cell_grid(pts)
    a = np.vectorize(lambda c: Fraction(int(c), pts.n_points), otypes=[object])(grid.counts)
    return max(max(abs(a - reduce(np.multiply.outer, [
        np.array([Fraction(x) for x in ends(i)], dtype=object) for i in range(pts.dim)])).flat)
        for ends in (grid.cell_lo, grid.cell_hi))


@pytest.mark.parametrize("n, d", [(5, 2), (6, 3), (4, 4)])
def test_star_error_covers_the_exact_rational_sup(n, d):
    # the corner products are rounded, which moves most of these values off
    # the exact sup by up to about one rounding unit
    missed = 0
    for seed in range(20):
        pts = generate_uniform(n, d, seed)
        res = NormSpec("star").compute(pts)
        off = abs(Fraction(res.value) - _star_fraction(pts))
        assert off <= res.abs_error_estimate, (seed, float(off))
        missed += off > 0
    assert missed > 10
