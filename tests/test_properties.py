"""Property tests of the L_p engines on generated point sets."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from discnorm.cells import build_cell_grid
from discnorm.integrate import lp_adaptive_integral
from discnorm.lp import LpCache, lp_discrepancy, warnock_l2
from discnorm.pointset import PointSet
from discnorm.star import star_discrepancy_exact

_COORD = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def point_sets(draw, max_n=8, max_d=3):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=n, max_size=n))
    return PointSet(np.array(rows, dtype=float).reshape(n, d))


_SETTINGS = settings(max_examples=20, deadline=None)


@_SETTINGS
@given(point_sets(), st.lists(st.floats(1.0, 40.0), min_size=2, max_size=4, unique=True))
def test_lp_nondecreasing_in_p_and_below_star(pts, ps):
    cache = LpCache(pts, rel_tol=1e-8)
    star = star_discrepancy_exact(pts)
    prev = None
    for p in sorted(ps):
        res = cache.norm(p)
        assert res.value <= star + res.abs_error_estimate + 1e-12 * star
        if prev is not None:
            slack = prev.abs_error_estimate + res.abs_error_estimate + 1e-12 * star
            assert prev.value <= res.value + slack
        prev = res


@_SETTINGS
@given(point_sets(), st.floats(1.0, 40.0), st.randoms(use_true_random=False))
def test_lp_invariant_under_permutation(pts, p, rnd):
    order = list(range(pts.n_points))
    rnd.shuffle(order)
    shuffled = PointSet(pts.coords[order])
    assert lp_discrepancy(shuffled, p, rel_tol=1e-6) == lp_discrepancy(pts, p, rel_tol=1e-6)


@_SETTINGS
@given(point_sets(max_n=12))
def test_l2_equals_warnock_on_both_engines(pts):
    w = warnock_l2(pts)
    assert math.isclose(lp_discrepancy(pts, 2.0).value, w, rel_tol=1e-9, abs_tol=1e-12)
    scaled, scale, _, _ = lp_adaptive_integral(build_cell_grid(pts), 2.0, 1e-10)
    assert math.isclose(scale * math.sqrt(scaled), w, rel_tol=1e-9, abs_tol=1e-12)
