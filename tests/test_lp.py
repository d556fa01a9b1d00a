"""L_p norms of the local discrepancy: engines, oracles, and cache."""

import math

import numpy as np
import pytest

from discnorm import integrate
from discnorm.cells import build_cell_grid
from discnorm.integrate import lp_adaptive_integral, lp_moment_integral
from discnorm.lp import (
    MOMENT_AMP_MAX,
    MOMENT_P_MAX,
    REL_TOL_FLOOR,
    LpCache,
    NormResult,
    initial_lp,
    lp_discrepancy,
    warnock_l2,
)
from discnorm.orlicz import OrliczSpec, WeightFn, luxemburg_norm, phi_norm
from discnorm.pointset import PointSet, empty_pointset, generate_halton, generate_uniform
from discnorm.star import star_discrepancy_exact
from oracles import lp_mpmath

# Frozen references computed at rel_tol 1e-11 and cross-validated against
# a 2e6-sample Monte Carlo estimate (all within 2.3 standard errors).
FROZEN_LP = {
    (12, 2, 77): {
        1.0: 0.07317011526585758,
        1.7: 0.08985499627887261,
        3.0: 0.11491073249072793,
        5.5: 0.14852361576596673,
    },
    (10, 3, 31): {
        1.0: 0.04464208505628202,
        1.7: 0.0572586029819599,
        3.0: 0.07826342582396416,
        5.5: 0.11231062837536165,
    },
}


def test_empty_set_closed_form():
    for d in (1, 2, 3, 5):
        for p in (1.0, 2.0, 3.5, 11.0):
            want = (p + 1.0) ** (-d / p)
            assert abs(initial_lp(p, d) - want) < 1e-15
            got = lp_discrepancy(empty_pointset(d), p)
            assert abs(got.value - want) < 1e-14
            assert got.abs_error_estimate == 0.0


def test_initial_lp_validation():
    with pytest.raises(ValueError):
        initial_lp(0.5, 2)
    with pytest.raises(ValueError):
        initial_lp(2.0, 0)
    with pytest.raises(ValueError):
        lp_discrepancy(generate_uniform(4, 2, seed=0), 0.9)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["lp_discrepancy", "cache", "cache_norm",
                                   "luxemburg_norm", "phi_norm"])
def test_bad_tolerance_rejected(entry, tol):
    pts = generate_uniform(8, 2, seed=0)
    calls = {
        "lp_discrepancy": lambda: lp_discrepancy(pts, 3.0, rel_tol=tol),
        "cache": lambda: LpCache(pts, rel_tol=tol),
        "cache_norm": lambda: LpCache(pts).norm(3.0, rel_tol=tol),
        "luxemburg_norm": lambda: luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=tol),
        "phi_norm": lambda: phi_norm(pts, WeightFn.power(1.0, 0.5), rel_tol=tol),
    }
    with pytest.raises(ValueError, match="rel_tol"):
        calls[entry]()


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
@pytest.mark.parametrize("entry", ["lp_discrepancy", "cache_norm", "initial_lp"])
def test_bad_p_rejected(entry, p):
    pts = generate_uniform(8, 2, seed=0)
    calls = {
        "lp_discrepancy": lambda: lp_discrepancy(pts, p),
        "cache_norm": lambda: LpCache(pts).norm(p),
        "initial_lp": lambda: initial_lp(p, 2),
    }
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        calls[entry]()


def test_warnock_against_both_engines():
    for n, d, seed in [(8, 1, 1), (16, 2, 2), (12, 3, 3), (32, 2, 4), (24, 4, 5), (6, 5, 3)]:
        pts = generate_uniform(n, d, seed=seed)
        w = warnock_l2(pts)
        auto = lp_discrepancy(pts, 2.0, rel_tol=1e-10).value
        assert abs(auto - w) / w < 1e-9
        # force the adaptive route too (d = 1 is closed form inside it)
        grid = build_cell_grid(pts)
        scaled, scale, _, _ = lp_adaptive_integral(grid, 2.0, 1e-10)
        forced = scale * math.sqrt(scaled)
        assert abs(forced - w) / w < 1e-9


# (N, d, seed, requested rel_tol): seeded sets with N <= 8, among them
# sets whose integrand kinks inside a column, where an order-difference
# estimate that does not cut at the kinks falls short of the true error
MPMATH_CASES = [(5, 1, 1, 1e-9), (8, 1, 2, 1e-9), (6, 2, 3, 1e-8), (8, 2, 4, 1e-8),
                (4, 2, 136, 1e-3), (6, 2, 213, 1e-6), (6, 2, 213, 1e-12),
                (8, 2, 203, 1e-6), (8, 2, 209, 1e-3)]


@pytest.mark.parametrize("n, d, seed, tol", MPMATH_CASES)
def test_against_mpmath_oracle(n, d, seed, tol):
    pts = generate_uniform(n, d, seed=seed)
    # d = 1 is closed form per cell in both routes; d = 2 must meet rel_tol,
    # and its error estimate must cover the true error
    bound = 1e-12 if d == 1 else tol
    for p in (1.0, 1.7, 2.5, 7.0):
        want = lp_mpmath(pts, p, dps=30 if d == 1 else 20)
        got = lp_discrepancy(pts, p, rel_tol=tol)
        assert abs(got.value - want) <= bound * want, (p, got.value, want)
        if d == 2:
            assert abs(got.value - want) <= got.abs_error_estimate, (p, got, want)


def test_warnock_empty_set():
    assert abs(warnock_l2(empty_pointset(3)) - 3.0 ** -1.5) < 1e-15


def test_moment_engine_matches_adaptive():
    checked = 0
    for n, d, seed in [(8, 2, 3), (16, 2, 5), (8, 3, 9), (6, 4, 10), (5, 5, 11)]:
        pts = generate_uniform(n, d, seed=seed)
        grid = build_cell_grid(pts)
        for p in range(2, MOMENT_P_MAX + 1, 2):
            j_mom, amp = lp_moment_integral(grid, p)
            if amp > MOMENT_AMP_MAX:
                continue
            scaled, scale, err_j, _ = lp_adaptive_integral(grid, float(p), 1e-13)
            j_ada = scaled * scale ** p
            # the moment sum loses up to about amp * 5e-16 to cancellation
            assert abs(j_mom - j_ada) / j_mom < 1e-9 + amp * 1e-15, (n, d, p, amp)
            # and the error the cache reports for it covers that loss
            mom = LpCache(pts).norm(float(p), rel_tol=1e-3)
            assert mom.diagnostics["engine"] == "moment"
            ada = scale * scaled ** (1.0 / p)
            ada_err = ada * err_j / (p * scaled)
            assert abs(mom.value - ada) <= mom.abs_error_estimate + ada_err, (n, d, p, amp)
            checked += 1
    assert checked >= 30


def test_moment_route_only_within_tolerance():
    # (16,2) seed 5 at p = 8 cancels by amp ~1.4e6, about 1.8e-10 of the
    # norm: the moment result meets 1e-6, and 1e-12 goes to the adaptive
    # engine, also from a cache that already holds the looser result
    cache = LpCache(generate_uniform(16, 2, seed=5))
    loose = cache.norm(8.0, rel_tol=1e-6)
    assert loose.diagnostics["engine"] == "moment"
    assert loose.abs_error_estimate <= 1e-6 * loose.value
    tight = cache.norm(8.0, rel_tol=1e-12)
    assert tight.diagnostics["engine"] == "adaptive"
    assert abs(loose.value - tight.value) <= loose.abs_error_estimate + tight.abs_error_estimate


def test_adaptive_converges_in_d4():
    # p = 1 kinks inside many pieces; runs at two tolerances must agree
    # within their reported errors, and the tight one must meet its own
    pts = generate_uniform(8, 4, seed=0)
    loose = lp_discrepancy(pts, 1.0, rel_tol=1e-9)
    tight = lp_discrepancy(pts, 1.0, rel_tol=1e-12)
    assert abs(loose.value - tight.value) <= loose.abs_error_estimate + tight.abs_error_estimate
    assert tight.abs_error_estimate <= 1e-12 * tight.value


def test_large_p_loose_tolerance_estimate_covers():
    # at p = 150 and J-level tolerance 0.15 the first pass once kept a
    # piece whose orders 3 and 6 both undershot a steep rise while the
    # value stayed just above the missed-peak share of its sup bound
    pts = generate_uniform(10, 3, seed=3)
    got = lp_discrepancy(pts, 150.0, rel_tol=1e-3)
    want = lp_discrepancy(pts, 150.0, rel_tol=1e-12)
    assert abs(got.value - want.value) <= got.abs_error_estimate, (got, want)


@pytest.mark.parametrize("n, d, seed", [(32, 2, 0), (16, 3, 1), (8, 4, 0)])
def test_large_p_estimates_cover_tight_rerun(n, d, seed):
    pts = generate_uniform(n, d, seed=seed)
    for p in (400.0, 1000.0):
        want = lp_discrepancy(pts, p, rel_tol=1e-13)
        for tol in (1e-6, 1e-9):
            got = lp_discrepancy(pts, p, rel_tol=tol)
            assert abs(got.value - want.value) <= tol * want.value, (p, tol, got, want)
            assert abs(got.value - want.value) <= got.abs_error_estimate, (p, tol, got, want)


def test_luxemburg_ladder_reaches_top_level(monkeypatch):
    # the p ladder a Luxemburg series reads; the refinement doubles some
    # pieces up to the top Gauss level, and every rung matches a tight rerun
    levels = set()
    eval_pieces = integrate._eval_pieces

    def spy(col, lo, hi, corners, stack, level, low=None):
        levels.add(level)
        return eval_pieces(col, lo, hi, corners, stack, level, low)

    monkeypatch.setattr(integrate, "_eval_pieces", spy)
    grid = build_cell_grid(generate_halton(64, 2))
    for p in range(6, 57, 2):
        got, _, err, _ = lp_adaptive_integral(grid, float(p), p * 1e-9)
        want, _, err_tight, _ = lp_adaptive_integral(grid, float(p), p * 1e-13)
        assert abs(got - want) <= err + err_tight, (p, got, want, err)
        assert err <= p * 1e-9 * got + 1e-15 * got
    assert integrate._MAX_LEVEL in levels


def test_elements_count_kernel_work(monkeypatch):
    counted = []
    inner_stack = integrate._inner_stack

    def spy(q, a_cnt, *args, **kwargs):
        counted.append(q.shape[0] * q.shape[1] * a_cnt.shape[1])
        return inner_stack(q, a_cnt, *args, **kwargs)

    monkeypatch.setattr(integrate, "_inner_stack", spy)
    for n, d, seed, p in [(9, 1, 3, 2.5), (16, 2, 5, 1.0), (8, 3, 2, 40.0)]:
        counted.clear()
        grid = build_cell_grid(generate_uniform(n, d, seed=seed))
        _, _, _, diag = lp_adaptive_integral(grid, p, 1e-10)
        assert diag["elements"] == sum(counted) > 0, (n, d, p)


def test_moment_engine_rejects_odd_p():
    grid = build_cell_grid(generate_uniform(4, 2, seed=1))
    with pytest.raises(ValueError):
        lp_moment_integral(grid, 3)


def test_frozen_values():
    for (n, d, seed), table in FROZEN_LP.items():
        pts = generate_uniform(n, d, seed=seed)
        for p, want in table.items():
            got = lp_discrepancy(pts, p, rel_tol=1e-9).value
            assert abs(got - want) / want < 1e-8, (n, d, p)


def test_norm_nondecreasing_in_p_and_below_sup():
    for n, d, seed in [(10, 1, 40), (12, 2, 41), (8, 3, 42)]:
        pts = generate_uniform(n, d, seed=seed)
        cache = LpCache(pts, rel_tol=1e-8)
        sup = cache.sup_abs
        prev = 0.0
        for p in (1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 17.0, 65.0, 257.0):
            v = cache.norm(p).value
            assert v >= prev * (1.0 - 1e-7)
            assert v <= sup * (1.0 + 1e-9)
            prev = v
        # the L_p norm climbs to the sup norm as p grows
        assert cache.norm(4097.0).value > 0.95 * sup


def test_extreme_p_sup_limit_engine():
    pts = generate_uniform(6, 2, seed=50)
    cache = LpCache(pts)
    res = cache.norm(2.0 ** 21)
    assert res.value == pytest.approx(cache.sup_abs, rel=1e-3)
    assert res.abs_error_estimate < 1e-2 * res.value


@pytest.mark.parametrize("pts", [generate_uniform(8, 2, seed=0), generate_halton(64, 2),
                                 generate_uniform(32, 3, seed=0)], ids=["u8x2", "h64x2", "u32x3"])
def test_astronomical_p_reaches_the_sup(pts, capfd):
    # pieces at the sup point shrink until their midpoint rounds to an end,
    # and near p = 1e308 the logs of the empty columns overflow
    star = star_discrepancy_exact(pts)
    for p in (1e20, 1e100, 1e200, 1e308):
        res = lp_discrepancy(pts, p)
        assert math.isfinite(res.value)
        assert abs(res.value - star) <= res.abs_error_estimate
    # at p = 1e12 the norm is still below the sup, by about sup |log J| / p
    res = lp_discrepancy(pts, 1e12)
    assert star * (1.0 - 1e-9) <= res.value <= star + res.abs_error_estimate
    assert capfd.readouterr().err == ""


def test_tolerance_below_double_rounding_is_floored():
    pts = generate_uniform(8, 2, seed=0)
    for p in (1.0, 2.5, 20.0):
        tiny, tight = (lp_discrepancy(pts, p, rel_tol=tol) for tol in (1e-300, 1e-13))
        assert tiny.diagnostics["rel_tol"] == REL_TOL_FLOOR
        assert abs(tiny.value - tight.value) <= tiny.abs_error_estimate + tight.abs_error_estimate
    tiny, tight = (luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=tol) for tol in (1e-300, 1e-13))
    assert abs(tiny.value - tight.value) <= tiny.abs_error_estimate + tight.abs_error_estimate


def test_error_estimates_honest_against_tight_solve():
    for n, d, seed in [(16, 2, 11), (12, 3, 17)]:
        grid = build_cell_grid(generate_uniform(n, d, seed=seed))
        for p in (3.0, 7.5, 33.0):
            tight, _, _, _ = lp_adaptive_integral(grid, p, 1e-11)
            loose, _, err, _ = lp_adaptive_integral(grid, p, 1e-4)
            assert abs(loose - tight) <= 3.0 * max(err, 1e-11 * abs(tight))


def test_cache_memoizes_and_respects_tolerance():
    pts = generate_uniform(12, 2, seed=60)
    cache = LpCache(pts, rel_tol=1e-6)
    first = cache.norm(3.0)
    assert cache.norm(3.0) is first
    tighter = cache.norm(3.0, rel_tol=1e-10)
    assert tighter is not first
    assert cache.norm(3.0) is tighter
    assert abs(tighter.value - first.value) <= first.abs_error_estimate + tighter.abs_error_estimate


def test_lp_zero_discrepancy_impossible_but_zero_scale_guard():
    # a single point at the origin makes the discrepancy vanish nowhere,
    # but tiny sup values must still go through the scaled engine cleanly
    pts = PointSet(np.array([[0.0, 0.0]]))
    res = lp_discrepancy(pts, 3.0, rel_tol=1e-8)
    assert 0.0 < res.value <= 1.0


def test_tiny_coordinates_stay_finite():
    # outer node products below about 1e-308 once made inf * 0 = NaN
    # cells; a strip that thin changes no norm, so zero is the reference
    tiny = 2.2250738585072014e-308
    for coords in ([[2.2e-311, 0.0]], [[0.0, 0.0, 0.5], [0.0, tiny, 0.0], [0.125, 0.0, 0.0]]):
        pts = PointSet(np.array(coords))
        flat = PointSet(np.where(pts.coords < 1e-300, 0.0, pts.coords))
        for p in (1.0, 2.5, 7.0):
            got = lp_discrepancy(pts, p, rel_tol=1e-8)
            want = lp_discrepancy(flat, p, rel_tol=1e-8)
            assert abs(got.value - want.value) <= 1e-8 * want.value


def test_norm_result_float_coercion():
    res = NormResult(value=0.25, abs_error_estimate=0.0)
    assert float(res) == 0.25


def test_diagnostics_report_engine():
    pts = generate_uniform(8, 2, seed=70)
    assert lp_discrepancy(pts, 2.0).diagnostics["engine"] == "moment"
    assert lp_discrepancy(pts, 2.5).diagnostics["engine"] == "adaptive"
    assert lp_discrepancy(empty_pointset(2), 2.0).diagnostics["engine"] == "empty-exact"
    grid = build_cell_grid(generate_uniform(8, 1, seed=71))
    _, _, _, diag = lp_adaptive_integral(grid, 2.5, 1e-9)
    assert diag["engine"] == "exact-1d"
