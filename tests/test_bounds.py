"""Constants, inequalities, and tractability bound checks."""

import math

import numpy as np
import pytest

from discnorm import bounds
from discnorm.bounds import (
    SANDWICH_LOWER_BASE,
    BoundReport,
    construction_constants_check,
    empirical_inverse_discrepancy,
    hnww_empirical_check,
    initial_alpha_lower,
    initial_of,
    initial_phi_lower,
    lemma1_sandwich_check,
    min_const_check,
    nbound1,
    stirling_check,
    theorem2_constant,
    theorem2_n_bound,
    _general_lower_const,
)
from discnorm.lp import LpCache, initial_lp
from discnorm.orlicz import WeightFn, alpha_norm, phi_norm
from discnorm.pointset import empty_pointset, generate_uniform


def test_stirling_holds_everywhere_in_domain():
    for p in range(1, 171):
        rep = stirling_check(p)
        assert rep.holds, p
        assert rep.margin >= -1e-12
    with pytest.raises(ValueError):
        stirling_check(0)
    with pytest.raises(ValueError):
        stirling_check(171)


def test_theorem2_constant_values():
    # alpha = 1: 2601 * (sqrt(2 pi)/e^(11/12))^2 = 2601 * 2 pi / e^(11/6)
    want = 2601.0 * 2.0 * math.pi / math.exp(11.0 / 6.0)
    assert theorem2_constant(1.0) == pytest.approx(want, rel=1e-14)
    # large-alpha limit is the bare 2601
    assert abs(theorem2_constant(1e6) - 2601.0) / 2601.0 < 1e-4
    with pytest.raises(ValueError):
        theorem2_constant(0.5)


def test_theorem2_n_bound_frozen_and_saturation():
    assert theorem2_n_bound(2.0, 0.5, 1) == 14456
    assert theorem2_n_bound(2.0, 1e-200, 5) == 10 ** 308
    with pytest.raises(ValueError):
        theorem2_n_bound(2.0, 0.0, 1)
    with pytest.raises(ValueError):
        theorem2_n_bound(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        theorem2_n_bound(2.0, 0.5, 0)
    # nonincreasing in eps, nondecreasing in d
    assert theorem2_n_bound(2.0, 0.9, 3) < theorem2_n_bound(2.0, 0.1, 3)
    seq = [theorem2_n_bound(1.5, 0.5, d) for d in range(1, 9)]
    assert all(a <= b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("fn, args", [
    (theorem2_constant, (math.nan,)),
    (theorem2_constant, (math.inf,)),
    (theorem2_n_bound, (math.nan, 0.5, 3)),
    (theorem2_n_bound, (math.inf, 0.5, 3)),
    (initial_alpha_lower, (3, math.nan)),
    (stirling_check, (2.5,)),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_bound_helpers_reject_nan_infinite_alpha_and_fractional_p(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_initial_alpha_lower_infinite_alpha_is_the_limit():
    assert initial_alpha_lower(3, math.inf) == 0.25


def test_nbound1_frozen_value():
    assert nbound1(0.5, 2, WeightFn.power(1.0, 1.0)) == 1842
    assert nbound1(1e-200, 2, WeightFn.power(1.0, 1.0)) == 10 ** 308


def test_nbound1_scaling_slope_matches_power_exponent():
    for r in (0.0, 0.5, 1.0):
        w = WeightFn.power(1.0, r)
        ds = [2 ** k for k in range(3, 11)]
        xs = [math.log(d) for d in ds]
        ys = [math.log(nbound1(0.5, d, w)) for d in ds]
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert abs(slope - (3.0 + 2.0 * r)) < 0.1, r


def test_nbound1_weak_tractability_for_subexp():
    w = WeightFn.subexp(0.5)
    vals = []
    for k in (1, 2, 3, 4):
        d = 10 ** k
        eps = 1.0 / d
        vals.append(math.log(nbound1(eps, d, w)) / (d + 1.0 / eps))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_min_const_scan():
    rep = min_const_check()
    assert rep.holds
    assert rep.params["argmin"] == 20
    assert rep.params["min_value"] == pytest.approx(0.25794407801699337, abs=1e-12)


def test_construction_constants():
    rep = construction_constants_check(12.75)
    assert rep.holds
    assert rep.params["sixteen_a_sq"] == 2601.0
    assert construction_constants_check(100.0).holds
    assert not construction_constants_check(1.0).holds
    with pytest.raises(ValueError):
        construction_constants_check(0.0)


def test_initial_lower_bounds_hold():
    w = WeightFn.power(1.0, 1.0)
    for d in (1, 2, 4, 8):
        val = phi_norm(empty_pointset(d), w).value
        assert val >= initial_phi_lower(d, w)
    for d in (2, 5, 10):
        for alpha in (1.0, 2.0):
            val = alpha_norm(empty_pointset(d), alpha).value
            assert val >= initial_alpha_lower(d, alpha)
    with pytest.raises(ValueError):
        initial_alpha_lower(1, 2.0)


def test_general_lower_const_honors_non_monotone_dip():
    w = WeightFn.tabulated(((1.0, 2.0), (1.5, 0.5), (4.0, 3.0)))
    const = _general_lower_const(w, 4.0)
    closed_form = min(1.0, float(w.phi(1.0)) / float(w.phi(4.0)))
    # the dip at p = 1.5 drives the infimum well below the closed form
    assert const < 0.2 < closed_form


def test_lemma1_sandwich_small_sets():
    for n, d, seed in [(8, 1, 100), (8, 2, 101)]:
        pts = generate_uniform(n, d, seed=seed)
        cache = LpCache(pts)
        for alpha in (1.0, 2.0):
            rep = lemma1_sandwich_check(pts, alpha, cache=cache)
            assert rep.holds
            assert rep.lhs <= rep.params["luxemburg"] <= rep.rhs
        rep = lemma1_sandwich_check(pts, 2.0, phi=WeightFn.power(1.0, 0.5), cache=cache)
        assert rep.holds


def test_lemma1_sandwich_rejects_bounded_weight_before_any_norm(monkeypatch):
    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was computed for a weight that is rejected")

    monkeypatch.setattr(bounds, "phi_norm", no_norm)
    monkeypatch.setattr(bounds, "luxemburg_norm", no_norm)
    w = WeightFn.tabulated(((1.0, 1.0), (10.0, 3.0)))
    with pytest.raises(ValueError, match="unbounded weight"):
        lemma1_sandwich_check(generate_uniform(8, 2, seed=0), 2.0, phi=w)


def test_lemma1_sandwich_empty_set():
    pts = empty_pointset(2)
    rep = lemma1_sandwich_check(pts, 2.0)
    assert rep.holds


def test_hnww_empirical():
    rep1 = hnww_empirical_check(1, 16, 8, seed=0)
    assert rep1.holds
    rep2 = hnww_empirical_check(2, 64, 8, seed=0)
    assert rep2.holds
    with pytest.raises(ValueError):
        hnww_empirical_check(4, 16, 4, seed=0)


def test_initial_of_norm_specs():
    assert initial_of({"norm": "star"}, 3) == 1.0
    assert initial_of({"norm": "lp", "p": 2.0}, 2) == initial_lp(2.0, 2)
    assert initial_of({"norm": "alpha-norm", "alpha": 2.0}, 2) > 0.0


def test_empirical_inverse_star_d1():
    # the one-point Halton candidate {1/2} already achieves D* = 1/2
    assert empirical_inverse_discrepancy({"norm": "star"}, 0.5, 1, seed=0) == 1


def test_empirical_inverse_monotone_in_eps():
    loose = empirical_inverse_discrepancy({"norm": "star"}, 0.6, 1, seed=3)
    tight = empirical_inverse_discrepancy({"norm": "star"}, 0.2, 1, seed=3)
    assert loose <= tight


def test_empirical_inverse_cap_raises():
    with pytest.raises(RuntimeError):
        empirical_inverse_discrepancy({"norm": "star"}, 1e-3, 2, seed=0,
                                      k_trials=1, n_cap=8)


def test_bound_report_json():
    rep = stirling_check(7)
    data = rep.to_json()
    assert set(data) == {"name", "lhs", "rhs", "holds", "margin", "params", "note"}
    assert list(data) == ["name", "lhs", "rhs", "holds", "margin", "params", "note"]
    assert data["holds"] is True
