"""Constants, inequalities, and tractability bound checks."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from discnorm import bounds
from discnorm.bounds import (
    SANDWICH_LOWER_BASE,
    BoundReport,
    NormSpec,
    construction_constants_check,
    empirical_inverse_discrepancy,
    hnww_empirical_check,
    initial_alpha_lower,
    initial_phi_lower,
    lemma1_sandwich_check,
    min_const_check,
    nbound1,
    stirling_check,
    theorem2_constant,
    theorem2_n_bound,
    _general_lower_const,
)
from discnorm.lp import LpCache, NormResult, initial_lp, lp_discrepancy
from discnorm.orlicz import OrliczSpec, WeightFn, alpha_norm, luxemburg_norm, phi_norm
from discnorm.pointset import (
    PointSet,
    empty_pointset,
    generate_halton,
    generate_uniform,
    load_pointset,
)


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
    # d^2 overflows a double
    assert theorem2_n_bound(1.0, 0.5, 10 ** 200) == 10 ** 308
    with pytest.raises(ValueError):
        theorem2_n_bound(2.0, 0.0, 1)
    with pytest.raises(ValueError):
        theorem2_n_bound(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        theorem2_n_bound(2.0, 0.5, 0)
    # a finite bound past the saturation integer saturates too
    assert theorem2_n_bound(1.0, 1e-150, 10 ** 150) == 10 ** 308
    # nonincreasing in eps, nondecreasing in d
    assert theorem2_n_bound(2.0, 0.9, 3) < theorem2_n_bound(2.0, 0.1, 3)
    seq = [theorem2_n_bound(1.5, 0.5, d) for d in range(1, 9)]
    assert all(a <= b for a, b in zip(seq, seq[1:]))


# The one-line error each helper gives for an input it rejects.
_REJECTED = {theorem2_constant: "alpha must be a finite number >= 1",
             theorem2_n_bound: "alpha must be a finite number >= 1",
             initial_alpha_lower: r"alpha must lie in \[1, inf\]",
             stirling_check: r"p must lie in \[1, 170\]",
             nbound1: "d must be >= 1",
             construction_constants_check: "a must be a finite number > 0",
             empirical_inverse_discrepancy: "no candidate sets"}


def _rejected(fn, args, message=None):
    return pytest.param(fn, args, message or _REJECTED[fn], id=f"{fn.__name__}-{args!r}")


def _count(fn, args, i, name, lo, hi=None):
    """The cases that break the integer rule for count argument ``i`` of
    ``fn(*args)``: a float, even one of integer value, a bool, and a value
    below its range, and above it where it has a cap."""
    in_range = f"must be >= {lo}" if hi is None else f"must lie in [{lo}, {hi}]"
    bad = [(v, "must be an integer") for v in (2.5, 3.0, True)]
    bad += [(v, in_range) for v in ([lo - 1] if hi is None else [lo - 1, hi + 1])]
    return [_rejected(fn, args[:i] + (v,) + args[i + 1:],
                      "^" + re.escape(f"{name} {rule}, got {v!r}") + "$") for v, rule in bad]


def _real(fn, args, i, rule, *past):
    """The cases that break the real rule for argument ``i`` of ``fn(*args)``:
    NaN, a bool, a string and each value in ``past``, one past an end of
    its range, each matched in full against ``rule``, the message up to
    its ", got" part."""
    return [pytest.param(fn, args[:i] + (v,) + args[i + 1:],
                         "^" + re.escape(f"{rule}, got {v!r}") + "$",
                         id=f"{fn.__qualname__}-{rule.split(' must')[0]}-{v!r:.12}")
            for v in (math.nan, True, "x", *past)]


def _weight_json(base, name, value):
    return WeightFn.from_json({**base, name: value})


def _knot(p, value):
    return WeightFn.tabulated([(p, value)])


_PTS = generate_uniform(4, 2, 0)
_STAR = NormSpec("star")
_P = "must be a finite number >= 1"
_TOL = "rel_tol must be a finite number > 0"
_EPS = "eps must lie in (0, 1)"
_HUGE = 10 ** 400  # an int beyond a double
_POWER_JSON = {"kind": "power", "C": 1.0, "r": 0.5}  # a weight's JSON form, no weight
# Every real argument, through each routine that checks it.
_REAL_CASES = [
    *_real(initial_lp, (2.0, 2), 0, "p " + _P, 0.5, math.inf, _HUGE),
    *_real(lp_discrepancy, (_PTS, 2.0), 1, "p " + _P, 0.5, math.inf),
    *_real(LpCache(_PTS).norm, (2.0,), 0, "p " + _P, 0.5, math.inf),
    *_real(LpCache, (_PTS, 1e-6), 1, _TOL, 0.0, -1.0, math.inf, _HUGE),
    *_real(lp_discrepancy, (_PTS, 2.0, 1e-6), 2, _TOL, 0.0, math.inf),
    *_real(LpCache(_PTS).norm, (2.0, 1e-6), 1, _TOL, 0.0, math.inf),
    *_real(luxemburg_norm, (_PTS, OrliczSpec(2.0), 1e-6), 2, _TOL, 0.0, math.inf),
    *_real(phi_norm, (_PTS, WeightFn.power(1.0, 0.5), 1e-6), 2, _TOL, 0.0, math.inf),
    *_real(alpha_norm, (_PTS, 2.0, 1e-6), 2, _TOL, 0.0, math.inf),
    *_real(alpha_norm, (_PTS, 2.0), 1, "alpha " + _P, 0.5, math.inf),
    *_real(OrliczSpec, (2.0,), 0, "alpha " + _P, 0.5, math.inf),
    *_real(WeightFn.factorial, (2.0,), 0, "alpha " + _P, 0.5, math.inf),
    *_real(WeightFn.power, (1.0, 0.5), 0, "C must be a finite number > 0", 0.0, math.inf),
    *_real(WeightFn.power, (1.0, 0.5), 1, "r must be a finite number >= 0", -0.5, math.inf),
    *_real(WeightFn.subexp, (0.5,), 0, "tau must lie in (0, 1)", 0.0, 1.0),
    *_real(_weight_json, ({"kind": "factorial"}, "alpha", 2.0), 2, "alpha " + _P, 0.5),
    *_real(_weight_json, ({"kind": "power", "r": 0.5}, "C", 1.0), 2,
           "C must be a finite number > 0", 0.0),
    *_real(_weight_json, ({"kind": "power", "C": 1.0}, "r", 0.5), 2,
           "r must be a finite number >= 0", -0.5),
    *_real(_weight_json, ({"kind": "subexp"}, "tau", 0.5), 2, "tau must lie in (0, 1)", 1.0),
    *_real(_knot, (1.0, 2.0), 0, "knot 0 p must be a finite number", -math.inf, math.inf),
    *_real(_knot, (1.0, 2.0), 1, "knot 0 value must be a finite number > 0", 0.0, math.inf),
    *_real(NormSpec, ("lp", 2.0), 1, "p " + _P, 0.5, math.inf),
    *_real(NormSpec, ("alpha-norm", None, 2.0), 2, "alpha " + _P, 0.5, math.inf),
    *_real(theorem2_constant, (2.0,), 0, "alpha " + _P, 0.5, math.inf),
    *_real(theorem2_n_bound, (2.0, 0.5, 2), 1, _EPS, 0.0, 1.0),
    *_real(nbound1, (0.5, 2, WeightFn.power(1.0, 0.5)), 0, _EPS, 0.0, 1.0),
    *_real(empirical_inverse_discrepancy, (_STAR, 0.5, 2, 1), 1, _EPS, 0.0, 1.0),
    *_real(construction_constants_check, (12.75,), 0, "a must be a finite number > 0",
           0.0, math.inf, _HUGE),
    *_real(initial_alpha_lower, (2, 2.0), 1, "alpha must lie in [1, inf]", 0.5, -math.inf),
]


@pytest.mark.parametrize("fn, args, message", [
    _rejected(theorem2_constant, (math.nan,)),
    _rejected(theorem2_constant, (math.inf,)),
    _rejected(theorem2_n_bound, (math.nan, 0.5, 3)),
    _rejected(theorem2_n_bound, (math.inf, 0.5, 3)),
    _rejected(initial_alpha_lower, (3, math.nan)),
    # d is checked before phi is read at d
    _rejected(nbound1, (0.5, 0, WeightFn.power(1.0, 1.0))),
    _rejected(construction_constants_check, (math.nan,)),
    _rejected(construction_constants_check, (math.inf,)),
    # a bool is no real argument, though float() reads it as 1
    _rejected(construction_constants_check, (True,)),
    _rejected(initial_alpha_lower, (2, True)),
    # above d = 16 there is no Halton set, so no candidate without trials
    _rejected(empirical_inverse_discrepancy, (_STAR, 0.5, 17, 0)),
    _rejected(empirical_inverse_discrepancy, (_STAR, 1.5, 1), r"eps must lie in \(0, 1\)"),
    # a norm is a NormSpec, not a dict of its fields, read once the counts are checked
    _rejected(empirical_inverse_discrepancy, ({"norm": "star"}, 0.5, 1),
              "^" + re.escape("spec must be a NormSpec, got {'norm': 'star'}") + "$"),
    _rejected(empirical_inverse_discrepancy, ({"norm": "star"}, 0.5, 0), "^d must be >= 1"),
    # a weight is a WeightFn, with the one-line error OrliczSpec and NormSpec give
    *[pytest.param(fn, args, "^" + re.escape(f"weight must be a WeightFn, got {_POWER_JSON!r}")
                   + "$", id=f"{fn.__name__}-weight-json")
      for fn, args in ((phi_norm, (_PTS, _POWER_JSON)), (nbound1, (0.5, 2, _POWER_JSON)),
                       (initial_phi_lower, (2, _POWER_JSON)))],
    # every count argument takes only an integer in its range
    *_count(empty_pointset, (2,), 0, "dim", 1),
    *_count(generate_uniform, (3, 2, 0), 0, "n", 0),
    *_count(generate_uniform, (3, 2, 0), 1, "dim", 1),
    *_count(generate_uniform, (3, 2, 0), 2, "seed", 0),
    *_count(generate_halton, (3, 2), 0, "n", 0),
    *_count(generate_halton, (3, 2), 1, "dim", 1, 16),
    *_count(load_pointset, ("0.5\n", 1), 1, "dim", 1),
    *_count(initial_lp, (2.0, 2), 1, "dim", 1),
    *_count(stirling_check, (3,), 0, "p", 1, 170),
    *_count(theorem2_n_bound, (2.0, 0.5, 2), 2, "d", 1),
    *_count(nbound1, (0.5, 2, WeightFn.power(1.0, 0.5)), 1, "d", 1),
    *_count(initial_phi_lower, (2, WeightFn.power(1.0, 1.0)), 0, "d", 1),
    *_count(initial_alpha_lower, (2, 2.0), 0, "d", 2),
    *_count(hnww_empirical_check, (1, 16, 2, 0), 0, "d", 1),
    *_count(hnww_empirical_check, (1, 16, 2, 0), 1, "n", 1),
    *_count(hnww_empirical_check, (1, 16, 2, 0), 2, "k_trials", 1),
    *_count(empirical_inverse_discrepancy, (_STAR, 0.5, 2, 1), 2, "d", 1),
    *_count(empirical_inverse_discrepancy, (_STAR, 0.5, 2, 1), 3, "k_trials", 0),
    *_count(hnww_empirical_check, (1, 16, 2, 0), 3, "seed", 0),
    *_count(empirical_inverse_discrepancy, (_STAR, 0.5, 2, 1, 0), 4, "seed", 0),
    # every real argument takes only a real number in its range
    *_REAL_CASES,
])
def test_bound_helpers_reject_nan_infinite_alpha_and_fractional_p(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_inverse_discrepancy_rejects_negative_trials_at_every_d():
    for d in (2, 17):
        with pytest.raises(ValueError, match="k_trials must be >= 0"):
            empirical_inverse_discrepancy(_STAR, 0.5, d, k_trials=-5)
    # at d <= 16 the Halton set alone is a candidate
    assert empirical_inverse_discrepancy(_STAR, 0.5, 2, k_trials=0) == 3


def test_initial_alpha_lower_infinite_alpha_is_the_limit():
    assert initial_alpha_lower(3, math.inf) == 0.25


def test_nbound1_frozen_value():
    assert nbound1(0.5, 2, WeightFn.power(1.0, 1.0)) == 1842
    assert nbound1(1e-200, 2, WeightFn.power(1.0, 1.0)) == 10 ** 308


def test_nbound1_depends_on_phi_only_through_its_ratio():
    # phi(d) / inf phi does not change with the scale C of a power weight,
    # even where phi(d)^2 overflows or 1 / phi(1)^2 divides by zero
    for r, want in ((0.0, 461), (1.0, 1842), (2.0, 7367)):
        for c in (1e-300, 1e-200, 1e-3, 1.0, 7.0, 1e200, 1e300):
            assert nbound1(0.5, 2, WeightFn.power(c, r)) == want, (c, r)
    # nor by one unit where the bound is an exact integer, 2.5287^2 * 2 *
    # 3^2 * 2 / 1e-8, or anywhere on a grid of eps, d and r
    for c in (0.5, 2.0, 3.0, 7.0, 1e-3, 1e3):
        assert nbound1(1e-4, 2, WeightFn.power(c, 0.5)) == 23019565284, c
        for eps in (1e-4, 3e-3, 0.1, 0.5):
            for d in (1, 2, 3, 5, 10, 50):
                for r in (0.0, 0.25, 0.5, 1.0, 2.0):
                    want = nbound1(eps, d, WeightFn.power(1.0, r))
                    assert nbound1(eps, d, WeightFn.power(c, r)) == want, (c, eps, d, r)


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


def test_lemma1_sandwich_allows_the_reported_errors():
    # at alpha = 1000 the alpha-norm walk stops at its p = 4096 cap with
    # its tail open, and the Luxemburg norm lies 3e-4 above the upper
    # side, inside the base norm's reported error of 1.5e-3
    rep = lemma1_sandwich_check(generate_uniform(8, 2, seed=1), 1000.0)
    assert rep.margin < 0.0 and rep.holds


def test_lemma1_sandwich_rejects_a_value_beyond_its_errors(monkeypatch):
    # a Luxemburg value moved out of either side by more than the two
    # norms' errors, the Luxemburg one plus the upper constant times the
    # base one, fails; one moved by less holds
    pts = generate_uniform(8, 2, seed=1)
    cache = LpCache(pts)
    base = alpha_norm(pts, 2.0, cache=cache)
    lux = bounds.luxemburg_norm(pts, OrliczSpec(2.0), cache=cache)
    rep = lemma1_sandwich_check(pts, 2.0, cache=cache)
    assert rep.holds and rep.margin > 0.0
    slack = lux.abs_error_estimate + rep.params["upper_const"] * base.abs_error_estimate
    for value, holds in ((rep.rhs + 1.01 * slack, False), (rep.rhs + 0.99 * slack, True),
                         (rep.lhs - 1.01 * slack, False), (rep.lhs - 0.99 * slack, True)):
        moved = NormResult(value, lux.abs_error_estimate, lux.diagnostics)
        monkeypatch.setattr(bounds, "luxemburg_norm", lambda *args, **kwargs: moved)
        assert lemma1_sandwich_check(pts, 2.0, cache=cache).holds is holds, (value, slack)


def test_lemma1_sandwich_rejects_bounded_weight_before_any_norm(monkeypatch):
    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was computed for a weight that is rejected")

    monkeypatch.setattr(bounds, "phi_norm", no_norm)
    monkeypatch.setattr(bounds, "luxemburg_norm", no_norm)
    w = WeightFn.tabulated(((1.0, 1.0), (10.0, 3.0)))
    with pytest.raises(ValueError, match="unbounded weight"):
        lemma1_sandwich_check(generate_uniform(8, 2, seed=0), 2.0, phi=w)


def test_lemma1_sandwich_rejects_a_cache_of_another_point_set():
    pts = generate_uniform(8, 2, seed=1)
    for other in (generate_uniform(16, 2, seed=2), generate_uniform(8, 2, seed=2)):
        cache = LpCache(other)
        for phi in (None, WeightFn.power(1.0, 0.5)):
            with pytest.raises(ValueError, match="another point set"):
                lemma1_sandwich_check(pts, 2.0, phi=phi, cache=cache)
        assert cache._grid is None and not cache._values  # no L_p work was done
    # the same object or an equal copy reads the cache
    want = lemma1_sandwich_check(pts, 2.0, cache=LpCache(pts))
    assert lemma1_sandwich_check(PointSet(pts.coords), 2.0, cache=LpCache(pts)) == want


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
    assert NormSpec("star").initial(3) == 1.0
    assert NormSpec("lp", 2.0).initial(2) == initial_lp(2.0, 2)
    assert NormSpec("alpha-norm", alpha=2.0).initial(2) > 0.0
    # a boolean is not a number
    for kind, field, flag in (("lp", "p", True), ("alpha-norm", "alpha", False)):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            NormSpec(kind, **{field: flag})
    with pytest.raises(ValueError, match="^unknown norm 'bogus'$"):
        NormSpec("bogus")
    with pytest.raises(ValueError, match=r"^unknown norm \[1\]$"):
        NormSpec([1])
    # a weight is a WeightFn, not its JSON form
    for kind, params in (("phi", {}), ("psi-alpha", {"alpha": 2.0})):
        with pytest.raises(ValueError, match="^weight must be a WeightFn, got {'kind': 'power'}$"):
            NormSpec(kind, weight={"kind": "power"}, **params)
    # a parameter the kind does not read
    power = WeightFn.power(1.0, 0.5)
    for kind, kwargs, message in (("lp", {"p": 2, "alpha": 3}, "--norm lp takes no --alpha"),
                                  ("star", {"p": 3}, "--norm star takes no --p"),
                                  ("phi", {"weight": power, "alpha": 2},
                                   "--norm phi takes no --alpha"),
                                  ("alpha-norm", {"alpha": 2, "weight": power},
                                   "--norm alpha-norm takes no --phi")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NormSpec(kind, **kwargs)
    # the weight of a psi-alpha norm stays optional; that of a phi norm does not
    assert NormSpec("psi-alpha", alpha=2, weight=power).weight == power
    assert NormSpec("psi-alpha", alpha=2).weight is None
    with pytest.raises(ValueError, match="^--phi is required for --norm phi$"):
        NormSpec("phi")


def test_empirical_inverse_star_d1():
    # the one-point Halton candidate {1/2} already achieves D* = 1/2
    assert empirical_inverse_discrepancy(_STAR, 0.5, 1, seed=0) == 1


def test_empirical_inverse_monotone_in_eps():
    loose = empirical_inverse_discrepancy(_STAR, 0.6, 1, seed=3)
    tight = empirical_inverse_discrepancy(_STAR, 0.2, 1, seed=3)
    assert loose <= tight


def test_empirical_inverse_cap_raises(monkeypatch):
    monkeypatch.setattr(bounds, "INVERSE_N_CAP", 8)
    with pytest.raises(RuntimeError, match="exceeded the cap n = 8"):
        empirical_inverse_discrepancy(_STAR, 1e-3, 2, seed=0, k_trials=1)


@pytest.mark.parametrize("kwargs, holds, margin", [
    # one-sided: lhs <= rhs, margin rhs - lhs
    (dict(lhs=1.0, rhs=2.0), True, 1.0),
    (dict(lhs=1.0, rhs=1.0), True, 0.0),
    (dict(lhs=2.0, rhs=1.0), False, -1.0),
    # strict: lhs < rhs, so equality fails
    (dict(lhs=1.0, rhs=1.0, strict=True), False, 0.0),
    (dict(lhs=0.5, rhs=1.0, strict=True), True, 0.5),
    # slack lets lhs pass rhs by less than it; the margin ignores it
    (dict(lhs=1.25, rhs=1.0, slack=0.5), True, -0.25),
    (dict(lhs=1.25, rhs=1.0, slack=0.5, strict=True), True, -0.25),
    (dict(lhs=1.75, rhs=1.0, slack=0.5), False, -0.75),
    # two-sided: lhs <= value <= rhs, margin the smaller gap
    (dict(lhs=1.0, rhs=4.0, value=2.0), True, 1.0),
    (dict(lhs=1.0, rhs=4.0, value=0.5), False, -0.5),
    (dict(lhs=1.0, rhs=4.0, value=4.5), False, -0.5),
    # slack on each side of the two-sided form
    (dict(lhs=1.0, rhs=4.0, value=0.75, slack=0.5), True, -0.25),
    (dict(lhs=1.0, rhs=4.0, value=0.25, slack=0.5), False, -0.75),
    (dict(lhs=1.0, rhs=4.0, value=4.25, slack=0.5), True, -0.25),
    (dict(lhs=1.0, rhs=4.0, value=4.75, slack=0.5), False, -0.75),
    # an equality x == ref, as check(name, x, x, value=ref)
    (dict(lhs=3.0, rhs=3.0, value=3.0), True, 0.0),
    (dict(lhs=3.0, rhs=3.0, value=2.0), False, -1.0),
    (dict(lhs=3.0, rhs=3.0, value=4.0), False, -1.0),
    # a numpy side still gives a Python bool, so the report is JSON
    (dict(lhs=np.float64(1.0), rhs=2.0), True, 1.0),
])
def test_bound_report_check(kwargs, holds, margin):
    rep = BoundReport.check("t", **kwargs, params={"k": 1}, note="n")
    assert rep.holds is holds and rep.margin == margin
    assert json.loads(json.dumps(rep.to_json()))["holds"] is holds
    assert rep == BoundReport("t", kwargs["lhs"], kwargs["rhs"], holds, margin, {"k": 1}, "n")
    assert BoundReport.check("t", **kwargs) == replace(rep, params={}, note="")


def test_bound_report_json():
    rep = stirling_check(7)
    data = rep.to_json()
    assert set(data) == {"name", "lhs", "rhs", "holds", "margin", "params", "note"}
    assert list(data) == ["name", "lhs", "rhs", "holds", "margin", "params", "note"]
    assert data["holds"] is True
    # a numpy integer p is read as a Python int, so the report is JSON
    data = json.loads(json.dumps(stirling_check(np.int64(3)).to_json()))
    assert data == stirling_check(3).to_json() and type(data["params"]["p"]) is int
