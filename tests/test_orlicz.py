"""Young functions, weight functions, and Luxemburg norms."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from discnorm import integrate
from discnorm.lp import LpCache, lp_discrepancy
from discnorm.orlicz import (
    OrliczSpec,
    WeightFn,
    alpha_norm,
    luxemburg_norm,
    phi_norm,
    young_eval,
)
from discnorm.pointset import PointSet, empty_pointset, generate_uniform
from oracles import luxemburg_norm_piecewise, modular_by_quadrature

# Root of K * (e^(1/K) - 1) = 2, i.e. the norm of the empty-set local
# discrepancy |f(t)| = t on [0, 1] under psi_1; frozen from brentq.
EMPTY_D1_ALPHA1 = 0.7959050946318331

# One weight of each kind.
ALL_KINDS = [
    WeightFn.factorial(2.0),
    WeightFn.power(1.5, 0.5),
    WeightFn.subexp(0.5),
    WeightFn.tabulated(((1.0, 2.0), (4.0, 1.0), (16.0, 3.0))),
]


class TestWeightFn:
    def test_factorial_kind_values(self):
        w = WeightFn.factorial(1.0)
        # phi(p) = (Gamma(p + 1))^(1/p): phi(2) = sqrt(2)
        assert float(w.phi(2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        w2 = WeightFn.factorial(2.0)
        # phi(alpha l)^(alpha l) = l!, here l = 2, alpha = 2
        assert float(w2.phi(4.0)) ** 4 == pytest.approx(2.0, rel=1e-12)

    def test_power_and_subexp_values(self):
        w = WeightFn.power(2.0, 0.5)
        assert float(w.phi(4.0)) == pytest.approx(4.0, rel=1e-14)
        s = WeightFn.subexp(0.5)
        assert float(s.phi(9.0)) == pytest.approx(math.exp(3.0), rel=1e-14)

    def test_tabulated_interpolates_and_extrapolates_flat(self):
        w = WeightFn.tabulated(((1.0, 2.0), (4.0, 1.0), (16.0, 3.0)))
        assert float(w.phi(0.5)) == pytest.approx(2.0, rel=1e-12)
        assert float(w.phi(100.0)) == pytest.approx(3.0, rel=1e-12)
        assert float(w.phi(2.5)) == pytest.approx(1.5, rel=1e-12)

    def test_is_unbounded_exact_per_kind(self):
        assert WeightFn.factorial(2.0).is_unbounded()
        assert WeightFn.subexp(0.3).is_unbounded()
        assert WeightFn.power(1.0, 0.001).is_unbounded()
        assert not WeightFn.power(5.0, 0.0).is_unbounded()
        assert not WeightFn.tabulated(((1.0, 1.0), (2.0, 9.0))).is_unbounded()

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightFn.power(-1.0, 0.5)
        with pytest.raises(ValueError):
            WeightFn.power(1.0, -0.1)
        with pytest.raises(ValueError):
            WeightFn.subexp(1.0)
        with pytest.raises(ValueError):
            WeightFn.subexp(0.0)
        with pytest.raises(ValueError):
            WeightFn.factorial(0.5)
        with pytest.raises(ValueError):
            WeightFn(kind="nope")
        # an infinite parameter is rejected too; power(1, inf) would give a
        # phi norm of 0.0 with error 0.0
        for make in (lambda: WeightFn.factorial(math.inf),
                     lambda: WeightFn.power(1.0, math.inf),
                     lambda: WeightFn.power(math.inf, 0.5)):
            with pytest.raises(ValueError):
                make()

    def test_json_round_trip_all_kinds(self):
        weights = [
            WeightFn.factorial(2.5),
            WeightFn.power(3.0, 1.5),
            WeightFn.subexp(0.25),
            WeightFn.tabulated(((1.0, 1.0), (8.0, 4.0))),
        ]
        for w in weights:
            data = json.loads(json.dumps(w.to_json()))
            back = WeightFn.from_json(data)
            assert back == w

    def test_min_phi_from_nonmonotone_tabulated(self):
        w = WeightFn.tabulated(((1.0, 5.0), (4.0, 1.0), (8.0, 3.0)))
        # minimum over [2, inf) is at the dip, not at the left end
        assert w.min_phi_from(2.0) == 1.0
        assert w.min_phi_from(6.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("w", ALL_KINDS)
    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
    def test_rejects_p_not_positive(self, w, p):
        with pytest.raises(ValueError):
            w.log_phi(p)
        with pytest.raises(ValueError):
            w.phi(p)

    @pytest.mark.parametrize("w", ALL_KINDS)
    def test_scalar_in_float_out(self, w):
        for p in (1.0, 2.5, 40.0):
            assert type(w.log_phi(p)) is float
            assert type(w.phi(p)) is float


class TestYoungFunction:
    def test_series_matches_closed_form_for_factorial_weight(self):
        for a in (1.0, 2.0, 3.0):
            spec = OrliczSpec(a, WeightFn.factorial(a))
            for x in np.linspace(0.01, 3.0, 7):
                want = math.expm1(x ** a)
                got = young_eval(spec, float(x))
                assert abs(got - want) <= 1e-12 * max(want, 1.0)

    def test_closed_form_kind(self):
        spec = OrliczSpec(2.0)
        assert young_eval(spec, 0.0) == 0.0
        assert young_eval(spec, 1.3) == pytest.approx(math.expm1(1.69), rel=1e-15)

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            young_eval(OrliczSpec(1.0), -0.5)

    def test_spec_rejects_bounded_weight(self):
        with pytest.raises(ValueError):
            OrliczSpec(2.0, WeightFn.power(1.0, 0.0))
        with pytest.raises(ValueError):
            OrliczSpec(0.5)
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            OrliczSpec(math.inf)

    def test_log_denom_exact_kind_is_log_factorial(self):
        spec = OrliczSpec(2.0)
        assert spec.log_denom(5) == pytest.approx(math.log(120.0), rel=1e-14)
        spec_w = OrliczSpec(2.0, WeightFn.power(1.0, 1.0))
        # log(phi(alpha l)^(alpha l)) = alpha l * log(alpha l) for phi(p) = p
        assert spec_w.log_denom(3) == pytest.approx(6.0 * math.log(6.0), rel=1e-14)

    @pytest.mark.parametrize("weight", [None] + [w for w in ALL_KINDS if w.is_unbounded()])
    def test_log_denom_returns_float(self, weight):
        spec = OrliczSpec(2.0, weight)
        for ell in (1, 3, 7.0):
            assert type(spec.log_denom(ell)) is float


class TestLuxemburgPiecewise:
    def test_constant_function_closed_form(self):
        for a in (1.0, 2.0, 3.0):
            for c in (0.37, 1.0, 2.5):
                got = luxemburg_norm_piecewise([1.0], [c], OrliczSpec(a))
                want = c / math.log(2.0) ** (1.0 / a)
                assert abs(got.value - want) <= 1e-10 * want

    def test_homogeneity(self):
        vols = [0.25, 0.5, 0.25]
        vals = [0.1, 0.4, 0.9]
        spec = OrliczSpec(2.0)
        base = luxemburg_norm_piecewise(vols, vals, spec).value
        scaled = luxemburg_norm_piecewise(vols, [3.0 * v for v in vals], spec).value
        assert scaled == pytest.approx(3.0 * base, rel=1e-10)

    def test_zero_function(self):
        assert luxemburg_norm_piecewise([1.0], [0.0], OrliczSpec(1.0)).value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            luxemburg_norm_piecewise([1.0, 0.5], [0.2], OrliczSpec(1.0))
        with pytest.raises(ValueError):
            luxemburg_norm_piecewise([1.0], [-0.2], OrliczSpec(1.0))


class TestLuxemburgNorm:
    def test_empty_set_d1_transcendental_root(self):
        lux = luxemburg_norm(empty_pointset(1), OrliczSpec(1.0))
        assert abs(lux.value - EMPTY_D1_ALPHA1) <= 1e-6 * EMPTY_D1_ALPHA1
        root = brentq(lambda k: k * math.expm1(1.0 / k) - 2.0, 0.1, 10.0, xtol=1e-14)
        assert abs(root - EMPTY_D1_ALPHA1) < 1e-12

    def test_empty_set_d1_quadrature_oracle_alpha2(self):
        def mod_minus_one(k):
            val, _ = quad(lambda t: math.exp((t / k) ** 2) - 1.0, 0.0, 1.0)
            return val - 1.0

        root = brentq(mod_minus_one, 0.05, 10.0, xtol=1e-13)
        lux = luxemburg_norm(empty_pointset(1), OrliczSpec(2.0))
        assert abs(lux.value - root) <= 1e-6 * root

    def test_modular_is_one_at_the_norm_by_independent_quadrature(self):
        pts = generate_uniform(8, 2, seed=14)
        spec = OrliczSpec(1.0)
        lux = luxemburg_norm(pts, spec, rel_tol=1e-9)
        mod, err = modular_by_quadrature(pts, spec, lux.value, rel_tol=1e-6)
        assert abs(mod - 1.0) <= 1e-4

    def test_series_weight_route_matches_exact_kind(self):
        pts = generate_uniform(10, 1, seed=33)
        cache = LpCache(pts)
        exact = luxemburg_norm(pts, OrliczSpec(2.0), cache=cache)
        series = luxemburg_norm(pts, OrliczSpec(2.0, WeightFn.factorial(2.0)), cache=cache)
        assert series.value == pytest.approx(exact.value, rel=1e-6)

    def test_large_alpha_approaches_star_discrepancy(self):
        single = PointSet(np.array([[0.5]]))
        lux = luxemburg_norm(single, OrliczSpec(256.0))
        assert abs(lux.value - 0.5) / 0.5 < 0.05

    def test_zero_points_zero_sup_guard(self):
        # a singleton at the origin in d = 1: discrepancy is -t, sup is 1 at t -> 1
        pts = PointSet(np.array([[0.0]]))
        lux = luxemburg_norm(pts, OrliczSpec(1.0))
        assert lux.value > 0.0

    def test_error_estimate_brackets_tight_rerun(self):
        pts = generate_uniform(12, 2, seed=44)
        loose = luxemburg_norm(pts, OrliczSpec(1.5), rel_tol=1e-4)
        tight = luxemburg_norm(pts, OrliczSpec(1.5), rel_tol=1e-10,
                               cache=LpCache(pts, rel_tol=1e-10))
        assert abs(loose.value - tight.value) <= 3.0 * loose.abs_error_estimate

    def test_default_cache_is_the_tolerance(self):
        pts = generate_uniform(12, 2, seed=45)
        own = luxemburg_norm(pts, OrliczSpec(2.0))
        given = luxemburg_norm(pts, OrliczSpec(2.0), cache=LpCache(pts, 1e-8))
        assert own == given
        loose = luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=1e-5)
        assert loose == luxemburg_norm(pts, OrliczSpec(2.0), rel_tol=1e-5,
                                       cache=LpCache(pts, 1e-5))
        # the L_p share of the error is the cache tolerance itself
        lo, hi = own.diagnostics["bracket"]
        assert own.abs_error_estimate == 0.5 * (hi - lo) + own.value * 1e-8

    @pytest.mark.parametrize("n, d, seed", [(16, 2, 3), (8, 3, 1)])
    def test_error_covers_tight_rerun_for_every_kind(self, n, d, seed):
        pts = generate_uniform(n, d, seed=seed)
        tight = LpCache(pts, 1e-12)
        for spec in [OrliczSpec(1.0), OrliczSpec(2.0),
                     OrliczSpec(2.0, WeightFn.factorial(2.0)),
                     OrliczSpec(2.0, WeightFn.power(1.0, 0.5)),
                     OrliczSpec(2.0, WeightFn.power(100.0, 0.5)),
                     OrliczSpec(2.0, WeightFn.power(0.01, 0.5)),
                     OrliczSpec(1.0, WeightFn.subexp(0.5))]:
            ref = luxemburg_norm(pts, spec, rel_tol=1e-12, cache=tight).value
            for res in (luxemburg_norm(pts, spec, cache=LpCache(pts, 1e-5)),
                        luxemburg_norm(pts, spec, rel_tol=1e-6)):
                assert abs(res.value - ref) <= res.abs_error_estimate
            # the start is within a factor 4 of the root here, so at 1e-8 the
            # bisection of the bracket closes in at most 29 halvings
            assert luxemburg_norm(pts, spec).diagnostics["iterations"] <= 29

    def test_diagnostics_carry_the_lp_reads(self, monkeypatch):
        pts = generate_uniform(8, 2, seed=46)
        cache = LpCache(pts)
        res = luxemburg_norm(pts, OrliczSpec(2.0), cache=cache)
        assert res.diagnostics["p_values"] == len(cache._values)
        assert res.diagnostics["budget_exceeded"] is False
        # one box in all: every adaptive L_p result runs out of budget
        monkeypatch.setattr(integrate, "PIECE_BUDGET", 1)
        starved = luxemburg_norm(pts, OrliczSpec(2.0))
        assert starved.diagnostics["budget_exceeded"] is True


class TestPhiNorm:
    def test_single_point_alpha_norm_attained_at_p_equal_one(self):
        single = PointSet(np.array([[0.5]]))
        res = alpha_norm(single, 1.0)
        # ||disc||_1 = 1/4 and ||disc||_p / p only decays from there
        assert res.value == pytest.approx(0.25, rel=1e-6)
        assert res.diagnostics["p_star"] == 1.0

    @pytest.mark.parametrize("r, exact", [(0.05, 0.38048224386330),
                                          (0.1, 0.31829840516725),
                                          (0.15, 0.27850618580627)])
    def test_interior_max_matches_closed_form(self, r, exact):
        # the point 0.5 in d = 1 has ||disc||_p = 0.5 (p+1)^(-1/p); against
        # p^r the sup sits at p* = 63.7, 21.6 and 9.83 (mpmath)
        res = phi_norm(PointSet(np.array([[0.5]])), WeightFn.power(1.0, r))
        assert abs(res.value - exact) <= res.abs_error_estimate
        assert res.value == pytest.approx(exact, rel=1e-6)
        assert res.diagnostics["p_star"] > 8.0

    def test_sup_at_p_one_walks_one_side(self):
        res = alpha_norm(generate_uniform(64, 2, seed=0), 2.0, rel_tol=1e-6)
        assert res.diagnostics["p_star"] == 1.0
        assert res.diagnostics["p_values"] <= 12

    def test_alpha_norm_equals_power_weight_phi_norm(self):
        pts = generate_uniform(8, 2, seed=55)
        cache = LpCache(pts)
        a = alpha_norm(pts, 2.0, cache=cache)
        b = phi_norm(pts, WeightFn.power(1.0, 0.5), cache=cache)
        assert a.value == b.value

    def test_bounded_weight_reports_honest_tail(self):
        single = PointSet(np.array([[0.5]]))
        w = WeightFn.tabulated(((1.0, 2.0), (8.0, 2.0)))
        res = phi_norm(single, w)
        # for a constant weight the sup norm is star/2 = 1/4, reached only
        # as p -> inf; the scan cannot close the tail and must say so
        assert not res.diagnostics["tail_closed"]
        assert abs(res.value - 0.25) <= res.abs_error_estimate
        assert res.value <= 0.25 + 1e-12

    def test_growing_weight_closes_tail(self):
        pts = generate_uniform(8, 2, seed=56)
        res = phi_norm(pts, WeightFn.subexp(0.5))
        assert res.diagnostics["tail_closed"]
        assert res.diagnostics["tail_margin"] == 0.0

    def test_empty_set_phi_norm_positive(self):
        res = phi_norm(empty_pointset(2), WeightFn.power(1.0, 1.0))
        assert res.value > 0.0

    def test_default_cache_is_the_tolerance(self):
        pts = generate_uniform(12, 2, seed=57)
        for tol in (1e-6, 1e-4):
            own = alpha_norm(pts, 2.0, rel_tol=tol)
            assert own == alpha_norm(pts, 2.0, rel_tol=tol, cache=LpCache(pts, tol))

    def test_error_estimate_brackets_tight_rerun(self):
        pts = generate_uniform(12, 2, seed=58)
        w = WeightFn.power(1.0, 0.5)
        loose = phi_norm(pts, w, rel_tol=1e-4)
        tight = phi_norm(pts, w, rel_tol=1e-10, cache=LpCache(pts, rel_tol=1e-10))
        assert abs(loose.value - tight.value) <= 3.0 * loose.abs_error_estimate

    def test_diagnostics_carry_the_lp_reads(self):
        pts = generate_uniform(8, 2, seed=59)
        cache = LpCache(pts)
        res = alpha_norm(pts, 2.0, cache=cache)
        assert res.diagnostics["p_values"] == len(cache._values)
        assert res.diagnostics["budget_exceeded"] is False

    def test_alpha_validation(self):
        for alpha in (0.5, math.inf):
            with pytest.raises(ValueError):
                alpha_norm(generate_uniform(4, 1, seed=0), alpha)
