"""Acceptance suite: one test per advertised guarantee of the library.

Each test prints a single PASS/FAIL line (with the measured quantity and
wall time) so a full run doubles as a checklist.  Tolerances are stated
inline; random instances use fixed seeds and are deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from discnorm.bounds import (
    SANDWICH_LOWER_BASE,
    NormSpec,
    construction_constants_check,
    empirical_inverse_discrepancy,
    hnww_empirical_check,
    lemma1_sandwich_check,
    min_const_check,
    nbound1,
    stirling_check,
    theorem2_constant,
    theorem2_n_bound,
)
from discnorm.lp import LpCache, lp_discrepancy, warnock_l2
from discnorm.orlicz import OrliczSpec, WeightFn, luxemburg_norm
from discnorm.pointset import PointSet, empty_pointset, generate_uniform
from discnorm.star import star_discrepancy_exact
from oracles import luxemburg_norm_piecewise, star_discrepancy_lower_mc


@pytest.fixture
def report(capsys):
    """Emit one live PASS/FAIL line per criterion, then assert it."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


SANDWICH_COMBOS = [(n, d) for n in (8, 16, 32) for d in (1, 2, 3)]


@pytest.fixture(scope="module")
def sandwich_sets():
    """100 seeded sets with N in {8,16,32}, d in {1,2,3}, shared L_p caches."""
    sets = []
    for seed in range(100):
        n, d = SANDWICH_COMBOS[seed % len(SANDWICH_COMBOS)]
        pts = generate_uniform(n, d, seed)
        sets.append((pts, LpCache(pts, rel_tol=1e-5)))
    return sets


def test_01_empty_set_lp_closed_form(report):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3, 4):
        for p in (1.0, 2.0, 3.0, 4.5, 7.0):
            want = (p + 1.0) ** (-d / p)
            got = lp_discrepancy(empty_pointset(d), p).value
            worst = max(worst, abs(got - want) / want)
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-6 and dt < 10.0,
               f"empty-set L_p vs (p+1)^(-d/p), max rel err {worst:.2e}, {dt:.2f}s")


def test_02_warnock_oracle_equivalence(report):
    t0 = time.perf_counter()
    combos = [(n, d) for n in (8, 16, 32, 64) for d in (1, 2, 3)]
    combos += [(8, 4), (16, 4), (32, 4)]
    worst = 0.0
    for i in range(50):
        n, d = combos[i % len(combos)]
        pts = generate_uniform(n, d, seed=i)
        ref = warnock_l2(pts)
        got = lp_discrepancy(pts, 2.0).value
        worst = max(worst, abs(got - ref) / ref)
    dt = time.perf_counter() - t0
    report(2, worst <= 1e-8 and dt < 60.0,
               f"L_2 engine vs Warnock on 50 instances, max rel diff {worst:.2e}, {dt:.2f}s")


def test_03_star_exactness(report):
    t0 = time.perf_counter()
    grids_exact = True
    for n in (1, 2, 4, 8):
        centered = PointSet((2.0 * np.arange(1, n + 1)[:, None] - 1.0) / (2.0 * n))
        grids_exact &= star_discrepancy_exact(centered) == 1.0 / (2.0 * n)
    combos = [(n, d) for n in (4, 8, 16, 32) for d in (1, 2, 3)]
    min_gap = math.inf
    for i in range(50):
        n, d = combos[i % len(combos)]
        pts = generate_uniform(n, d, seed=i)
        exact = star_discrepancy_exact(pts)
        lower = star_discrepancy_lower_mc(pts, samples=20_000, seed=i)
        min_gap = min(min_gap, exact - lower)
    dt = time.perf_counter() - t0
    report(3, grids_exact and min_gap >= -1e-12 and dt < 60.0,
               f"centered grids exact 1/(2N): {grids_exact}, "
               f"min (exact - MC lower) {min_gap:.2e}, {dt:.2f}s")


def test_04_luxemburg_correctness(report):
    t0 = time.perf_counter()
    # empty set, d = 1, alpha = 1: the norm K solves the scalar equation
    # integral_0^1 (exp(t/K) - 1) dt = 1, i.e. K (e^(1/K) - 1) = 2
    root = brentq(lambda k: k * math.expm1(1.0 / k) - 2.0, 0.3, 2.0,
                  xtol=1e-15, rtol=8.9e-16)
    got = luxemburg_norm(empty_pointset(1), OrliczSpec(1.0)).value
    rel = abs(got - root) / root
    worst_pw = 0.0
    c = 0.3
    for alpha in (1.0, 2.0, 3.0):
        want = c / math.log(2.0) ** (1.0 / alpha)
        val = luxemburg_norm_piecewise([1.0], [c], OrliczSpec(alpha)).value
        worst_pw = max(worst_pw, abs(val - want))
    dt = time.perf_counter() - t0
    report(4, rel <= 1e-6 and worst_pw <= 1e-10,
               f"root-finder oracle rel err {rel:.2e}, "
               f"constant-integrand max err {worst_pw:.2e}, {dt:.2f}s")


def test_05_sandwich_exponential_weight(sandwich_sets, report):
    t0 = time.perf_counter()
    violations = 0
    total = 0
    for pts, cache in sandwich_sets:
        for alpha in (1.0, 1.5, 2.0, 3.0):
            rep = lemma1_sandwich_check(pts, alpha, cache=cache)
            total += 1
            violations += not rep.holds
    dt = time.perf_counter() - t0
    report(5, violations == 0 and dt < 600.0,
               f"{violations} violations on {total} sandwich checks "
               f"(100 sets x alpha in {{1,1.5,2,3}}), {dt:.1f}s")


def test_06_sandwich_general_weights(sandwich_sets, report):
    t0 = time.perf_counter()
    weights = [WeightFn.power(1.0, 0.5), WeightFn.power(1.0, 1.0),
               WeightFn.subexp(0.5)]
    violations = 0
    total = 0
    for pts, cache in sandwich_sets:
        for w in weights:
            for alpha in (1.0, 2.0):
                rep = lemma1_sandwich_check(pts, alpha, phi=w, cache=cache)
                total += 1
                violations += not rep.holds
    dt = time.perf_counter() - t0
    report(6, violations == 0 and dt < 600.0,
               f"{violations} violations on {total} general-weight checks "
               f"(power r in {{0.5,1}}, subexp 0.5), {dt:.1f}s")


def test_07_stirling_suite(report):
    t0 = time.perf_counter()
    reports = [stirling_check(p) for p in range(1, 171)]
    ok = all(r.holds for r in reports)
    min_margin = min(r.margin for r in reports)
    dt = time.perf_counter() - t0
    report(7, ok,
               f"factorial bounds hold for p = 1..170, "
               f"min log-domain margin {min_margin:.2e}, {dt:.2f}s")


def test_08_named_constants(report):
    t0 = time.perf_counter()
    mc = min_const_check()
    argmin_ok = mc.params["argmin"] == 20
    value_ok = abs(mc.params["min_value"] - 0.257944) <= 1e-6
    cons = construction_constants_check(12.75)
    exact_ok = 16.0 * 12.75 ** 2 == 2601.0
    c_lim = theorem2_constant(1e6)
    rel_dev = abs(c_lim - 2601.0) / 2601.0
    dt = time.perf_counter() - t0
    ok = mc.holds and argmin_ok and value_ok and cons.holds and exact_ok \
        and rel_dev <= 1e-3
    report(8, ok,
               f"argmin d = {mc.params['argmin']}, min {mc.params['min_value']:.9f}, "
               f"16*12.75^2 == 2601: {exact_ok}, large-alpha constant rel dev "
               f"{rel_dev:.2e}, {dt:.2f}s")


def test_09_scaling_slopes(report):
    t0 = time.perf_counter()
    ds = 2.0 ** np.arange(3, 11)
    slopes = []
    ok = True
    for r in (0.0, 0.5, 1.0):
        w = WeightFn.power(1.0, r)
        vals = [math.log(nbound1(0.5, int(d), w)) for d in ds]
        slope = float(np.polyfit(np.log(ds), vals, 1)[0])
        slopes.append(slope)
        ok &= abs(slope - (3.0 + 2.0 * r)) < 0.1
    dt = time.perf_counter() - t0
    report(9, ok and dt < 1.0,
               "log-log slopes vs targets 3+2r: "
               + ", ".join(f"{s:.3f}" for s in slopes) + f", {dt:.2f}s")


def test_10_weak_tractability(report):
    t0 = time.perf_counter()
    w = WeightFn.subexp(0.5)
    vals = []
    for d in (10, 100, 1000, 10000):
        eps = 1.0 / d
        vals.append(math.log(nbound1(eps, d, w)) / (d + 1.0 / eps))
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    dt = time.perf_counter() - t0
    report(10, decreasing and vals[-1] < 0.05,
               "log N / (d + 1/eps) at d = 1/eps in {10,...,1e4}: "
               + ", ".join(f"{v:.4f}" for v in vals) + f", {dt:.2f}s")


def test_11_inverse_discrepancy_vs_bound(report):
    t0 = time.perf_counter()
    eps = 0.5
    eps_prime = eps * SANDWICH_LOWER_BASE ** 0.5 / math.sqrt(2.0)
    norm = NormSpec("psi-alpha", alpha=2.0)
    ok = True
    parts = []
    for d in (1, 2):
        n_emp = empirical_inverse_discrepancy(norm, eps, d, k_trials=16, seed=0)
        n_bnd = theorem2_n_bound(2.0, eps_prime, d)
        ok &= n_emp <= n_bnd
        parts.append(f"d={d}: {n_emp} <= {n_bnd}")
    dt = time.perf_counter() - t0
    report(11, ok and dt < 600.0, "; ".join(parts) + f", {dt:.1f}s")


def test_12_hnww_empirical(report):
    t0 = time.perf_counter()
    reps = [hnww_empirical_check(1, 16, 32, 0), hnww_empirical_check(2, 64, 32, 0)]
    ok = all(r.holds for r in reps)
    dt = time.perf_counter() - t0
    detail = "; ".join(
        f"(d={r.params['d']}, N={r.params['n']}): D* {r.lhs:.4f} <= {r.rhs:.4f}"
        for r in reps
    )
    report(12, ok, detail + f", {dt:.1f}s")
