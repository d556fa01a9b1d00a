"""Orlicz-space machinery: exponential Young functions, weight functions,
Luxemburg norms of the local discrepancy, and weighted sup-of-L_p norms.

The Young functions have the form psi(x) = sum_{l>=1} (x / phi(alpha l))^(alpha l)
for a weight phi; with the factorial weight phi(p) = Gamma(p/alpha + 1)^(1/p)
the series collapses to exp(x^alpha) - 1.  Because every term is a power of
|f|, Tonelli turns the modular integral into a series over L_{alpha l} norms
of f, which is how ``luxemburg_norm`` avoids quadrature inside the root
search entirely: each new series term is one cached L_p computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .integrate import NumericalError
from .lp import LpCache, NormResult, check_p, check_rel_tol
from .pointset import PointSet, check_real

# The fields each weight kind reads, each real one with its range as
# check_real's (lo, hi, ends).
_WEIGHT_FIELDS = {"factorial": {"alpha": (1, math.inf, "[)")},
                  "power": {"C": (0, math.inf, "()"), "r": (0, math.inf, "[)")},
                  "subexp": {"tau": (0, 1, "()")}, "tabulated": {"knots": None}}
# Series caps; hitting one raises instead of returning a quietly wrong value.
_ELL_CAP = 2048
# Halvings or doublings to bracket a Luxemburg root, and bisection steps
# to close it.
_ROOT_STEP_CAP = 200
# Largest log2 p on the phi-norm walk, and the step halvings around its best point.
_PHI_X_CAP = 12
_PHI_HALVINGS = 7


def _fields_of(kind) -> dict:
    """The fields weight kind ``kind`` reads; any other kind is an error."""
    if not isinstance(kind, str) or kind not in _WEIGHT_FIELDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    return _WEIGHT_FIELDS[kind]


@dataclass(frozen=True)
class WeightFn:
    """Weight phi(p) on p >= 1, positive, with phi(p)^p convex in use.

    Kinds:
      factorial(alpha): phi(p) = Gamma(p/alpha + 1)^(1/p), so that
          phi(alpha l)^(alpha l) = l!.
      power(C, r):      phi(p) = C * p^r with C > 0, r >= 0.
      subexp(tau):      phi(p) = exp(p^tau) with 0 < tau < 1.
      tabulated(knots): linear interpolation of (p, value) pairs, constant
          beyond the first/last knot.

    ``log_phi`` and ``phi`` take one float p > 0 and return a float;
    ``phi`` is inf where phi(p) is beyond a double, so a ratio over it is 0.
    """

    kind: str
    alpha: float | None = None
    C: float | None = None
    r: float | None = None
    tau: float | None = None
    knots: tuple | None = None

    def __post_init__(self):
        fields = _fields_of(self.kind)
        for name in ("alpha", "C", "r", "tau", "knots"):
            if getattr(self, name) is not None and name not in fields:
                raise ValueError(f"a {self.kind} weight takes no field {name!r}")
        if self.kind != "tabulated":
            for name, rule in fields.items():
                object.__setattr__(self, name, check_real(getattr(self, name), name, *rule))
            return
        try:
            pairs = [(p, v) for p, v in self.knots]
        except (TypeError, ValueError):
            raise ValueError("knots must be a list of [p, value] pairs") from None
        if not pairs:
            raise ValueError("tabulated weight needs at least one knot")
        knots = tuple((check_real(p, f"knot {i} p"), check_real(v, f"knot {i} value", 0))
                      for i, (p, v) in enumerate(pairs))
        if any(b[0] <= a[0] for a, b in zip(knots, knots[1:])):
            raise ValueError("tabulated knots must have strictly increasing p")
        object.__setattr__(self, "knots", knots)

    @classmethod
    def factorial(cls, alpha: float) -> "WeightFn":
        return cls(kind="factorial", alpha=alpha)

    @classmethod
    def power(cls, C: float = 1.0, r: float = 0.5) -> "WeightFn":
        return cls(kind="power", C=C, r=r)

    @classmethod
    def subexp(cls, tau: float) -> "WeightFn":
        return cls(kind="subexp", tau=tau)

    @classmethod
    def tabulated(cls, knots) -> "WeightFn":
        return cls(kind="tabulated", knots=knots)

    def log_phi(self, p: float) -> float:
        if not p > 0:
            raise ValueError("weight evaluated at p <= 0")
        if self.kind == "factorial":
            return math.lgamma(p / self.alpha + 1.0) / p
        if self.kind == "power":
            return math.log(self.C) + self.r * math.log(p)
        if self.kind == "subexp":
            return p ** self.tau
        kp, kv = zip(*self.knots)
        return math.log(np.interp(p, kp, kv))

    def phi(self, p: float) -> float:
        try:
            return math.exp(self.log_phi(p))
        except OverflowError:
            return math.inf

    def is_unbounded(self) -> bool:
        """Whether phi(p) -> infinity as p grows; exact per kind."""
        if self.kind == "power":
            return self.r > 0.0
        return self.kind != "tabulated"

    def min_phi_from(self, p: float) -> float:
        """inf of phi over [p, infinity); exact for the built-in kinds."""
        if self.kind == "tabulated":
            return min([self.phi(p)] + [v for q, v in self.knots if q >= p])
        # factorial, power, subexp weights are nondecreasing on p >= 1
        return self.phi(p)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in _WEIGHT_FIELDS[self.kind]:
            v = getattr(self, name)
            out[name] = [list(k) for k in v] if name == "knots" else v
        return out

    @classmethod
    def from_json(cls, data: dict) -> "WeightFn":
        if not isinstance(data, dict):
            raise ValueError(f"a weight descriptor must be a JSON object, got {data!r}")
        kind = data.get("kind")
        fields = _fields_of(kind)
        for key in data:
            if key != "kind" and key not in fields:
                raise ValueError(f"a {kind} weight takes no field {key!r}")
        return cls(kind=kind, **{k: data[k] for k in fields if k in data})


def check_weight(weight) -> WeightFn:
    """``weight`` if it is a ``WeightFn``, else a ValueError; a weight's
    JSON form is none."""
    if not isinstance(weight, WeightFn):
        raise ValueError(f"weight must be a WeightFn, got {weight!r}")
    return weight


@dataclass(frozen=True)
class OrliczSpec:
    """Young function psi(x) = sum_{l>=1} (x / phi(alpha l))^(alpha l).

    With ``weight=None`` the factorial weight is implied, so psi(x) =
    exp(x^alpha) - 1: the series denominators are log l!, and the
    Luxemburg search starts at sup / log(2)^(1/alpha), where the modular
    is at most 1.
    """

    alpha: float
    weight: WeightFn | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_p(self.alpha, "alpha"))
        if self.weight is not None and not check_weight(self.weight).is_unbounded():
            raise ValueError(
                "the Young-series construction needs an unbounded weight; "
                "this one stays bounded"
            )

    def log_denom(self, ell: float) -> float:
        """log phi(alpha*ell)^(alpha*ell) as a float, i.e. log(ell!) for the exact kind."""
        if self.weight is None:
            return math.lgamma(ell + 1.0)
        p = self.alpha * ell
        return p * self.weight.log_phi(p)


def _modular_series(lp_at, sup: float, spec: OrliczSpec, k: float) -> float:
    """The modular sum_l (||f||_{alpha l} / (k phi(alpha l)))^(alpha l).

    lp_at(p) must return the L_p norm of f; sup is an upper bound for all
    of them (the sup norm), which gives a rigorous geometric tail bound.
    Returns the partial sum once it passes 1, inf on overflow, and else the
    partial sum plus its tail bound once that is at most 1 or the tail is
    below 1e-14 of the sum: above 1 exactly when k is below the root.
    """
    logk = math.log(k)
    logsup = math.log(sup)
    partial = 0.0
    for ell in range(1, _ELL_CAP + 1):
        p = spec.alpha * ell
        if p == math.inf:
            raise ValueError(f"alpha = {spec.alpha!r} is too large: the series exponent "
                             f"alpha * {ell} is beyond a double")
        logden = spec.log_denom(ell)
        norm = lp_at(p)
        logterm = p * (math.log(norm) - logk) - logden
        if logterm > 709.0:
            return math.inf
        partial += math.exp(logterm)
        if partial > 1.0:
            return partial
        # tail from the sup bound: tau_l decays at least geometrically
        # once consecutive log-taus decrease
        lt1 = spec.alpha * (ell + 1) * (logsup - logk) - spec.log_denom(ell + 1)
        lt2 = spec.alpha * (ell + 2) * (logsup - logk) - spec.log_denom(ell + 2)
        if lt1 < 709.0 and lt2 < lt1:
            tau1 = math.exp(lt1)
            q = math.exp(lt2 - lt1)
            if q < 1.0:
                tail = tau1 / (1.0 - q)
                if tail <= 1e-14 * max(partial, 1e-300) or partial + tail <= 1.0:
                    return partial + tail
    raise NumericalError("modular series needs more than the term cap allows")


def _luxemburg_root(modular, hi: float, rel_tol: float):
    """Bracket and bisect the K where the decreasing ``modular(K)`` crosses 1.

    K counts as below the root exactly when modular(K) > 1.  If the first
    halving of ``hi`` is below, ``hi`` doubles until it is not; else K
    halves on until it is, and the bracket's upper end stays ``hi``.
    Bisection then closes it to hi - lo <= rel_tol * hi.  Returns (lo,
    hi, bisection steps).
    """
    up = modular(hi / 2.0) > 1.0
    k = hi if up else hi / 4.0
    for _ in range(_ROOT_STEP_CAP):
        if (modular(k) > 1.0) != up:
            break
        k = 2.0 * k if up else k / 2.0
    else:
        raise NumericalError("could not bracket the Luxemburg norm")
    lo, hi = (k / 2.0, k) if up else (k, hi)
    for iters in range(_ROOT_STEP_CAP):
        if hi - lo <= rel_tol * hi:
            return lo, hi, iters
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if modular(mid) > 1.0 else (lo, mid)
    raise NumericalError("Luxemburg bisection failed to converge")


def _lp_reader(points: PointSet, cache: LpCache | None, rel_tol: float):
    """The opening of an Orlicz norm: ``cache`` (by default one at
    ``rel_tol``; never one on other points), a p -> L_p value function on
    it, and the results that function has read."""
    if cache is None:
        cache = LpCache(points, rel_tol)
    elif cache.points is not points and not np.array_equal(cache.points.coords, points.coords):
        raise ValueError("the cache was built on another point set")
    read: dict[float, NormResult] = {}

    def lp_at(p):
        res = read[p] = cache.norm(p)
        return res.value

    return cache, lp_at, read


def _lp_summary(read: dict) -> dict:
    """Diagnostics of the L_p results a norm read: budget flag and p count."""
    return {"budget_exceeded": any(r.diagnostics.get("budget_exceeded", False)
                                   for r in read.values()),
            "p_values": len(read)}


def luxemburg_norm(points: PointSet, spec: OrliczSpec, rel_tol: float = 1e-8,
                   cache: LpCache | None = None) -> NormResult:
    """Luxemburg norm of the local discrepancy of ``points`` under psi.

    Root search on K for modular(K) = 1 from K = sup|f| / x1; K counts as
    below the root exactly when the modular's partial sum plus tail bound
    is above 1.  For the exact kind x1 = psi^{-1}(1) = log(2)^(1/alpha),
    so modular(K) <= 1 pointwise there; for a weighted kind x1 =
    phi(alpha), where the first series term reaches 1, and the search may
    double K from there.  The modular blows up as K -> 0.

    Scaling every L_p value and K by 1 + eps leaves the modular
    unchanged, and the modular falls as K grows, so L_p values within
    ``cache.rel_tol`` move the root by at most that relative amount: the
    error is half the final bracket plus ``value * cache.rel_tol``.
    Without a ``cache`` the L_p values are computed at ``rel_tol``.
    """
    rel_tol = check_rel_tol(rel_tol)
    cache, lp_at, read = _lp_reader(points, cache, rel_tol)
    sup = cache.grid.sup_abs
    x1 = (math.log(2.0) ** (1.0 / spec.alpha) if spec.weight is None
          else spec.weight.phi(spec.alpha))
    if not sup / x1 > 0.0:
        raise ValueError(f"phi({spec.alpha:g}) is too large: no Luxemburg start sup / phi > 0")
    lo, hi, iters = _luxemburg_root(
        lambda k: _modular_series(lp_at, sup, spec, k), sup / x1, rel_tol)
    value = 0.5 * (lo + hi)
    err = 0.5 * (hi - lo) + value * cache.rel_tol
    return NormResult(
        value=value,
        abs_error_estimate=err,
        diagnostics={"engine": "orlicz-series", "iterations": iters,
                     "bracket": (lo, hi), **_lp_summary(read)},
    )


def phi_norm(points: PointSet, weight: WeightFn, rel_tol: float = 1e-6,
             cache: LpCache | None = None) -> NormResult:
    """sup over p >= 1 of ||local discrepancy||_{L_p} / phi(p).

    Walks the dyadic lattice x = log2 p up from p = 1 until sup|f| /
    phi(q) for every later q cannot beat the best value seen, then halves
    the step around the best point, moving it to the better neighbour
    each time.  This assumes the ratio is unimodal in log p; every p read
    lies on one lattice, so calls sharing a ``cache`` reuse them.  If phi
    grows too slowly to close the tail by p = 4096, the gap is reported
    in the error estimate rather than hidden.  Without a ``cache`` the
    L_p values are computed at ``rel_tol``; their share of the error is
    ``cache.rel_tol`` of the value, never below 1e-3.
    """
    weight = check_weight(weight)
    cache, lp_at, read = _lp_reader(points, cache, check_rel_tol(rel_tol))

    def g(x):
        p = 2.0 ** x
        return lp_at(p) / weight.phi(p)

    best, x_star = -math.inf, 0.0
    for x_last in range(_PHI_X_CAP + 1):
        v = g(x_last)
        if v > best:
            best, x_star = v, float(x_last)
        tail = cache.grid.sup_abs / weight.min_phi_from(2.0 ** x_last)
        tail_closed = tail <= best
        if tail_closed:
            break
    for k in range(1, _PHI_HALVINGS + 1):
        centre = x_star
        for x in (centre - 2.0 ** -k, centre + 2.0 ** -k):
            if 0.0 <= x <= x_last:
                v = g(x)
                if v > best:
                    best, x_star = v, x

    tail_margin = max(0.0, tail - best)
    err = best * max(cache.rel_tol, 1e-3) + tail_margin
    if not (math.isfinite(best) and math.isfinite(err)):
        raise NumericalError(f"the ratio L_p / phi(p) or its error is beyond a double "
                             f"(best {best!r} at p = {2.0 ** x_star:g})")
    return NormResult(
        value=best,
        abs_error_estimate=err,
        diagnostics={"engine": "phi-sup", "p_star": 2.0 ** x_star,
                     "grid_points": x_last + 1, "tail_closed": tail_closed,
                     "tail_margin": tail_margin, **_lp_summary(read)},
    )


def alpha_norm(points: PointSet, alpha: float, rel_tol: float = 1e-6,
               cache: LpCache | None = None) -> NormResult:
    """sup over p >= 1 of ||local discrepancy||_{L_p} / p^(1/alpha)."""
    alpha = check_p(alpha, "alpha")
    res = phi_norm(points, WeightFn.power(1.0, 1.0 / alpha),
                   rel_tol=rel_tol, cache=cache)
    return replace(res, diagnostics={**res.diagnostics, "alpha": alpha})
