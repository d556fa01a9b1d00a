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
from dataclasses import dataclass

import numpy as np

from .integrate import NumericalError
from .lp import LpCache, NormResult, check_p, check_rel_tol
from .pointset import PointSet

_WEIGHT_KINDS = ("factorial", "power", "subexp", "tabulated")
# Series caps; hitting one raises instead of returning a quietly wrong value.
_ELL_CAP = 2048
_YOUNG_TERM_CAP = 4096
# Halvings or doublings to bracket a Luxemburg root, and bisection steps
# to close it.
_ROOT_STEP_CAP = 200
# Largest log2 p on the phi-norm walk, and the step halvings around its best point.
_PHI_X_CAP = 12
_PHI_HALVINGS = 7

def _json_number(data: dict, key: str) -> float:
    """data[key] as a finite float; anything else is a ValueError."""
    try:
        value = float(data[key])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {data[key]!r}")
    return value


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

    ``log_phi`` and ``phi`` take one float p > 0 and return a float.
    """

    kind: str
    alpha: float | None = None
    C: float | None = None
    r: float | None = None
    tau: float | None = None
    knots: tuple | None = None

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "factorial":
            check_p(math.nan if self.alpha is None else self.alpha, "alpha")
        elif self.kind == "power":
            if not (self.C is not None and self.r is not None
                    and 0.0 < self.C < math.inf and 0.0 <= self.r < math.inf):
                raise ValueError("power weight needs finite C > 0 and r >= 0")
        elif self.kind == "subexp":
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError("subexp weight needs 0 < tau < 1")
        else:
            if not self.knots:
                raise ValueError("tabulated weight needs at least one knot")
            ps, vs = zip(*self.knots)
            if not all(0.0 < v < math.inf for v in vs):
                raise ValueError("tabulated weight values must be positive and finite")
            if not all(math.isfinite(p) for p in ps):
                raise ValueError("tabulated knots must have finite p")
            if any(b <= a for a, b in zip(ps, ps[1:])):
                raise ValueError("tabulated knots must have strictly increasing p")

    @classmethod
    def factorial(cls, alpha: float) -> "WeightFn":
        return cls(kind="factorial", alpha=float(alpha))

    @classmethod
    def power(cls, C: float = 1.0, r: float = 0.5) -> "WeightFn":
        return cls(kind="power", C=float(C), r=float(r))

    @classmethod
    def subexp(cls, tau: float) -> "WeightFn":
        return cls(kind="subexp", tau=float(tau))

    @classmethod
    def tabulated(cls, knots) -> "WeightFn":
        return cls(kind="tabulated", knots=tuple((float(p), float(v)) for p, v in knots))

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
        return math.exp(self.log_phi(p))

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
        for name in ("alpha", "C", "r", "tau"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.knots is not None:
            out["knots"] = [list(k) for k in self.knots]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "WeightFn":
        if not isinstance(data, dict):
            raise ValueError(f"a weight descriptor must be a JSON object, got {data!r}")
        kind = data.get("kind")
        if kind == "tabulated":
            try:
                return cls.tabulated(data["knots"])
            except TypeError:
                raise ValueError("knots must be a list of [p, value] pairs") from None
        kwargs = {k: _json_number(data, k) for k in ("alpha", "C", "r", "tau") if k in data}
        return cls(kind=kind, **kwargs)


@dataclass(frozen=True)
class OrliczSpec:
    """Young function psi(x) = sum_{l>=1} (x / phi(alpha l))^(alpha l).

    With ``weight=None`` the factorial weight is implied analytically and
    psi(x) = exp(x^alpha) - 1 is evaluated in closed form.
    """

    alpha: float
    weight: WeightFn | None = None

    def __post_init__(self):
        check_p(self.alpha, "alpha")
        if self.weight is not None and not self.weight.is_unbounded():
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


def young_eval(spec: OrliczSpec, x):
    """psi(x) for x >= 0, the layer's only function vectorised in x; overflow gives inf."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("young_eval needs x >= 0")
    if spec.weight is None:
        with np.errstate(over="ignore"):
            out = np.expm1(arr ** spec.alpha)
    else:
        out = np.zeros_like(arr)
        pos = arr > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            logx = np.where(pos, np.log(np.maximum(arr, 1e-320)), -np.inf)
            prev = np.full_like(arr, np.inf)
            for ell in range(1, _YOUNG_TERM_CAP + 1):
                p = spec.alpha * ell
                logterm = p * logx - spec.log_denom(ell)
                term = np.where(logterm > 709.0, np.inf, np.exp(logterm))
                out = out + term
                done = (~pos) | np.isinf(out) | (
                    (term <= 1e-17 * np.maximum(out, 1e-300)) & (logterm < prev)
                )
                if bool(np.all(done)):
                    break
                prev = logterm
            else:
                raise NumericalError("Young series did not converge within the term cap")
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def _modular_series(lp_at, sup: float, spec: OrliczSpec, k: float):
    """The modular sum_l (||f||_{alpha l} / (k phi(alpha l)))^(alpha l).

    lp_at(p) must return the L_p norm of f; sup is an upper bound for all
    of them (the sup norm), which gives a rigorous geometric tail bound.
    Returns (value, tail_bound); value is inf on overflow, and the sum may
    stop early once it is provably above or provably at most 1, the level
    the root search compares it with.
    """
    logk = math.log(k)
    logsup = math.log(sup)
    partial = 0.0
    for ell in range(1, _ELL_CAP + 1):
        p = spec.alpha * ell
        logden = spec.log_denom(ell)
        norm = lp_at(p)
        if norm <= 0.0:
            return partial, 0.0
        logterm = p * (math.log(norm) - logk) - logden
        if logterm > 709.0:
            return math.inf, 0.0
        partial += math.exp(logterm)
        if partial > 1.0:
            return partial, 0.0
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
                    return partial, tail
    raise NumericalError("modular series needs more than the term cap allows")


def _luxemburg_root(modular, hi: float, rel_tol: float):
    """Bracket and bisect the K where modular(K) crosses 1.

    ``modular(K)`` returns (value, tail bound) and decreases in K.  K is
    halved from ``hi`` until the value is above 1; if that takes a
    single halving, ``hi`` itself is tested and doubled while its value
    is above 1.  The bracket is then bisected until
    hi - lo <= rel_tol * hi; K counts as below the root while value +
    tail is above 1.  Returns (lo, hi, bisection steps).
    """
    lo = hi
    for _ in range(_ROOT_STEP_CAP):
        lo = lo / 2.0
        if modular(lo)[0] > 1.0:
            break
    else:
        raise NumericalError("could not bracket the Luxemburg norm from below")
    for _ in range(_ROOT_STEP_CAP):
        if 2.0 * lo < hi or modular(hi)[0] <= 1.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericalError("could not bracket the Luxemburg norm from above")
    iters = 0
    while (hi - lo) > rel_tol * hi:
        if iters == _ROOT_STEP_CAP:
            raise NumericalError("Luxemburg bisection failed to converge")
        mid = 0.5 * (lo + hi)
        val, tail = modular(mid)
        if val + tail > 1.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return lo, hi, iters


def _lp_reader(points: PointSet, cache: LpCache | None, rel_tol: float):
    """The opening of an Orlicz norm: the checked ``rel_tol``, a p -> L_p
    value function on ``cache`` (by default one at ``rel_tol``), the
    results it has read, and sup|f| for its tail bounds."""
    rel_tol = check_rel_tol(rel_tol)
    if cache is None:
        cache = LpCache(points, rel_tol)
    read: dict[float, NormResult] = {}

    def lp_at(p):
        res = read[float(p)] = cache.norm(p)
        return res.value

    return rel_tol, cache, lp_at, read, cache.sup_abs


def _lp_summary(read: dict) -> dict:
    """Diagnostics of the L_p results a norm read: budget flag and p count."""
    return {"budget_exceeded": any(r.diagnostics.get("budget_exceeded", False)
                                   for r in read.values()),
            "p_values": len(read)}


def luxemburg_norm(points: PointSet, spec: OrliczSpec, rel_tol: float = 1e-8,
                   cache: LpCache | None = None) -> NormResult:
    """Luxemburg norm of the local discrepancy of ``points`` under psi.

    Root search on K for modular(K) = 1, started at K = sup|f| / x1.
    For the closed-form kind x1 = psi^{-1}(1) = log(2)^(1/alpha), so
    modular(K) <= 1 pointwise there; for a weighted kind x1 = phi(alpha),
    where the first series term reaches 1, and the doubling branch of
    the root search brackets from there.  The modular blows up as K -> 0,
    so plain bisection is safe.

    Scaling every L_p value and K by 1 + eps leaves the modular
    unchanged, and the modular falls as K grows, so L_p values within
    ``cache.rel_tol`` move the root by at most that relative amount: the
    error is half the final bracket plus ``value * cache.rel_tol``.
    Without a ``cache`` the L_p values are computed at ``rel_tol``.
    """
    rel_tol, cache, lp_at, read, sup = _lp_reader(points, cache, rel_tol)
    x1 = (math.log(2.0) ** (1.0 / spec.alpha) if spec.weight is None
          else spec.weight.phi(spec.alpha))
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
    L_p values are computed at ``rel_tol``; the reported error is never
    below 1e-3 of the value.
    """
    rel_tol, _, lp_at, read, sup = _lp_reader(points, cache, rel_tol)

    def g(x):
        p = 2.0 ** x
        return lp_at(p) / weight.phi(p)

    best, x_star = -math.inf, 0.0
    for x_last in range(_PHI_X_CAP + 1):
        v = g(x_last)
        if v > best:
            best, x_star = v, float(x_last)
        tail = sup / weight.min_phi_from(2.0 ** x_last)
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
    err = best * max(rel_tol, 1e-3) + tail_margin
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
    check_p(alpha, "alpha")
    res = phi_norm(points, WeightFn.power(1.0, 1.0 / alpha),
                   rel_tol=rel_tol, cache=cache)
    diag = dict(res.diagnostics)
    diag["alpha"] = alpha
    return NormResult(res.value, res.abs_error_estimate, diag)
