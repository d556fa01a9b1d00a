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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .integrate import NumericalError
from .lp import LpCache, NormResult, check_rel_tol
from .pointset import PointSet

_WEIGHT_KINDS = ("factorial", "power", "subexp", "tabulated")
# Series caps; hitting one raises instead of returning a quietly wrong value.
_ELL_CAP = 2048
_YOUNG_TERM_CAP = 4096
# Halvings or doublings to bracket a Luxemburg root, and bisection steps
# to close it.
_ROOT_STEP_CAP = 200
# Largest p on the phi-norm scan grid.
_PHI_P_CAP = 4096.0

_lgamma_array = np.vectorize(math.lgamma, otypes=[float])


def _lgamma(x):
    """log Gamma elementwise, by math.lgamma; scalars skip np.vectorize."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(math.lgamma(x))
    return _lgamma_array(x)


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
            if self.alpha is None or not self.alpha >= 1.0:
                raise ValueError("factorial weight needs alpha >= 1")
        elif self.kind == "power":
            if self.C is None or self.r is None or not self.C > 0 or not self.r >= 0:
                raise ValueError("power weight needs C > 0 and r >= 0")
        elif self.kind == "subexp":
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ValueError("subexp weight needs 0 < tau < 1")
        else:
            if not self.knots:
                raise ValueError("tabulated weight needs at least one knot")
            ps = [k[0] for k in self.knots]
            vs = [k[1] for k in self.knots]
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

    def log_phi(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0):
            raise ValueError("weight evaluated at p <= 0")
        if self.kind == "factorial":
            out = _lgamma(p / self.alpha + 1.0) / p
        elif self.kind == "power":
            out = math.log(self.C) + self.r * np.log(p)
        elif self.kind == "subexp":
            out = p ** self.tau
        else:
            kp = np.array([k[0] for k in self.knots])
            kv = np.array([k[1] for k in self.knots])
            out = np.log(np.interp(p, kp, kv))
        return out if out.ndim else float(out)

    def phi(self, p):
        out = np.exp(self.log_phi(p))
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)

    def is_unbounded(self) -> bool:
        """Whether phi(p) -> infinity as p grows; exact per kind."""
        if self.kind == "power":
            return self.r > 0.0
        if self.kind == "tabulated":
            return False
        return True

    def min_phi_from(self, p: float) -> float:
        """inf of phi over [p, infinity); exact for the built-in kinds."""
        if self.kind == "tabulated":
            kp = [k[0] for k in self.knots]
            kv = [k[1] for k in self.knots]
            cands = [float(self.phi(p))] + [v for q, v in zip(kp, kv) if q >= p]
            return min(cands)
        # factorial, power, subexp weights are nondecreasing on p >= 1
        return float(self.phi(p))

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
        if not self.alpha >= 1.0:
            raise ValueError("alpha must be >= 1")
        if self.weight is not None and not self.weight.is_unbounded():
            raise ValueError(
                "the Young-series construction needs an unbounded weight; "
                "this one stays bounded"
            )

    def log_denom(self, ell):
        """log of phi(alpha*ell)^(alpha*ell), i.e. log(l!) for the exact kind."""
        ell = np.asarray(ell, dtype=float)
        if self.weight is None:
            out = _lgamma(ell + 1.0)
        else:
            p = self.alpha * ell
            out = p * self.weight.log_phi(p)
        return out if out.ndim else float(out)


def young_eval(spec: OrliczSpec, x):
    """psi(x) for x >= 0, vectorized; overflow saturates to inf."""
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
        out = np.where(np.isinf(out), np.inf, out)
    return float(out[0]) if scalar else out.reshape(np.shape(x))


@functools.lru_cache(maxsize=256)
def _psi_inv_one(spec: OrliczSpec) -> float:
    """The point where psi reaches 1; exact for the closed-form kind.

    Otherwise it is 1 / K for the root K of modular(K) = psi(1 / K),
    found by the Luxemburg root search to 1e-15 relative.
    """
    if spec.weight is None:
        return math.log(2.0) ** (1.0 / spec.alpha)
    lo, hi, _ = _luxemburg_root(lambda k: (young_eval(spec, 1.0 / k), 0.0), 1.0, 1e-15)
    return 2.0 / (lo + hi)


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


def _lp_reader(cache: LpCache):
    """A p -> L_p value function on ``cache``, and the results it has read."""
    read: dict[float, NormResult] = {}

    def lp_at(p):
        res = read[float(p)] = cache.norm(p)
        return res.value

    return lp_at, read


def _lp_summary(read: dict) -> dict:
    """Diagnostics of the L_p results a norm read: budget flag and p count."""
    return {"budget_exceeded": any(r.diagnostics.get("budget_exceeded", False)
                                   for r in read.values()),
            "p_values": len(read)}


def luxemburg_norm(points: PointSet, spec: OrliczSpec, rel_tol: float = 1e-8,
                   cache: LpCache | None = None) -> NormResult:
    """Luxemburg norm of the local discrepancy of ``points`` under psi.

    Root search on K for modular(K) = 1.  The starting upper bracket
    K = sup|f| / psi^{-1}(1) always has modular <= 1 pointwise, and the
    modular blows up as K -> 0, so plain bisection is safe.  Without a
    ``cache`` the L_p values are computed at ``rel_tol / 10``, so their
    share of the error, 10 times the cache tolerance, stays ``rel_tol``.
    """
    check_rel_tol(rel_tol)
    if cache is None:
        cache = LpCache(points, rel_tol / 10.0)
    lp_at, read = _lp_reader(cache)
    sup = cache.sup_abs
    if sup == 0.0:
        return NormResult(0.0, 0.0, {"engine": "orlicz-series", "terms": 0,
                                     **_lp_summary(read)})

    lo, hi, iters = _luxemburg_root(
        lambda k: _modular_series(lp_at, sup, spec, k), sup / _psi_inv_one(spec), rel_tol)
    value = 0.5 * (lo + hi)
    err = 0.5 * (hi - lo) + value * 10.0 * cache.rel_tol
    return NormResult(
        value=value,
        abs_error_estimate=err,
        diagnostics={"engine": "orlicz-series", "iterations": iters,
                     "bracket": (lo, hi), **_lp_summary(read)},
    )


def phi_norm(points: PointSet, weight: WeightFn, rel_tol: float = 1e-6,
             cache: LpCache | None = None) -> NormResult:
    """sup over p >= 1 of ||local discrepancy||_{L_p} / phi(p).

    Scans a geometric grid of p, stops rigorously once sup|f|/phi(q) for
    all remaining q cannot beat the best value seen, then refines around
    the best grid point by golden section in log p.  If phi grows too
    slowly to close the tail by p = 4096, the gap is reported in the error
    estimate rather than hidden.  Without a ``cache`` the L_p values are
    computed at ``rel_tol``; the reported error is never below 1e-3 of
    the value.
    """
    check_rel_tol(rel_tol)
    if cache is None:
        cache = LpCache(points, rel_tol)
    lp_at, read = _lp_reader(cache)
    sup = cache.sup_abs
    if sup == 0.0:
        return NormResult(0.0, 0.0, {"engine": "phi-sup", **_lp_summary(read)})

    def g(p):
        return lp_at(p) / float(weight.phi(p))

    ps = [1.0]
    while ps[-1] < _PHI_P_CAP:
        ps.append(min(ps[-1] * 2.0, _PHI_P_CAP))
    vals = []
    best = -math.inf
    best_j = 0
    tail_closed = False
    scanned = 0
    for j, p in enumerate(ps):
        v = g(p)
        vals.append(v)
        scanned = j + 1
        if v > best:
            best, best_j = v, j
        if sup / weight.min_phi_from(p) <= best:
            tail_closed = True
            break
    ps = ps[:scanned]

    # golden-section refinement (in log p) around the best grid point
    lo = ps[best_j - 1] if best_j > 0 else ps[0]
    hi = ps[best_j + 1] if best_j + 1 < len(ps) else ps[-1]
    if hi > lo:
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = math.log(lo), math.log(hi)
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = g(math.exp(c)), g(math.exp(d))
        for _ in range(12):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = g(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = g(math.exp(d))
        p_star = math.exp(0.5 * (a + b))
        refined = max(fc, fd, best)
        if refined > best:
            best = refined
        else:
            p_star = ps[best_j]
    else:
        p_star = ps[best_j]

    tail_margin = 0.0
    if not tail_closed:
        tail_margin = max(0.0, sup / weight.min_phi_from(ps[-1]) - best)
    err = best * max(rel_tol, 1e-3) + tail_margin
    return NormResult(
        value=best,
        abs_error_estimate=err,
        diagnostics={"engine": "phi-sup", "p_star": p_star,
                     "grid_points": scanned, "tail_closed": tail_closed,
                     "tail_margin": tail_margin, **_lp_summary(read)},
    )


def alpha_norm(points: PointSet, alpha: float, rel_tol: float = 1e-6,
               cache: LpCache | None = None) -> NormResult:
    """sup over p >= 1 of ||local discrepancy||_{L_p} / p^(1/alpha)."""
    if not alpha >= 1.0:
        raise ValueError("alpha must be >= 1")
    res = phi_norm(points, WeightFn.power(1.0, 1.0 / alpha),
                   rel_tol=rel_tol, cache=cache)
    diag = dict(res.diagnostics)
    diag["alpha"] = alpha
    return NormResult(res.value, res.abs_error_estimate, diag)
