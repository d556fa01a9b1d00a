"""Explicit constants, inequalities, and tractability bounds.

Every check returns a ``BoundReport`` so the CLI can emit JSON lines and
the tests can assert ``holds``.  Factorial-sized quantities are compared
in log domain; statistical checks take fixed seeds so they stay
deterministic in CI even though the underlying claim is probabilistic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .integrate import NumericalError
from .lp import LpCache, NormResult, check_p, lp_discrepancy
from .orlicz import (
    OrliczSpec,
    WeightFn,
    _json_number,
    alpha_norm,
    luxemburg_norm,
    phi_norm,
)
from .pointset import PointSet, empty_pointset, generate_halton, generate_uniform
from .star import star_discrepancy_exact

# Log-domain comparison slack for inequality checks.
LOG_SLACK = 1e-12
# Default constant in the random-set star-discrepancy bound.
C_PT_DEFAULT = 2.5287
# Largest d scanned by ``min_const_check``.
MIN_CONST_D_MAX = 1_000_000
# Integer ceiling returned when a bound formula overflows doubles.
NBOUND_SATURATION = 10 ** 308

# Relative slack, against the Luxemburg norm, of the sandwich comparisons.
SANDWICH_REL_SLACK = 1e-6
# e^(11/12) / sqrt(2*pi), the base of the lower sandwich constant.
SANDWICH_LOWER_BASE = math.exp(11.0 / 12.0) / math.sqrt(2.0 * math.pi)


# The parameter each norm kind needs, by kind; star needs none.
_NORM_NEEDS = {"lp": "p", "star": None, "psi-alpha": "alpha", "phi": "weight",
               "alpha-norm": "alpha"}


@dataclass(frozen=True)
class NormSpec:
    """One discrepancy norm: its kind and the parameters that kind needs.

    Kinds: ``lp`` (p), ``star``, ``psi-alpha`` (alpha, optional weight),
    ``phi`` (weight) and ``alpha-norm`` (alpha).  The JSON form is
    ``{"norm": kind, "p": ..., "alpha": ..., "weight": {...}}``.
    """

    kind: str
    p: float | None = None
    alpha: float | None = None
    weight: WeightFn | None = None

    def __post_init__(self):
        if self.kind not in _NORM_NEEDS:
            raise ValueError(f"unknown norm {self.kind!r}")
        need = _NORM_NEEDS[self.kind]
        if need is not None and getattr(self, need) is None:
            flag = "phi" if need == "weight" else need
            raise ValueError(f"--{flag} is required for --norm {self.kind}")
        for name, value in (("p", self.p), ("alpha", self.alpha)):
            if value is not None:
                check_p(value, name)

    @classmethod
    def from_json(cls, data: dict) -> "NormSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a norm spec must be a JSON object, got {data!r}")
        return cls(
            kind=data.get("norm"),
            p=_json_number(data, "p") if "p" in data else None,
            alpha=_json_number(data, "alpha") if "alpha" in data else None,
            weight=WeightFn.from_json(data["weight"]) if "weight" in data else None,
        )

    def compute(self, points: PointSet, rel_tol: float | None = None) -> NormResult:
        """This norm of the local discrepancy of ``points``.

        ``rel_tol=None`` keeps each engine's own default tolerance; the
        exact star engine takes none.
        """
        tol = {} if rel_tol is None else {"rel_tol": rel_tol}
        if self.kind == "star":
            return NormResult(star_discrepancy_exact(points), 0.0, {"engine": "star-exact"})
        if self.kind == "lp":
            return lp_discrepancy(points, self.p, **tol)
        if self.kind == "psi-alpha":
            return luxemburg_norm(points, OrliczSpec(self.alpha, self.weight), **tol)
        if self.kind == "phi":
            return phi_norm(points, self.weight, **tol)
        return alpha_norm(points, self.alpha, **tol)

    def initial(self, d: int) -> float:
        """This norm for the empty point set in dimension ``d``."""
        return self.compute(empty_pointset(d)).value


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs <= rhs expected when holds is True."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    margin: float
    params: dict = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def stirling_check(p: int) -> BoundReport:
    """sqrt(2 pi p)(p/e)^p <= p! <= same * e^(1/(12p)), in log domain."""
    if p not in range(1, 171):
        raise ValueError("p must be an integer in [1, 170]")
    log_lo = 0.5 * math.log(2.0 * math.pi * p) + p * (math.log(p) - 1.0)
    log_hi = log_lo + 1.0 / (12.0 * p)
    log_fact = math.lgamma(p + 1.0)
    holds = (log_lo - LOG_SLACK <= log_fact) and (log_fact <= log_hi + LOG_SLACK)
    margin = min(log_fact - log_lo, log_hi - log_fact)
    return BoundReport(
        name="stirling",
        lhs=log_lo,
        rhs=log_hi,
        holds=holds,
        margin=margin,
        params={"p": p, "log_factorial": log_fact},
        note="log-domain two-sided check",
    )


def theorem2_constant(alpha: float) -> float:
    """2601 * alpha^(2/alpha) * (sqrt(2 pi) / e^(11/12))^(2/alpha)."""
    check_p(alpha, "alpha")
    expo = (2.0 / alpha) * (math.log(alpha) - math.log(SANDWICH_LOWER_BASE))
    return 2601.0 * math.exp(expo)


def _n_bound(eps: float, d: int, over_eps2) -> int:
    """ceil(over_eps2(eps^2)), called once eps lies in (0, 1) and d >= 1.

    An eps^2 that underflows, or a bound that overflows, saturates.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    eps2 = eps * eps
    if eps2 == 0.0:
        return NBOUND_SATURATION
    x = over_eps2(eps2)
    if not math.isfinite(x) or x >= NBOUND_SATURATION:
        return NBOUND_SATURATION
    return int(math.ceil(x))


def theorem2_n_bound(alpha: float, eps: float, d: int) -> int:
    """ceil(C_alpha * d^max(1, 2/alpha) * log(d+1)^(2/alpha) / eps^2)."""
    c = theorem2_constant(alpha)
    return _n_bound(eps, d, lambda eps2: (
        c * d ** max(1.0, 2.0 / alpha) * math.log(d + 1.0) ** (2.0 / alpha) / eps2))


def nbound1(eps: float, d: int, phi: WeightFn) -> int:
    """ceil(C_PT^2 * d (d+1)^2 phi(d)^2 / eps^2 * sup_p 1/phi(p)^2).

    The sup is 1/phi(1)^2 for the nondecreasing kinds; tabulated weights
    scan their knots.
    """
    sup_inv = 1.0 / phi.min_phi_from(1.0) ** 2
    return _n_bound(eps, d, lambda eps2: (
        C_PT_DEFAULT ** 2 * d * (d + 1.0) ** 2 * phi.phi(float(d)) ** 2 / eps2 * sup_inv))


def initial_phi_lower(d: int, phi: WeightFn) -> float:
    """1 / ((d+1) phi(d)): lower bound for the empty-set phi norm."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 1.0 / ((d + 1.0) * phi.phi(float(d)))


def initial_alpha_lower(d: int, alpha: float) -> float:
    """1 / (4 (d log(d+1))^(1/alpha)): empty-set alpha-norm lower bound."""
    if d < 2:
        raise ValueError("d must be >= 2 so the attaining p stays >= 1")
    if not alpha >= 1.0:
        raise ValueError("alpha must be >= 1")
    return 1.0 / (4.0 * (d * math.log(d + 1.0)) ** (1.0 / alpha))


def min_const_check() -> BoundReport:
    """Scan g(d) = (1 + d log(d+1))^(-1/log(d+1)) over integer d.

    Expected: minimizer d = 20, minimum 0.257944 within 1e-6, and
    g(d) >= 1/4 everywhere scanned.
    """
    d = np.arange(1, MIN_CONST_D_MAX + 1, dtype=float)
    logs = np.log(d + 1.0)
    g = np.exp(-np.log1p(d * logs) / logs)
    j = int(np.argmin(g))
    gmin = float(g[j])
    argmin = j + 1
    holds = argmin == 20 and abs(gmin - 0.257944) <= 1e-6 and bool(np.all(g >= 0.25))
    return BoundReport(
        name="min_const",
        lhs=0.25,
        rhs=gmin,
        holds=holds,
        margin=gmin - 0.25,
        params={"argmin": argmin, "min_value": gmin, "d_max": MIN_CONST_D_MAX},
        note="minimum of the alpha-norm lower-bound constant",
    )


def construction_constants_check(a: float) -> BoundReport:
    """2^(5/4)/(3^(3/4) a) + exp(4.9 - (a/5.7)^2) < 1, with 16 a^2 echoed."""
    if a <= 0:
        raise ValueError("a must be positive")
    value = 2.0 ** 1.25 / (3.0 ** 0.75 * a) + math.exp(4.9 - (a / 5.7) ** 2)
    return BoundReport(
        name="construction_constants",
        lhs=value,
        rhs=1.0,
        holds=value < 1.0,
        margin=1.0 - value,
        params={"a": a, "sixteen_a_sq": 16.0 * a * a},
        note="probabilistic-construction feasibility condition",
    )


def _general_lower_const(phi: WeightFn, alpha: float) -> float:
    """inf over p >= 1 of phi(p) / max(phi(alpha), phi(p)).

    Where phi(p) >= phi(alpha) the ratio is 1; elsewhere it is
    phi(p) / phi(alpha), whose infimum is that of phi over [1, infinity).
    This is min(1, phi(1)/phi(alpha)) for nondecreasing weights and
    honors the dips of a tabulated one.
    """
    return min(1.0, phi.min_phi_from(1.0) / phi.phi(alpha))


def lemma1_sandwich_check(points: PointSet, alpha: float,
                          phi: WeightFn | None = None,
                          cache: LpCache | None = None) -> BoundReport:
    """Sandwich of the Luxemburg norm between weighted sup-of-L_p norms.

    With ``phi=None``: (e^(11/12)/sqrt(2 pi))^(1/a) * ||f||_a <= ||f||_psi_a
    <= (2 e a)^(1/a) * ||f||_a.  With a weight: the lower constant is
    inf_p phi(p)/max(phi(alpha), phi(p)) and the upper is 2^(1/alpha),
    against the phi norm.  Both sides may miss by ``SANDWICH_REL_SLACK``
    times the Luxemburg norm.
    """
    spec = OrliczSpec(alpha, phi)
    if cache is None:
        cache = LpCache(points)
    if phi is None:
        lo_c = SANDWICH_LOWER_BASE ** (1.0 / alpha)
        hi_c = (2.0 * math.e * alpha) ** (1.0 / alpha)
        base = alpha_norm(points, alpha, cache=cache)
        name = "lemma1_exponential"
    else:
        lo_c = _general_lower_const(phi, alpha)
        hi_c = 2.0 ** (1.0 / alpha)
        base = phi_norm(points, phi, cache=cache)
        name = "lemma1_general"
    lux = luxemburg_norm(points, spec, cache=cache)
    lhs = lo_c * base.value
    rhs = hi_c * base.value
    slack = SANDWICH_REL_SLACK * lux.value
    holds = (lhs <= lux.value + slack) and (lux.value <= rhs + slack)
    margin = min(lux.value - lhs, rhs - lux.value)
    params = {
        "alpha": alpha,
        "n_points": points.n_points,
        "dim": points.dim,
        "lower_const": lo_c,
        "upper_const": hi_c,
        "base_norm": base.value,
        "luxemburg": lux.value,
    }
    if phi is not None:
        params["weight"] = phi.to_json()
    return BoundReport(name=name, lhs=lhs, rhs=rhs, holds=holds,
                       margin=margin, params=params)


def hnww_empirical_check(d: int, n: int, k_trials: int, seed: int) -> BoundReport:
    """Best-of-k random sets against the probabilistic discrepancy bounds.

    Checks min star discrepancy <= 10 sqrt(d/n) and the mean L_d norm
    against 2^(5/4) 3^(-3/4) n^(-1/2).  Statistical claim made
    deterministic by the fixed seed.
    """
    if d > 3 or n > 128:
        raise ValueError("empirical check is desk-scale: d <= 3, n <= 128")
    stars = []
    lds = []
    for i in range(k_trials):
        pts = generate_uniform(n, d, seed + i)
        stars.append(star_discrepancy_exact(pts))
        lds.append(lp_discrepancy(pts, float(d), rel_tol=1e-7).value)
    min_star = min(stars)
    mean_ld = sum(lds) / len(lds)
    star_bound = 10.0 * math.sqrt(d / n)
    ld_bound = 2.0 ** 1.25 * 3.0 ** -0.75 / math.sqrt(n)
    holds = min_star <= star_bound and mean_ld <= ld_bound
    return BoundReport(
        name="hnww_empirical",
        lhs=min_star,
        rhs=star_bound,
        holds=holds,
        margin=min(star_bound - min_star, ld_bound - mean_ld),
        params={"d": d, "n": n, "k_trials": k_trials, "seed": seed,
                "min_star": min_star, "mean_ld": mean_ld, "ld_bound": ld_bound},
        note="statistical check, fixed seed",
    )


def initial_of(norm: dict, d: int) -> float:
    """Discrepancy of the empty point set under the given norm spec."""
    return NormSpec.from_json(norm).initial(d)


def empirical_inverse_discrepancy(norm: dict, eps: float, d: int,
                                  k_trials: int = 16, seed: int = 0,
                                  n_cap: int = 4096) -> int:
    """Smallest N (doubling then bisection) whose best-of-k candidate set
    reaches eps times the initial discrepancy.

    Candidates at each N are the Halton set plus k seeded uniform sets,
    so the estimate upper-bounds the true inverse discrepancy.  Per-N
    values are cached, making the result deterministic and nonincreasing
    in eps for a fixed seed.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    spec = NormSpec.from_json(norm)
    threshold = eps * spec.initial(d)
    cache: dict[int, float] = {}

    def best_disc(n: int) -> float:
        if n not in cache:
            cands = [generate_halton(n, d)] if d <= 16 else []
            cands += [generate_uniform(n, d, seed + 7919 * n + i)
                      for i in range(k_trials)]
            cache[n] = min(spec.compute(p).value for p in cands)
        return cache[n]

    n = 1
    while best_disc(n) > threshold:
        n *= 2
        if n > n_cap:
            raise NumericalError(
                f"inverse-discrepancy search exceeded the cap n = {n_cap}"
            )
    if n == 1:
        return 1
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if best_disc(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi
