"""Explicit constants, inequalities, and tractability bounds.

Every check returns a ``BoundReport`` so the CLI can emit JSON lines and
the tests can assert ``holds``; ``SUITES`` holds every ``verify`` suite
and ``sweep_bound`` the bound column of a sweep.  Factorial-sized
quantities are compared in log domain; statistical checks take fixed
seeds so they stay deterministic in CI even though the underlying claim
is probabilistic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .integrate import NumericalError
from .lp import LpCache, NormResult, check_p, lp_discrepancy
from .orlicz import OrliczSpec, WeightFn, alpha_norm, check_weight, luxemburg_norm, phi_norm
from .pointset import (PointSet, check_int, check_real, empty_pointset, generate_halton,
                       generate_uniform)
from .star import star_discrepancy_exact

# Log-domain comparison slack for inequality checks.
LOG_SLACK = 1e-12
# Default constant in the random-set star-discrepancy bound.
C_PT_DEFAULT = 2.5287
# Largest d scanned by ``min_const_check``.
MIN_CONST_D_MAX = 1_000_000
# Integer ceiling returned when a bound formula overflows doubles.
NBOUND_SATURATION = 10 ** 308
# Largest N that ``empirical_inverse_discrepancy`` doubles to.
INVERSE_N_CAP = 4096

# e^(11/12) / sqrt(2*pi), the base of the lower sandwich constant.
SANDWICH_LOWER_BASE = math.exp(11.0 / 12.0) / math.sqrt(2.0 * math.pi)


# The parameters each norm kind reads, by kind, the first of them required.
NORM_FIELDS = {"lp": ("p",), "star": (), "psi-alpha": ("alpha", "weight"), "phi": ("weight",),
               "alpha-norm": ("alpha",)}


@dataclass(frozen=True)
class NormSpec:
    """One discrepancy norm: its kind and the parameters that kind needs.

    Kinds: ``lp`` (p), ``star``, ``psi-alpha`` (alpha, optional weight),
    ``phi`` (weight) and ``alpha-norm`` (alpha); a kind takes no other.
    """

    kind: str
    p: float | None = None
    alpha: float | None = None
    weight: WeightFn | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in NORM_FIELDS:
            raise ValueError(f"unknown norm {self.kind!r}")
        fields = NORM_FIELDS[self.kind]
        for name in ("p", "alpha", "weight"):
            flag = "phi" if name == "weight" else name
            if name in fields[:1] and getattr(self, name) is None:
                raise ValueError(f"--{flag} is required for --norm {self.kind}")
            if name not in fields and getattr(self, name) is not None:
                raise ValueError(f"--norm {self.kind} takes no --{flag}")
        for name in ("p", "alpha"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_p(getattr(self, name), name))
        if self.weight is not None:
            check_weight(self.weight)

    def compute(self, points: PointSet, rel_tol: float | None = None) -> NormResult:
        """This norm of the local discrepancy of ``points``.

        ``rel_tol=None`` keeps each engine's own default tolerance; the
        exact star engine takes none.
        """
        tol = {} if rel_tol is None else {"rel_tol": rel_tol}
        if self.kind == "star":
            # a sup over rounded counts and corner products, all in [0, 1]
            return NormResult(star_discrepancy_exact(points), (points.dim + 1) * 2.0 ** -53,
                              {"engine": "star-exact"})
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
    """One verified inequality, lhs <= rhs or lhs <= value <= rhs, with
    its verdict ``holds`` and its smallest gap as computed, ``margin``."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    margin: float
    params: dict = field(default_factory=dict)
    note: str = ""

    @classmethod
    def check(cls, name: str, lhs: float, rhs: float, value: float | None = None,
              slack: float = 0.0, strict: bool = False, params: dict | None = None,
              note: str = "") -> "BoundReport":
        """The report of one inequality, each side allowed ``slack``.

        Without ``value``: lhs <= rhs, or lhs < rhs with ``strict``, and
        margin rhs - lhs.  With it: lhs <= value <= rhs, and margin
        min(value - lhs, rhs - value).  An equality x == ref is
        ``check(name, x, x, value=ref)``, whose margin is -|x - ref|.
        """
        if value is None:
            holds = lhs < rhs + slack if strict else lhs <= rhs + slack
            margin = rhs - lhs
        else:
            holds = lhs <= value + slack and value <= rhs + slack
            margin = min(value - lhs, rhs - value)
        return cls(name, lhs, rhs, bool(holds), margin, params or {}, note)

    def to_json(self) -> dict:
        return asdict(self)


def stirling_check(p: int) -> BoundReport:
    """sqrt(2 pi p)(p/e)^p <= p! <= same * e^(1/(12p)), in log domain."""
    p = check_int(p, "p", 1, 170)
    log_lo = 0.5 * math.log(2.0 * math.pi * p) + p * (math.log(p) - 1.0)
    log_hi = log_lo + 1.0 / (12.0 * p)
    log_fact = math.lgamma(p + 1.0)
    return BoundReport.check("stirling", log_lo, log_hi, value=log_fact, slack=LOG_SLACK,
                             params={"p": p, "log_factorial": log_fact},
                             note="log-domain two-sided check")


def theorem2_constant(alpha: float) -> float:
    """2601 * alpha^(2/alpha) * (sqrt(2 pi) / e^(11/12))^(2/alpha)."""
    alpha = check_p(alpha, "alpha")
    expo = (2.0 / alpha) * (math.log(alpha) - math.log(SANDWICH_LOWER_BASE))
    return 2601.0 * math.exp(expo)


def _n_bound(eps: float, d: int, over_eps2) -> int:
    """ceil(over_eps2(eps^2, d)), read once eps lies in (0, 1) and d >= 1.

    A bound that is not below ``NBOUND_SATURATION``, or that overflows or
    divides by an eps^2 that underflows, saturates.
    """
    eps, d = check_real(eps, "eps", 0, 1), check_int(d, "d", 1)
    try:
        x = over_eps2(eps * eps, d)
    except (OverflowError, ZeroDivisionError):
        return NBOUND_SATURATION
    return int(math.ceil(x)) if x < NBOUND_SATURATION else NBOUND_SATURATION


def theorem2_n_bound(alpha: float, eps: float, d: int) -> int:
    """ceil(C_alpha * d^max(1, 2/alpha) * log(d+1)^(2/alpha) / eps^2)."""
    alpha = check_p(alpha, "alpha")
    c = theorem2_constant(alpha)
    return _n_bound(eps, d, lambda eps2, d: (
        c * d ** max(1.0, 2.0 / alpha) * math.log(d + 1.0) ** (2.0 / alpha) / eps2))


def nbound1(eps: float, d: int, phi: WeightFn) -> int:
    """ceil(C_PT^2 * d (d+1)^2 phi(d)^2 / eps^2 * sup_p 1/phi(p)^2).

    The sup is 1/phi(1)^2 for the nondecreasing kinds; tabulated weights
    scan their knots.  phi enters only through phi(d) / inf phi, taken
    from logs so that a phi beyond a double's range, large or small, does
    not change the bound, and read at C = 1 for a power weight, whose
    scale C cancels from it.  phi is read only once eps and d are checked.
    """
    def over_eps2(eps2, d):
        unit = replace(phi, C=1.0) if check_weight(phi).kind == "power" else phi
        ratio = math.exp(unit.log_phi(float(d)) - math.log(unit.min_phi_from(1.0)))
        return C_PT_DEFAULT ** 2 * d * (d + 1.0) ** 2 * (ratio * ratio) / eps2

    return _n_bound(eps, d, over_eps2)


def initial_phi_lower(d: int, phi: WeightFn) -> float:
    """1 / ((d+1) phi(d)): lower bound for the empty-set phi norm."""
    d = check_int(d, "d", 1)
    return 1.0 / ((d + 1.0) * check_weight(phi).phi(float(d)))


def initial_alpha_lower(d: int, alpha: float) -> float:
    """1 / (4 (d log(d+1))^(1/alpha)): empty-set alpha-norm lower bound."""
    # d >= 2 so the attaining p stays >= 1
    d, alpha = check_int(d, "d", 2), check_real(alpha, "alpha", 1, math.inf, "[]")
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
    holds = argmin == 20 and abs(gmin - 0.257944) <= 1e-6 and gmin >= 0.25
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
    a = check_real(a, "a", 0)
    value = 2.0 ** 1.25 / (3.0 ** 0.75 * a) + math.exp(4.9 - (a / 5.7) ** 2)
    return BoundReport.check("construction_constants", value, 1.0, strict=True,
                             params={"a": a, "sixteen_a_sq": 16.0 * a * a},
                             note="probabilistic-construction feasibility condition")


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
    against the phi norm.  ``margin`` is the smaller gap of the two sides
    as computed, while ``holds`` allows each side the two norms' reported
    errors, that of the Luxemburg norm plus the upper constant times that
    of the base norm, as both values are reads within those errors.
    """
    spec = OrliczSpec(alpha, phi)
    alpha = spec.alpha
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
    slack = lux.abs_error_estimate + hi_c * base.abs_error_estimate
    return BoundReport.check(name, lo_c * base.value, hi_c * base.value, value=lux.value,
                             slack=slack, params=params)


def hnww_empirical_check(d: int, n: int, k_trials: int, seed: int) -> BoundReport:
    """Best-of-k random sets against the probabilistic discrepancy bounds.

    Checks min star discrepancy <= 10 sqrt(d/n) and the mean L_d norm
    against 2^(5/4) 3^(-3/4) n^(-1/2).  Statistical claim made
    deterministic by the fixed seed.
    """
    d, n = check_int(d, "d", 1), check_int(n, "n", 1)
    k_trials, seed = check_int(k_trials, "k_trials", 1), check_int(seed, "seed", 0)
    if d > 3 or n > 128:
        raise ValueError("empirical check is desk-scale: d <= 3, n <= 128")
    stars, lds = [], []
    for i in range(k_trials):
        cache = LpCache(generate_uniform(n, d, seed + i), 1e-7)
        stars.append(cache.grid.sup_abs)
        lds.append(cache.norm(d).value)
    min_star = min(stars)
    mean_ld = sum(lds) / len(lds)
    star_bound = sweep_bound(NormSpec("star"), d, n)
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


def sweep_bound(spec: NormSpec, d: int, n: int) -> float | int | None:
    """The bound a sweep prints beside its (d, N) row, or None for none:
    10 sqrt(d/N) on the random-set star discrepancy, and Theorem 2's N
    at eps = 0.5 for the exponential psi_alpha."""
    if spec.kind == "star":
        return 10.0 * math.sqrt(d / n)
    if spec.kind == "psi-alpha" and spec.weight is None:
        # Theorem 2 is for the exponential psi_alpha only
        return theorem2_n_bound(spec.alpha, 0.5, d)
    return None


def empirical_inverse_discrepancy(spec: NormSpec, eps: float, d: int,
                                  k_trials: int = 16, seed: int = 0) -> int:
    """Smallest N (doubling then bisection) whose best-of-k candidate set
    reaches eps times the initial discrepancy, both in the norm ``spec``.

    Candidates at each N are the Halton set plus k seeded uniform sets,
    so the estimate upper-bounds the true inverse discrepancy.  Per-N
    values are cached, making the result deterministic and nonincreasing
    in eps for a fixed seed.
    """
    eps = check_real(eps, "eps", 0, 1)
    d, k_trials = check_int(d, "d", 1), check_int(k_trials, "k_trials", 0)
    seed = check_int(seed, "seed", 0)
    if d > 16 and k_trials < 1:
        raise ValueError("no candidate sets: d > 16 has no Halton set, so k_trials must be >= 1")
    if not isinstance(spec, NormSpec):
        raise ValueError(f"spec must be a NormSpec, got {spec!r}")
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
        if n > INVERSE_N_CAP:
            raise NumericalError(
                f"inverse-discrepancy search exceeded the cap n = {INVERSE_N_CAP}")
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if best_disc(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _construction_reports() -> list[BoundReport]:
    a_sq = 16.0 * 12.75 ** 2
    return [construction_constants_check(12.75),
            BoundReport.check("construction_a_value", a_sq, a_sq, value=2601.0,
                              params={"a": 12.75}, note="16 a^2 must equal 2601 exactly"),
            construction_constants_check(100.0)]


def _theorem2_reports() -> list[BoundReport]:
    c_lim = theorem2_constant(1e6)
    nb = float(theorem2_n_bound(2.0, 0.5, 1))
    reports = [
        BoundReport.check("theorem2_constant_limit", abs(c_lim - 2601.0) / 2601.0, 1e-3,
                          params={"alpha": 1e6, "value": c_lim},
                          note="relative deviation from the large-alpha limit 2601"),
        BoundReport.check("theorem2_n_bound_value", nb, nb, value=14456.0,
                          params={"alpha": 2.0, "eps": 0.5, "d": 1},
                          note="frozen reference value"),
        BoundReport.check("theorem2_eps_monotone", float(theorem2_n_bound(2.0, 0.9, 3)),
                          float(theorem2_n_bound(2.0, 0.1, 3)), strict=True,
                          params={"alpha": 2.0, "d": 3}),
    ]
    for alpha in (1.0, 2.0):
        seq = [theorem2_n_bound(alpha, 0.5, d) for d in range(1, 11)]
        ok = all(b <= c for b, c in zip(seq, seq[1:]))
        reports.append(BoundReport(
            name="theorem2_d_monotone", lhs=float(seq[0]), rhs=float(seq[-1]),
            holds=ok, margin=float(seq[-1] - seq[0]), params={"alpha": alpha},
        ))
    return reports


def _initial_reports() -> list[BoundReport]:
    w = WeightFn.power(1.0, 1.0)
    phi = [BoundReport.check("initial_phi_lower", initial_phi_lower(d, w),
                             phi_norm(empty_pointset(d), w).value,
                             params={"d": d, "weight": w.to_json()}) for d in range(1, 9)]
    return phi + [BoundReport.check("initial_alpha_lower", initial_alpha_lower(d, alpha),
                                    alpha_norm(empty_pointset(d), alpha).value,
                                    params={"d": d, "alpha": alpha})
                  for d in (2, 5, 10, 20) for alpha in (1.0, 2.0)]


def _lemma1_reports(seed: int) -> list[BoundReport]:
    reports = []
    for i, (n, d) in enumerate([(8, 1), (16, 1), (8, 2), (16, 2)]):
        pts = generate_uniform(n, d, seed + i)
        cache = LpCache(pts)
        for alpha in (1.0, 2.0):
            reports.append(lemma1_sandwich_check(pts, alpha, cache=cache))
        reports.append(lemma1_sandwich_check(
            pts, 2.0, phi=WeightFn.power(1.0, 0.5), cache=cache))
    return reports


# Every ``discnorm verify`` suite by name: a callable from the seed to its
# reports.  Only lemma1 and hnww draw random sets from the seed.
SUITES = {
    "stirling": lambda seed: [stirling_check(p) for p in range(1, 171)],
    "lemma1": _lemma1_reports,
    "initial": lambda seed: _initial_reports(),
    "theorem2": lambda seed: _theorem2_reports(),
    "minconst": lambda seed: [min_const_check()],
    "construction": lambda seed: _construction_reports(),
    "hnww": lambda seed: [hnww_empirical_check(1, 16, 32, seed),
                          hnww_empirical_check(2, 64, 32, seed)],
}
