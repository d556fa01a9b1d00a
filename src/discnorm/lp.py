"""L_p norms of the local discrepancy function.

The engine choice is automatic: empty point sets have a closed form in
any dimension, even integer p <= 16 goes through the exact moment
expansion when its cancellation stays within the tolerance, and the
rest runs the scaled adaptive integrator.  ``LpCache`` memoizes per
point set so the Orlicz-side routines can request many p values cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cells import CellGrid, build_cell_grid
from .integrate import lp_adaptive_integral, lp_moment_integral
from .pointset import PointSet

# Largest even p routed to the exact moment expansion before trying the
# adaptive engine; beyond this the alternating sum cancels too hard.
MOMENT_P_MAX = 16
# Amplification at which the moment result is discarded as cancelled.
MOMENT_AMP_MAX = 1e8
# Tightest relative tolerance honoured; double rounding cannot meet less.
REL_TOL_FLOOR = 1e-15


@dataclass(frozen=True)
class NormResult:
    """A computed norm with an error estimate and engine diagnostics."""

    value: float
    abs_error_estimate: float
    diagnostics: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


def check_rel_tol(rel_tol: float) -> float:
    """``rel_tol`` raised to ``REL_TOL_FLOOR`` if it is a finite number > 0,
    else a ValueError.

    A zero, negative or NaN tolerance would keep the adaptive refinement
    running until its budget, or end it at once with a meaningless error.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be a finite number > 0, got {rel_tol!r}")
    return max(rel_tol, REL_TOL_FLOOR)


def check_p(p: float, name: str = "p") -> float:
    """``p`` itself if it is a finite number >= 1, else a ValueError that
    calls it ``name``."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"{name} must be a finite number >= 1, got {p!r}")
    return p


def initial_lp(p: float, dim: int) -> float:
    """L_p norm of the discrepancy of the empty point set: (p+1)^(-d/p)."""
    check_p(p)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return math.exp(-dim / p * math.log(p + 1.0))


def warnock_l2(points: PointSet) -> float:
    """L_2 discrepancy by the classical pairwise closed form.

    Independent of the cell machinery; used as a cross-check oracle for
    the integration engines.
    """
    d = points.dim
    n = points.n_points
    if n == 0:
        return math.sqrt(3.0 ** (-d))
    x = points.coords
    term1 = 3.0 ** (-d)
    term2 = (2.0 / n) * float(np.prod((1.0 - x ** 2) / 2.0, axis=1).sum())
    mx = np.maximum(x[:, None, :], x[None, :, :])
    term3 = float(np.prod(1.0 - mx, axis=2).sum()) / n ** 2
    val = term1 - term2 + term3
    return math.sqrt(max(val, 0.0))


class LpCache:
    """Per-point-set store of the cell grid and computed L_p values.

    Reusing one cache across many p queries (norm scans, Orlicz series)
    skips rebuilding the grid and recomputing norms at repeated p.
    """

    def __init__(self, points: PointSet, rel_tol: float = 1e-9):
        self.points = points
        self.rel_tol = check_rel_tol(rel_tol)
        self._grid: CellGrid | None = None
        self._values: dict[float, NormResult] = {}

    @property
    def grid(self) -> CellGrid:
        if self._grid is None:
            self._grid = build_cell_grid(self.points)
        return self._grid

    @property
    def sup_abs(self) -> float:
        """sup over the cube of |local discrepancy| (exact)."""
        return self.grid.sup_abs_discrepancy()

    def norm(self, p: float, rel_tol: float | None = None) -> NormResult:
        """The L_p norm at ``p``, computed to ``rel_tol`` (default: the
        cache's own) unless a value at least that tight is stored."""
        check_p(p)
        tol = self.rel_tol if rel_tol is None else check_rel_tol(rel_tol)
        key = float(p)
        hit = self._values.get(key)
        if hit is not None and hit.diagnostics.get("rel_tol", 1.0) <= tol:
            return hit
        res = self._values[key] = self._compute(p, tol)
        return res

    def _compute(self, p: float, rel_tol: float) -> NormResult:
        if self.points.n_points == 0:
            # |disc| = prod t, so the integral of the p-th power is (p+1)^(-d)
            return NormResult(
                value=initial_lp(p, self.points.dim),
                abs_error_estimate=0.0,
                diagnostics={"engine": "empty-exact", "rel_tol": 0.0},
            )
        pi = int(round(p))
        if pi == p and pi % 2 == 0 and 2 <= pi <= MOMENT_P_MAX:
            integral, amp = lp_moment_integral(self.grid, pi)
            rel_err = amp * 1e-15 / p  # the sum is off by up to about amp * 5e-16
            if integral > 0.0 and amp <= MOMENT_AMP_MAX and rel_err <= rel_tol:
                value = integral ** (1.0 / p)
                return NormResult(value, value * rel_err, diagnostics={
                    "engine": "moment", "amplification": amp, "rel_tol": rel_err})
        # value = scale * J^(1/p), so a relative error of eps in J moves the
        # norm by only eps / p; the integral tolerance can be that much looser
        j_tol = min(0.25, p * rel_tol)
        scaled, scale, err_j, diag = lp_adaptive_integral(self.grid, p, j_tol)
        if scaled <= 0.0:
            # the scaled integrand (|disc|/sup)^p underflowed everywhere;
            # the norm then sits within exp(-708/p) of the sup itself
            err = scale * -math.expm1(-708.0 / p)
            return NormResult(value=scale, abs_error_estimate=err,
                              diagnostics={**diag, "engine": "sup-limit", "rel_tol": rel_tol})
        value = scale * math.exp(math.log(scaled) / p)
        abs_err = value * (err_j / (p * scaled))
        return NormResult(value=value, abs_error_estimate=abs_err,
                          diagnostics={**diag, "rel_tol": rel_tol, "scale": scale})


def lp_discrepancy(points: PointSet, p: float, rel_tol: float = 1e-9) -> NormResult:
    """L_p norm of the local discrepancy of ``points`` on the unit cube."""
    return LpCache(points, rel_tol).norm(p)
