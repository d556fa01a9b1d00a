"""Local discrepancy and the cell decomposition it is piecewise-smooth on.

The local discrepancy of P at t is  count([0, t)) / N  -  prod(t).  The
counting term is constant on every open cell of the grid spanned by the
distinct coordinate values (0 and 1 added as outer breakpoints), which
is what every integration routine in this package exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .pointset import PointSet

# Cell counts use a full d-dimensional occupancy histogram, so the cell
# count is capped; documented desk-scale limit is d <= 5 at moderate N.
MAX_CELLS_DEFAULT = 1 << 26


def count_in_box(ps: PointSet, t) -> int:
    """Number of points inside the anchored half-open box [0, t).

    Strict inequality in every coordinate: a point sitting exactly on
    the upper face is outside.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (ps.dim,):
        raise ValueError(f"t must have shape ({ps.dim},)")
    if (t < 0.0).any() or (t > 1.0).any():
        raise ValueError("t must lie in [0, 1]^d")
    return int((ps.coords < t).all(axis=1).sum())


def local_discrepancy(ps: PointSet, t) -> float:
    """count([0,t))/N - Vol([0,t)); for N = 0 this is -Vol([0,t))."""
    return count_in_box(ps, t) / max(ps.n_points, 1) - float(np.prod(t))


@dataclass(frozen=True)
class CellGrid:
    """Axis breakpoints plus the per-cell counting term.

    breakpoints[i] is the sorted axis-i grid including 0 and 1; cell
    (j_1, ..., j_d) is the open box between consecutive breakpoints and
    counts[j_1, ..., j_d] is count([0, t)) for any t inside it.
    """

    breakpoints: tuple
    counts: np.ndarray
    n_points: int

    @property
    def dim(self) -> int:
        return len(self.breakpoints)

    @property
    def n_cells(self) -> int:
        return int(self.counts.size)

    def cell_lo(self, axis: int) -> np.ndarray:
        return self.breakpoints[axis][:-1]

    def cell_hi(self, axis: int) -> np.ndarray:
        return self.breakpoints[axis][1:]

    def cell_volumes(self) -> np.ndarray:
        lens = [self.cell_hi(i) - self.cell_lo(i) for i in range(self.dim)]
        return reduce(np.multiply.outer, lens)

    def count_fractions(self) -> np.ndarray:
        """counts / N as float; all zeros for the empty set."""
        return self.counts / float(max(self.n_points, 1))

    def sup_abs_discrepancy(self) -> float:
        """sup over the cube of |local discrepancy|.

        The counting term is constant per cell and the volume term is
        monotone, so the supremum over a cell closure sits at one of
        the two diagonal corners; the global value equals the exact
        star discrepancy.
        """
        lo = reduce(np.multiply.outer, [self.cell_lo(i) for i in range(self.dim)])
        hi = reduce(np.multiply.outer, [self.cell_hi(i) for i in range(self.dim)])
        a = self.count_fractions()
        m = max(np.abs(a - lo).max(), np.abs(a - hi).max())
        return float(m)


def build_cell_grid(ps: PointSet) -> CellGrid:
    """Cell decomposition of [0,1]^d induced by the coordinates of P.

    Ties collapse to a single breakpoint; duplicated points are counted
    with multiplicity.  Produces at most N+1 intervals per axis.
    """
    d = ps.dim
    bps = []
    for i in range(d):
        vals = np.concatenate(([0.0, 1.0], ps.coords[:, i]))
        bps.append(np.unique(vals))
    shape = tuple(len(b) - 1 for b in bps)
    n_cells = int(np.prod([float(s) for s in shape]))
    if n_cells > MAX_CELLS_DEFAULT:
        raise ValueError(
            f"exact engines infeasible at n={ps.n_points}, d={d}: the cell grid "
            f"would have {n_cells} cells (limit {MAX_CELLS_DEFAULT})"
        )
    occ = np.zeros(shape, dtype=np.int64)
    # Point with coordinate equal to breakpoint b_m is inside [0, t)
    # exactly when the cell starts at b_m or later, so an occupancy
    # histogram at the point's own breakpoint indices followed by a
    # prefix sum along every axis yields all cell counts at once.
    idx = tuple(
        np.searchsorted(bps[i], ps.coords[:, i], side="left") for i in range(d)
    )
    np.add.at(occ, idx, 1)
    for ax in range(d):
        occ = occ.cumsum(axis=ax)
    counts = occ
    counts.setflags(write=False)
    return CellGrid(breakpoints=tuple(bps), counts=counts, n_points=ps.n_points)
