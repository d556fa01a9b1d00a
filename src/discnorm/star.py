"""Star (L_infinity) discrepancy, exact and Monte Carlo lower bound.

The exact value is the sup of |local discrepancy| over the cell grid of
``cells``; its cell-count cap keeps requests at desk scale.
"""

from __future__ import annotations

import numpy as np

from .cells import build_cell_grid
from .pointset import PointSet


def star_discrepancy_exact(points: PointSet) -> float:
    """Exact L_infinity norm of the local discrepancy.

    Raises ``ValueError`` when the cell grid exceeds its cell-count cap.
    """
    return build_cell_grid(points).sup_abs_discrepancy()


def star_discrepancy_lower_mc(points: PointSet, samples: int = 100_000,
                              seed: int = 0) -> float:
    """Monte Carlo lower bound: max |local discrepancy| over random anchors."""
    d = points.dim
    n = points.n_points
    rng = np.random.Generator(np.random.PCG64(seed))
    best = 0.0
    chunk = max(1, min(samples, 4_000_000 // max(n, 1)))
    left = samples
    coords = points.coords
    while left > 0:
        b = min(chunk, left)
        t = rng.random((b, d))
        cnt = (coords[None, :, :] < t[:, None, :]).all(axis=2).sum(axis=1)
        disc = np.abs(cnt / max(n, 1) - t.prod(axis=1))
        best = max(best, float(disc.max()))
        left -= b
    return best
