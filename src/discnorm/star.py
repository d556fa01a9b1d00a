"""Exact star (L_infinity) discrepancy.

The exact value is the sup of |local discrepancy| over the cell grid of
``cells``; its cell-count cap keeps requests at desk scale.
"""

from __future__ import annotations

from .cells import build_cell_grid
from .pointset import PointSet


def star_discrepancy_exact(points: PointSet) -> float:
    """Exact L_infinity norm of the local discrepancy.

    Raises ``ValueError`` when the cell grid exceeds its cell-count cap.
    """
    return build_cell_grid(points).sup_abs
