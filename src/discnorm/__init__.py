"""Discrepancy of point sets in the unit cube under L_p, star, and
Orlicz (Luxemburg) norms, with the matching bound and constant checks."""

from .bounds import (
    BoundReport,
    NormSpec,
    construction_constants_check,
    empirical_inverse_discrepancy,
    hnww_empirical_check,
    initial_alpha_lower,
    initial_phi_lower,
    lemma1_sandwich_check,
    min_const_check,
    nbound1,
    stirling_check,
    theorem2_constant,
    theorem2_n_bound,
)
from .cells import CellGrid, build_cell_grid
from .integrate import NumericalError
from .lp import LpCache, NormResult, initial_lp, lp_discrepancy, warnock_l2
from .orlicz import (
    OrliczSpec,
    WeightFn,
    alpha_norm,
    luxemburg_norm,
    phi_norm,
)
from .pointset import (
    PointSet,
    empty_pointset,
    generate_halton,
    generate_uniform,
    load_pointset,
    save_pointset,
)
from .star import star_discrepancy_exact

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CellGrid",
    "LpCache",
    "NormResult",
    "NormSpec",
    "NumericalError",
    "OrliczSpec",
    "PointSet",
    "WeightFn",
    "alpha_norm",
    "build_cell_grid",
    "construction_constants_check",
    "empirical_inverse_discrepancy",
    "empty_pointset",
    "generate_halton",
    "generate_uniform",
    "hnww_empirical_check",
    "initial_alpha_lower",
    "initial_lp",
    "initial_phi_lower",
    "lemma1_sandwich_check",
    "load_pointset",
    "lp_discrepancy",
    "luxemburg_norm",
    "min_const_check",
    "nbound1",
    "phi_norm",
    "save_pointset",
    "star_discrepancy_exact",
    "stirling_check",
    "theorem2_constant",
    "theorem2_n_bound",
    "warnock_l2",
]
