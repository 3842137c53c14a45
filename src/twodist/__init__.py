"""Bounds, constructions and search for q-ary codes with two Hamming distances."""

from .core import (
    BoundStatus,
    Code,
    DistanceDistribution,
    TwoDistParams,
    distance_distribution,
    is_antipodal,
    moments,
    read_code,
    strength,
    verify_two_distance,
    write_code,
)
from .krawtchouk import kraw_eval, kraw_rows
from .bounds import (
    BoundReport,
    best_upper_bound,
    d2_bound,
    dd_refine,
    gray_rankin_bound,
    lp_optimum,
    plotkin_bound,
    read_external_bounds,
    sphere_bound,
)
from .feasibility import (
    LinearParams,
    complementary_params,
    delsarte_form,
    gcd_screen,
    linear_screens,
    macwilliams_mu,
    special_values,
    srg_analysis,
    two_distance_realizable,
)
from .constructions import (
    GeneratorMatrix,
    arc_code,
    complementary_code,
    difference_matrix,
    dm_code,
    pencil_code,
    seed_code,
    small_family_code,
    su1_code,
    su2_code,
)
from .search import SearchConfig, SearchResult, exhaustive_maximum, random_greedy
from .tables import CellOptions, TableCell, TableSpec, compute_cell, render_table

__all__ = [name for name in dir() if not name.startswith("_")]
