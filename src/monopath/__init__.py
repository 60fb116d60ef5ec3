"""Exact engine for monotone-path Ramsey numbers and high-dimensional partitions.

The ordered Ramsey problem for monotone paths in k-uniform hypergraphs is
equivalent to counting d-dimensional strict partitions, and this package
works both sides of that bridge: exact partition counting (transfer-matrix
over antichain frontiers), extremal colorings that meet the known lower
bounds, a longest-monotone-path engine with certificates, a small exact
Ramsey search, and an interval-arithmetic checker for the tower-type
inequalities relating the two sides.

Each module is reached from the ``monopath`` command line (:mod:`.cli`).
The brute-force oracles the engines are checked against are kept with the
tests, not here.
"""

from __future__ import annotations

from .bounds import TowerScalar, run_inequality_suite, tower, tower_bounds, tower_compare
from .budget import DEFAULT_BUDGET, BudgetExceeded, WorkMeter, default_budget
from .colorings import (
    EdgeColoring,
    check_transitivity_witness,
    color_3uniform_lower,
    color_graph_lower,
    color_kuniform_lower,
    is_transitive,
    random_coloring,
)
from .counting import (
    GridBox,
    RankProfile,
    count_box_partitions,
    count_downsets,
    count_order_ideals,
    count_rho,
    dedekind,
    lnn_rank_sizes,
    macmahon,
    macmahon_rect,
    middle_max,
    p1_closed,
    p1_rect,
    s_profile,
)
from .paths import (
    Certificate,
    MonotonePath,
    PathScan,
    injectivity_certificate,
    longest_mono,
    validate_path,
)
from .search import RamseyResult, SearchBudget, exact_ramsey
from .universes import Universe, build_universe

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Certificate",
    "DEFAULT_BUDGET",
    "EdgeColoring",
    "GridBox",
    "MonotonePath",
    "PathScan",
    "RamseyResult",
    "RankProfile",
    "SearchBudget",
    "TowerScalar",
    "Universe",
    "WorkMeter",
    "build_universe",
    "check_transitivity_witness",
    "color_3uniform_lower",
    "color_graph_lower",
    "color_kuniform_lower",
    "count_box_partitions",
    "count_downsets",
    "count_order_ideals",
    "count_rho",
    "dedekind",
    "default_budget",
    "exact_ramsey",
    "injectivity_certificate",
    "is_transitive",
    "lnn_rank_sizes",
    "longest_mono",
    "macmahon",
    "macmahon_rect",
    "middle_max",
    "p1_closed",
    "p1_rect",
    "random_coloring",
    "run_inequality_suite",
    "s_profile",
    "tower",
    "tower_bounds",
    "tower_compare",
    "validate_path",
]
