"""Exact mutual-visibility invariants of small graphs.

The package computes the mutual-visibility number, its total and
independent-total variants, and the bypass count, all by exact search;
builds Cartesian products with coordinate bookkeeping; and ships a
verification harness that recomputes the structural claims the solvers
rely on over seeded instance corpora.
"""

from .errors import CapExceeded, GraphError, SpecError, WitnessError
from .generators import (
    biclique,
    complete,
    cycle,
    fig1,
    fig2,
    g_m,
    generalized_complete,
    path,
    petersen,
    random_connected_graph,
    random_tree,
    star,
    theta,
)
from .graph import (
    Graph,
    girth,
    independence_number,
    is_connected,
    is_independent_set,
    leaf_set,
    max_independent_set,
    min_degree,
)
from .products import (
    ProductGraph,
    cartesian_product,
    k_fold_product,
    layer,
    lower_bound_witness,
    over_visible_witness,
)
from .solvers import (
    InvariantReport,
    alpha_report,
    bypass_report,
    max_independent_total_mv,
    max_mv,
    max_total_mv,
    mut_is_zero,
    naive_oracle,
    sandwich_check,
)
from .specs import build, graph_of, parse_graph_file, write_graph_file
from .verify import (
    SuiteOptions,
    VerificationRecord,
    describe_suites,
    named_corpus,
    run_all,
    run_suite,
    suite_ids,
)
from .visibility import (
    bypass_set,
    is_bypass_vertex,
    is_mv_set,
    is_pair_visible,
    is_total_mv_set,
    total_mv_violation,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Graph",
    "GraphError",
    "InvariantReport",
    "ProductGraph",
    "SpecError",
    "SuiteOptions",
    "VerificationRecord",
    "WitnessError",
    "alpha_report",
    "biclique",
    "build",
    "bypass_report",
    "bypass_set",
    "cartesian_product",
    "complete",
    "cycle",
    "describe_suites",
    "fig1",
    "fig2",
    "g_m",
    "generalized_complete",
    "girth",
    "graph_of",
    "independence_number",
    "is_bypass_vertex",
    "is_connected",
    "is_independent_set",
    "is_mv_set",
    "is_pair_visible",
    "is_total_mv_set",
    "k_fold_product",
    "layer",
    "leaf_set",
    "lower_bound_witness",
    "max_independent_set",
    "max_independent_total_mv",
    "max_mv",
    "max_total_mv",
    "min_degree",
    "mut_is_zero",
    "naive_oracle",
    "named_corpus",
    "over_visible_witness",
    "parse_graph_file",
    "path",
    "petersen",
    "random_connected_graph",
    "random_tree",
    "run_all",
    "run_suite",
    "sandwich_check",
    "star",
    "suite_ids",
    "theta",
    "total_mv_violation",
    "write_graph_file",
]
