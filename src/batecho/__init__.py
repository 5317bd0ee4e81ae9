"""Spectral inference from random-walk return times at a single vertex."""

from .errors import (
    BatechoError,
    BudgetOverflow,
    ConvergenceFailure,
    Disconnected,
    DomainError,
    GraphError,
    MomentMismatch,
    NoThreeDivisorPairs,
    SearchExhausted,
)
from .exact import (
    first_return_series,
    hitting_from_stationary,
    lazy_series,
    mean_return_time,
    nondegenerate_set,
    poles_to_eigenvalues,
    return_gen_fun,
    spectrum,
    transition_series,
)
from .gap import (
    GapEstimate,
    audit_budget,
    audit_error_chain,
    estimate_gap,
    estimate_gap_exact,
    estimate_hitting,
    estimate_mixing_gap,
    gap_bounds,
)
from .graphs import (
    RootedGraph,
    TreeHandle,
    attach_new_root,
    build_family,
    build_gab,
    build_leafy,
    from_edge_list,
    from_text,
    glue_at_roots,
)
from .ratfun import IntPoly, RatFun, find_dependency
from .treefun import (
    ahu_canonical,
    forge_tree_pair,
    h_from_series,
    h_of_tree,
)
from .walk import (
    ReturnTimes,
    SampledReturnTimes,
    estimate_pk,
    hoeffding_count,
    observer_stats,
    run_experiment,
    sample_first_returns,
)

__version__ = "0.1.0"
