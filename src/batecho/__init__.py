"""Spectral inference from random-walk return times at a single vertex."""

from .errors import BatechoError, BudgetOverflow, DomainError, SearchExhausted
from .exact import (
    first_return_series,
    hitting_from_stationary,
    lazy_series,
    return_gen_fun,
)
from .gap import (
    GapEstimate,
    MixingGapEstimate,
    audit_budget,
    audit_error_chain,
    estimate_gap,
    estimate_hitting,
    estimate_mixing_gap,
    gap_bounds,
)
from .graphs import (
    RootedGraph,
    attach_new_root,
    build_family,
    build_gab,
    build_leafy,
    from_edge_list,
    from_text,
    glue_at_roots,
)
from .ratfun import IntPoly, RatFun
from .treefun import (
    ahu_canonical,
    certify_pair,
    forge_tree_pair,
    h_from_series,
    h_of_tree,
)
from .walk import (
    ReturnTimes,
    RootMeasure,
    SampledReturnTimes,
    estimate_pk,
    first_return_counts,
    hoeffding_count,
    nondegenerate_set,
    observer_stats,
    poles_to_eigenvalues,
    run_experiment,
    sample_first_returns,
    spectrum,
)

__version__ = "0.1.0"
