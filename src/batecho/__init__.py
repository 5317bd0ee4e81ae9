"""Spectral inference from random-walk return times at a single vertex.

The exact half (`exact`, `treefun`, `ratfun`), `graphs` and `errors` load
with the package.  The float half (`walk`, `gap`), and with it numpy,
loads on the first lookup of one of its names (PEP 562 `__getattr__`), so
a process that only runs the exact half never imports numpy.
"""

from .errors import BatechoError, BudgetOverflow, DomainError, SearchExhausted
from .exact import (
    first_return_series,
    hitting_from_stationary,
    lazy_series,
    return_gen_fun,
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

# each name the package takes from the float half, by the module it
# lives in; a module's own name stands for the module
_LAZY = {
    **dict.fromkeys((
        "gap",
        "GapEstimate",
        "MixingGapEstimate",
        "audit_budget",
        "audit_error_chain",
        "estimate_gap",
        "estimate_hitting",
        "estimate_mixing_gap",
        "gap_bounds",
    ), "gap"),
    **dict.fromkeys((
        "walk",
        "ReturnTimes",
        "RootMeasure",
        "SampledReturnTimes",
        "estimate_pk",
        "first_return_counts",
        "hoeffding_count",
        "nondegenerate_set",
        "observer_stats",
        "poles_to_eigenvalues",
        "run_experiment",
        "sample_first_returns",
        "spectrum",
    ), "walk"),
}

__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY})

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the float-half module that holds `name` and keep the value
    as a module global, so each later lookup is an ordinary one."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
