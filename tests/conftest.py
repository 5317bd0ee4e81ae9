import pytest

from batecho import build_family, build_leafy, forge_tree_pair

# The standing fixture set used across the oracle tests.  Forging is
# deterministic, so building once at import time is safe.
_LEFT, _RIGHT = forge_tree_pair(4)

FIXTURES = {
    "k2": build_family("path", 2),
    "path4": build_family("path", 4),
    "triangle": build_family("cycle", 3),
    "c4": build_family("cycle", 4),
    "c8": build_family("cycle", 8),
    "k4": build_family("complete", 4),
    "q3": build_family("hypercube", 3),
    "star3": build_family("star", 3),
    "tree_left": _LEFT,
    "tree_right": _RIGHT,
    "leafy_expander": build_leafy(2, 2, mode="expander"),
    "leafy_cutpoint": build_leafy(2, 2, mode="cutpoint"),
}

TREES = ("k2", "path4", "star3", "tree_left", "tree_right")
REGULAR = ("k2", "triangle", "c4", "c8", "k4", "q3",
           "leafy_expander", "leafy_cutpoint")


def fixture_params():
    return [pytest.param(g, id=name) for name, g in FIXTURES.items()]


def regular_params(min_n=2):
    return [pytest.param(FIXTURES[name], id=name)
            for name in REGULAR if FIXTURES[name].n >= min_n]


@pytest.fixture(scope="session")
def fixtures():
    return FIXTURES


@pytest.fixture(scope="session")
def forged_pair():
    return _LEFT, _RIGHT
