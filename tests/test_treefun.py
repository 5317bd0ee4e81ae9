from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from batecho import (
    ahu_canonical,
    attach_new_root,
    build_family,
    build_gab,
    forge_tree_pair,
    glue_at_roots,
    h_from_series,
    h_of_tree,
)
from batecho.errors import NoThreeDivisorPairs
from batecho.graphs import TreeHandle, _make
from batecho.ratfun import IntPoly, RatFun


def gab_closed_form(a, b):
    return RatFun(IntPoly([a * b, -(b - 1)]), IntPoly([a * b, -(a * b - 1)]))


def test_single_edge_h_is_one():
    t = TreeHandle(build_family("path", 2))
    assert h_of_tree(t) == RatFun(IntPoly.one, IntPoly.one)


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_gab_closed_form(a, b):
    assert h_of_tree(build_gab(a, b)) == gab_closed_form(a, b)


def test_h_additive_under_gluing():
    t1, t2 = build_gab(2, 2), build_gab(3, 2)
    glued = glue_at_roots([(t1, 2), (t2, 1)])
    assert h_of_tree(glued) == h_of_tree(t1) * 2 + h_of_tree(t2)


def test_h_add_root_recursion():
    t = build_gab(2, 3)
    h = h_of_tree(t)
    one = RatFun(IntPoly.one, IntPoly.one)
    one_minus_x = RatFun(IntPoly([1, -1]), IntPoly.one)
    expect = (one + h) / (one + one_minus_x * h)
    assert h_of_tree(attach_new_root(t)) == expect


def _random_tree(rng_ints):
    """Build a tree from a Prufer-like parent list: vertex i+1 attaches to
    a uniformly chosen earlier vertex."""
    n = len(rng_ints) + 1
    edges = [(rng_ints[i] % (i + 1), i + 1) for i in range(n - 1)]
    return TreeHandle(_make(n, edges, 0, ["tree"]))


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=7))
def test_h_matches_survival_series(parents):
    """Dual route: h's Taylor coefficients are d(r) * z_{2k}."""
    t = _random_tree(parents)
    k = 12
    assert h_of_tree(t).series(k - 1) == h_from_series(t, k)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=8),
       st.lists(st.integers(0, 1000), min_size=8, max_size=8))
def test_ahu_invariant_under_relabeling(parents, perm_seed):
    t = _random_tree(parents)
    g = t.graph
    others = [v for v in range(g.n) if v != g.root]
    order = sorted(others, key=lambda v: (perm_seed[v % len(perm_seed)], v))
    remap = {g.root: g.root}
    remap.update({v: others[i] for i, v in enumerate(order)})
    relabeled = TreeHandle(_make(
        g.n, [(remap[u], remap[v]) for u, v in g.edges()], g.root, ["tree"]))
    assert ahu_canonical(t) == ahu_canonical(relabeled)


def test_ahu_distinguishes_shapes():
    assert ahu_canonical(build_gab(2, 2)) != ahu_canonical(build_gab(4, 1))


@pytest.mark.parametrize("k", [4, 6, 8, 9])
def test_forge_composite_k(k):
    t1, t2 = forge_tree_pair(k)
    assert h_of_tree(t1) == h_of_tree(t2)
    assert ahu_canonical(t1) != ahu_canonical(t2)
    assert h_from_series(t1, 20) == h_from_series(t2, 20)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_forge_rejects_primes_and_tiny_k(k):
    with pytest.raises(NoThreeDivisorPairs):
        forge_tree_pair(k)


def test_forged_k4_reproduces_known_pair(forged_pair):
    left, right = forged_pair
    assert left.n == right.n == 11
    # 1*G_{1,4} + 2*G_{4,1} on one side, 3*G_{2,2} (paths) on the other
    degs = lambda t: sorted(t.graph.degree(v) for v in range(t.n))
    assert degs(left) == [1] * 8 + [4] * 3
    assert degs(right) == [1] * 4 + [2] * 6 + [4]
