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
from batecho.errors import DomainError
from batecho.exact import MAX_EXACT_N, _closed_walk
from batecho.graphs import _make, from_text
from batecho.treefun import MAX_FORGE_K, _forge_plan
from batecho.ratfun import IntPoly, RatFun

from exact_oracle import (
    class_h,
    find_dependency,
    fractions,
    power_series,
    recursive_ahu,
    recursive_h,
)
from field_oracle import Rat, coerce, poly_gcd

COMPOSITES = [k for k in range(4, MAX_FORGE_K + 1) if any(k % a == 0 for a in range(2, k))]


def forge_size(k: int) -> int:
    """The vertex count of each tree of `forge_tree_pair(k)`, without
    building them.  G_{a,b} has 2 + (a-1) b vertices, and a side that
    glues c_i copies of G_{a_i,b_i} at their roots and attaches a new
    root has 2 + sum c_i (n_i - 1); the two sides agree, because
    n_i - 1 = 1 + k - b_i and sum c_i = sum c_i b_i = 0."""
    pairs, dep = _forge_plan(k)
    return 2 + sum(c * (1 + (a - 1) * b) for (a, b), c in zip(pairs, dep) if c > 0)


def gab_closed_form(a, b):
    """(ab - (b-1)x) / (ab - (ab-1)x); for a = 1 the two factors cancel
    to 1, the single edge's h."""
    return Rat(IntPoly([a * b, -(b - 1)]), IntPoly([a * b, -(a * b - 1)]))


def test_single_edge_h_is_one():
    t = build_family("path", 2)
    assert h_of_tree(t) == RatFun(IntPoly.one, IntPoly.one)


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_gab_closed_form(a, b):
    assert h_of_tree(build_gab(a, b)) == gab_closed_form(a, b)


def test_h_pairs_are_coprime():
    """RatFun divides out no common factor, so h's pair must be coprime
    as read off the walk, on every G_{a,b} with a, b <= 6 and on both
    trees of every forged pair with k <= 24."""
    trees = [build_gab(a, b) for a in range(1, 7) for b in range(1, 7)]
    trees += [t for k in COMPOSITES if k <= 24 for t in forge_tree_pair(k)]
    for t in trees:
        h = h_of_tree(t)
        assert poly_gcd(h.num, h.den) == IntPoly.one, t.to_text()


def test_h_additive_under_gluing():
    t1, t2 = build_gab(2, 2), build_gab(3, 2)
    glued = glue_at_roots([(t1, 2), (t2, 1)])
    assert h_of_tree(glued) == coerce(h_of_tree(t1)) * 2 + h_of_tree(t2)


def test_h_add_root_recursion():
    t = build_gab(2, 3)
    h = h_of_tree(t)
    one = Rat(IntPoly.one, IntPoly.one)
    one_minus_x = Rat(IntPoly([1, -1]), IntPoly.one)
    expect = (one + h) / (one + one_minus_x * h)
    assert h_of_tree(attach_new_root(t)) == expect


@pytest.mark.parametrize("route", [h_of_tree, ahu_canonical,
                                   lambda g: h_from_series(g, 4)])
def test_tree_routes_refuse_a_graph_that_is_not_a_tree(route):
    with pytest.raises(DomainError, match="^not a tree: 4 edges on 4 vertices$"):
        route(build_family("cycle", 4))


def test_tree_read_from_text_is_a_tree():
    t = build_gab(2, 3)
    read = from_text(t.to_text())
    assert "tree" in read.tags
    assert h_of_tree(read) == h_of_tree(t)


def _random_tree(rng_ints):
    """Build a tree from a Prufer-like parent list: vertex i+1 attaches to
    a uniformly chosen earlier vertex."""
    n = len(rng_ints) + 1
    edges = [(rng_ints[i] % (i + 1), i + 1) for i in range(n - 1)]
    return _make(n, edges, 0)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=7))
def test_h_matches_survival_series(parents):
    """Dual route: h's Taylor coefficients are d(r) * z_{2k}."""
    t = _random_tree(parents)
    k = 12
    assert power_series(h_of_tree(t), k - 1) == fractions(h_from_series(t, k))


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=24))
def test_per_class_h_and_encoding_equal_recursive_routes(parents):
    """h read off the walk equals the per-class and the per-vertex
    recursions."""
    t = _random_tree(parents)
    assert h_of_tree(t) == class_h(t) == recursive_h(t)
    assert ahu_canonical(t) == recursive_ahu(t)


@pytest.mark.parametrize("k", [4, 6, 8, 9, 10])
def test_per_class_h_on_forged_pairs(k):
    for t in forge_tree_pair(k):
        assert h_of_tree(t) == class_h(t) == recursive_h(t)
        assert ahu_canonical(t) == recursive_ahu(t)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=8),
       st.lists(st.integers(0, 1000), min_size=8, max_size=8))
def test_ahu_invariant_under_relabeling(parents, perm_seed):
    g = _random_tree(parents)
    others = [v for v in range(g.n) if v != g.root]
    order = sorted(others, key=lambda v: (perm_seed[v % len(perm_seed)], v))
    remap = {g.root: g.root}
    remap.update({v: others[i] for i, v in enumerate(order)})
    relabeled = _make(g.n, [(remap[u], remap[v]) for u, v in g.edges()], g.root)
    assert ahu_canonical(g) == ahu_canonical(relabeled)


def test_ahu_distinguishes_shapes():
    assert ahu_canonical(build_gab(2, 2)) != ahu_canonical(build_gab(4, 1))


def test_forged_trees_walks_close_after_ten_ticks():
    """Each forged tree's root sees five distinct eigenvalues, so its
    walk stops after 10 ticks whatever the tree's size, also past the
    exact engine's vertex cap."""
    sizes = []
    for k in COMPOSITES:
        for t in forge_tree_pair(k):
            a, _, length, _ = _closed_walk(t)
            assert len(a) - 1 == 2 * length == 10, k
            sizes.append(t.n)
    assert max(sizes) > MAX_EXACT_N


@pytest.mark.parametrize("k", COMPOSITES)
def test_forge_composite_k(k):
    t1, t2 = forge_tree_pair(k)
    assert h_of_tree(t1) == h_of_tree(t2)
    assert ahu_canonical(t1) != ahu_canonical(t2)
    assert h_from_series(t1, 20) == h_from_series(t2, 20)


@pytest.mark.parametrize("k", COMPOSITES)
def test_forge_closed_form_equals_the_dependency_search(k):
    """The forge's closed-form dependency is the one the general search
    finds among the three divisor-pair trees, so both build the same
    graphs."""
    a = next(a for a in range(2, k) if k % a == 0)
    trees = [build_gab(1, k), build_gab(a, k // a), build_gab(k, 1)]
    dep = find_dependency([h_of_tree(t) for t in trees])
    assert dep is not None and all(dep)
    want = [attach_new_root(glue_at_roots([(t, s * c) for t, c in zip(trees, dep)
                                           if s * c > 0]))
            for s in (1, -1)]
    got = forge_tree_pair(k)
    assert [t.to_text() for t in got] == [t.to_text() for t in want]
    # a property of the construction: one tree holds G_{k,1} (k + 1
    # vertices) and G_{1,k}
    assert forge_size(k) == got[0].n == got[1].n >= k + 3


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_forge_rejects_primes_and_tiny_k(k):
    message = f"need composite k >= 4, got {k}" if k < 4 else f"{k} is prime"
    with pytest.raises(DomainError, match=message):
        forge_tree_pair(k)


def test_forged_k4_reproduces_known_pair(forged_pair):
    left, right = forged_pair
    assert left.n == right.n == 11
    # 1*G_{1,4} + 2*G_{4,1} on one side, 3*G_{2,2} (paths) on the other
    degs = lambda t: sorted(t.degree(v) for v in range(t.n))
    assert degs(left) == [1] * 8 + [4] * 3
    assert degs(right) == [1] * 4 + [2] * 6 + [4]
