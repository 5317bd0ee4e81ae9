"""The degree-scaled survival generating function h for rooted trees,
read off the return generating function f, and the forge that turns the
integer dependency among three height-3 trees into two distinct trees
with identical return-time distributions.

h(x) = d(r) sum_k z_{2k} x^k, z_k the probability of no return in the
first k steps.  A tree is bipartite, so f = N/D is even in t, and h is
d(r) D(sqrt x) / ((1 - x) N(sqrt x)); the walk behind f stops when the
root's Krylov space closes, whatever the tree's size.  The tests check
h against its structural recurrences: h = 1 for a single edge; gluing
trees at their roots adds their h's; attaching a new leaf root maps h to
(1 + h) / (1 + (1 - x) h).

Trees are RootedGraphs tagged "tree" (every connected graph with n - 1
edges is, see `graphs`); the entry points refuse any other graph.
"""
from __future__ import annotations

import math

from .errors import DomainError
from .exact import MAX_EXACT_K, GenFun, first_return_series, walk_gen_fun
from .graphs import RootedGraph, attach_new_root, build_gab, glue_at_roots
from .ratfun import IntPoly, RatFun


def _check_tree(g: RootedGraph) -> None:
    if "tree" not in g.tags:
        raise DomainError(f"not a tree: {g.edge_count} edges on {g.n} vertices")


def _subtree_classes(g: RootedGraph) -> list[tuple[int, ...]]:
    """The isomorphism classes of the rooted subtrees of the tree `g`
    (AHU), from one iterative post-order.  Class c is the sorted tuple of
    its children's classes, so classes are numbered children first and
    the whole tree, whose subtree no other vertex shares, is the last."""
    _check_tree(g)
    order, stack = [], [g.root]
    parent = [-1] * g.n
    parent[g.root] = g.root
    while stack:
        u = stack.pop()
        order.append(u)
        for v in g.adjacency[u]:
            if parent[v] < 0:
                parent[v] = u
                stack.append(v)
    below = [[] for _ in range(g.n)]
    ids: dict[tuple[int, ...], int] = {}
    for u in reversed(order):
        c = ids.setdefault(tuple(sorted(below[u])), len(ids))
        if u != g.root:
            below[parent[u]].append(c)
    return list(ids)


def _h_of(t: RootedGraph, f: GenFun) -> RatFun:
    """h read off the tree's walked f = N/D: N and D are even, so N(sqrt x)
    and D(sqrt x) are their even coefficients, and D(1) = 0, so (1 - x)
    divides D(sqrt x) exactly.  The pair is coprime, as N and D are: a
    common root x of the two would give a common root sqrt x of N and
    D."""
    num, den = (IntPoly(p.c[::2]) for p in (f.num, f.den))
    return RatFun(t.root_degree * den.exact_div(IntPoly([1, -1])), num)


def _h_series(g: RootedGraph, f: GenFun, k_max: int) -> list[tuple[int, int]]:
    """First k_max coefficients of h from the survival series of the
    tree's walked f, d(r) * sum_k z_{2k} x^k, each a (num, den) pair in
    lowest terms: only gcd(den, d(r)) can cancel."""
    if not 1 <= k_max <= MAX_EXACT_K:
        raise DomainError(f"k_max must lie in [1, {MAX_EXACT_K}], got {k_max}")
    table = first_return_series(g, f, 2 * (k_max - 1) + 1)
    out = []
    for num, den in table.z[:2 * k_max:2]:
        common = math.gcd(den, g.root_degree)
        out.append((num * (g.root_degree // common), den // common))
    return out


def h_of_tree(t: RootedGraph) -> RatFun:
    """Exact h of the tree `t`, read off its walked f."""
    _check_tree(t)
    return _h_of(t, walk_gen_fun(t))


def h_from_series(g: RootedGraph, k_max: int) -> list[tuple[int, int]]:
    """First k_max coefficients of h from the exact survival series of
    the tree `g`, as (num, den) pairs in lowest terms."""
    _check_tree(g)
    return _h_series(g, walk_gen_fun(g), k_max)


def ahu_canonical(t: RootedGraph):
    """Rooted-tree canonical form (sorted-subtree encoding); equal
    encodings iff the rooted trees are isomorphic."""
    enc: list[tuple] = []
    for key in _subtree_classes(t):
        enc.append(tuple(sorted(enc[c] for c in key)))
    return enc[-1]


# The largest k `forge` takes: the tests forge and check every composite
# k up to it.
MAX_FORGE_K = 60


def _forge_plan(k: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The three divisor pairs (a, b) of k, namely (1,k), the smallest
    proper pair and (k,1), and the content-reduced integer dependency c
    among their trees G_{a,b}."""
    if k < 4:
        raise DomainError(f"need composite k >= 4, got {k}")
    small = next((a for a in range(2, math.isqrt(k) + 1) if k % a == 0), None)
    if small is None:
        raise DomainError(f"{k} is prime; need a composite k >= 4")
    pairs = [(1, k), (small, k // small), (k, 1)]
    b1, b2, b3 = (b for _, b in pairs)
    dep = (b2 - b3, b3 - b1, b1 - b2)
    content = math.gcd(*dep)
    return pairs, [c // content for c in dep]


def forge_tree_pair(k: int) -> tuple[RootedGraph, RootedGraph]:
    """Two non-isomorphic rooted trees with identical h (hence identical
    return-time distributions), built from the dependency among the three
    height-3 trees G_{a,b} (see `build_gab`) with ab = k.

    Their h = (k - (b-1)x) / (k - (k-1)x) share one denominator, so
    sum c_i h_i = 0 exactly when sum c_i = 0 and sum c_i b_i = 0: c is
    the cross product of the b's and (1, 1, 1), content-reduced.  The
    b's of `_forge_plan` are k > k/a > 1, so every c_i is nonzero and
    the first is positive.  `certify_pair` walks the two trees to check
    that their f agree."""
    pairs, dep = _forge_plan(k)
    trees = [build_gab(a, b) for a, b in pairs]
    left = [(t, c) for t, c in zip(trees, dep) if c > 0]
    right = [(t, -c) for t, c in zip(trees, dep) if c < 0]
    t1 = attach_new_root(glue_at_roots(left))
    t2 = attach_new_root(glue_at_roots(right))
    if ahu_canonical(t1) == ahu_canonical(t2):
        raise AssertionError("forged trees are isomorphic; construction bug")
    return t1, t2


def certify_pair(left: RootedGraph, right: RootedGraph, terms: int) -> dict:
    """The certificate of a forged pair, from one walk of each tree: the
    common h, whether the first `terms` coefficients of each tree's h
    series match, and whether the trees are isomorphic."""
    f_left, f_right = walk_gen_fun(left), walk_gen_fun(right)
    if f_left != f_right:
        raise AssertionError("forged trees disagree on f; construction bug")
    return {
        "h": _h_of(left, f_left).to_json_dict(),
        "return_series_terms_checked": terms,
        "return_series_match":
            _h_series(left, f_left, terms) == _h_series(right, f_right, terms),
        "isomorphic": ahu_canonical(left) == ahu_canonical(right),
    }
