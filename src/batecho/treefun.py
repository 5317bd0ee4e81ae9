"""The degree-scaled survival generating function h for rooted trees,
its structural recurrences, linear-dependency search, and the forge that
turns an integer dependency into two distinct trees with identical
return-time distributions.

h is characterized by: h = 1 for a single edge; gluing trees at their
roots adds their h's; attaching a new leaf root maps h to
(1 + h) / (1 + (1 - x) h).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError, NoThreeDivisorPairs, RootFindingFailure
from .exact import first_return_series, return_gen_fun
from .graphs import TreeHandle, attach_new_root, build_gab, glue_at_roots
from .ratfun import IntPoly, RatFun, find_dependency

_ONE = RatFun(IntPoly.one)
_ONE_MINUS_X = RatFun(IntPoly([1, -1]))


def _children_lists(t: TreeHandle) -> list[list[int]]:
    g = t.graph
    children = [[] for _ in range(g.n)]
    seen = [False] * g.n
    seen[g.root] = True
    stack = [g.root]
    while stack:
        u = stack.pop()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                children[u].append(v)
                stack.append(v)
    return children


def h_of_tree(t: TreeHandle) -> RatFun:
    """Exact h by recursive decomposition at the root: each root branch is
    a new-leaf-root extension of the child's subtree, and branches glue
    additively."""
    children = _children_lists(t)

    def branch(v: int) -> RatFun:
        if not children[v]:
            return _ONE
        h = subtree(v)
        return (_ONE + h) / (_ONE + _ONE_MINUS_X * h)

    def subtree(u: int) -> RatFun:
        acc = RatFun(IntPoly.zero)
        for v in children[u]:
            acc = acc + branch(v)
        return acc

    return subtree(t.root)


def h_from_series(t: TreeHandle, k_max: int) -> list[Fraction]:
    """First k_max coefficients of h computed independently from the
    exact survival series, d(r) * sum_k z_{2k} x^k."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    f = return_gen_fun(t.graph)
    table = first_return_series(f, 2 * (k_max - 1) + 1)
    d = t.graph.root_degree
    return [d * table.z[2 * k] for k in range(k_max)]


def ahu_canonical(t: TreeHandle):
    """Rooted-tree canonical form (sorted-subtree encoding); equal
    encodings iff the rooted trees are isomorphic."""
    children = _children_lists(t)

    def enc(v: int):
        return tuple(sorted(enc(c) for c in children[v]))

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 2 * t.n + 100))
    try:
        return enc(t.root)
    finally:
        sys.setrecursionlimit(old)


def _divisor_pairs(k: int):
    """(1,k), the smallest proper pair, and (k,1)."""
    small = next((a for a in range(2, k) if k % a == 0), None)
    if small is None:
        raise NoThreeDivisorPairs(f"{k} is prime; need a composite k >= 4")
    return [(1, k), (small, k // small), (k, 1)]


def forge_tree_pair(k: int) -> tuple[TreeHandle, TreeHandle]:
    """Two non-isomorphic rooted trees with identical h (hence identical
    return-time distributions), built from the dependency among the three
    height-3 trees with root-neighbor-degree * leaf-degree = k."""
    if k < 4:
        raise NoThreeDivisorPairs(f"need composite k >= 4, got {k}")
    pairs = _divisor_pairs(k)
    trees = [build_gab(a, b) for a, b in pairs]
    dep = find_dependency([h_of_tree(t) for t in trees])
    if dep is None or sum(1 for c in dep if c) < 3:
        raise NoThreeDivisorPairs(
            f"no three-term dependency among the divisor-pair trees of {k}"
        )
    left = [(t, c) for t, c in zip(trees, dep) if c > 0]
    right = [(t, -c) for t, c in zip(trees, dep) if c < 0]
    t1 = attach_new_root(glue_at_roots(left))
    t2 = attach_new_root(glue_at_roots(right))
    if h_of_tree(t1) != h_of_tree(t2):
        raise AssertionError("forged trees disagree on h; construction bug")
    if ahu_canonical(t1) == ahu_canonical(t2):
        raise AssertionError("forged trees are isomorphic; construction bug")
    return t1, t2


def h_numerator_roots(h: RatFun) -> list[float]:
    """Real roots of the numerator of h (imaginary part within
    1e-9 (1 + |x|)).  Each root x corresponds to the nondegenerate
    eigenvalue pair +-1/sqrt(x)."""
    num = h.num
    if num.degree < 1:
        return []
    roots = np.roots(list(reversed(num.c)))
    if np.any(~np.isfinite(roots)):
        raise RootFindingFailure("non-finite numerator root")
    return sorted(
        float(r.real) for r in roots if abs(r.imag) <= 1e-9 * (1 + abs(r))
    )


def eigenvalues_from_h(h: RatFun) -> list[float]:
    """The nonzero nondegenerate eigenvalues implied by h, excluding the
    trivial pair +-1: {+-1/sqrt(x) : x numerator root}."""
    eigs = []
    for x in h_numerator_roots(h):
        if x <= 0:
            raise RootFindingFailure(f"nonpositive numerator root {x}")
        lam = 1.0 / x**0.5
        eigs.extend([lam, -lam])
    return sorted(eigs, reverse=True)
