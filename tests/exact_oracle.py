"""Reference routes for the exact engine and the tree functions.

Each is the straightforward version of a route `src/` computes faster:
the full-length integer walk behind `exact._scaled_returns`, Gaussian
elimination in Fractions behind `exact._hitting_times`, and the
recursive decompositions behind `treefun.h_of_tree` and
`treefun.ahu_canonical`.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from batecho.ratfun import IntPoly, RatFun


def full_walk_returns(g, k_max: int, lazy: bool) -> tuple[list[int], int]:
    """a_k = S^k P_k(r,r) for k = 0..k_max by walking all k_max ticks in
    integers, and the scale S (the lcm L of the degrees, 2L if lazy)."""
    degs = [g.degree(i) for i in range(g.n)]
    lcm = math.lcm(*degs)
    shares = [lcm // d for d in degs]
    w = [0] * g.n
    w[g.root] = 1
    a = [1]
    for _ in range(k_max):
        nxt = [x * lcm for x in w] if lazy else [0] * g.n
        for i, x in enumerate(w):
            for j in g.adjacency[i]:
                nxt[j] += x * shares[i]
        w = nxt
        a.append(w[g.root])
    return a, 2 * lcm if lazy else lcm


def solve_fraction_system(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination in Fractions with back substitution."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        row = m[col]
        for other in m[col + 1:]:
            if other[col]:
                f = other[col] / row[col]
                for j in range(col, n + 1):
                    other[j] -= f * row[j]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        row = m[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x


def hitting_times(g) -> list[Fraction]:
    """H(v, r) for every v from the full system H(r) = 0,
    H(v) = 1 + sum_u M[v][u] H(u), solved in Fractions."""
    n = g.n
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        if i != g.root:
            for j in g.adjacency[i]:
                a[i][j] -= Fraction(1, g.degree(i))
            b[i] = Fraction(1)
    return solve_fraction_system(a, b)


def _children(t) -> list[list[int]]:
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


_ONE = RatFun(IntPoly.one)
_ONE_MINUS_X = RatFun(IntPoly([1, -1]))


def recursive_h(t) -> RatFun:
    """h by recursive decomposition at the root, one branch per child
    vertex: each branch is the new-leaf-root extension of the child's
    subtree, and branches glue additively."""
    children = _children(t)

    def subtree(u: int) -> RatFun:
        acc = RatFun(IntPoly.zero)
        for v in children[u]:
            if children[v]:
                h = subtree(v)
                acc = acc + (_ONE + h) / (_ONE + _ONE_MINUS_X * h)
            else:
                acc = acc + _ONE
        return acc

    return subtree(t.root)


def recursive_ahu(t):
    """The sorted-subtree encoding by recursion."""
    children = _children(t)

    def enc(v: int):
        return tuple(sorted(enc(c) for c in children[v]))

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 2 * t.n + 100))
    try:
        return enc(t.root)
    finally:
        sys.setrecursionlimit(old)
