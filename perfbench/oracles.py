"""Exact references the benchmark checks outputs against.

Every routine here is written independently of the package: walk series
come from integer-scaled transition iteration, spectra and hitting times
from numpy, bipartiteness and tree isomorphism from plain graph
traversals.  A graph is handled through its `n`, `root` and `adjacency`
attributes only.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np


def degrees(g) -> list[int]:
    return [len(a) for a in g.adjacency]


def edge_count(g) -> int:
    return sum(degrees(g)) // 2


def scaled_return_series(g, k_max: int, lazy: bool) -> tuple[list[int], int]:
    """(a, base) with P_k(r,r) = a[k] / base**k for k = 0..k_max.

    The walk's distribution is carried as integers scaled by base**k,
    base = lcm of the degrees (twice that for the lazy walk), so no
    fractions are formed."""
    degs = degrees(g)
    lcm = math.lcm(*degs)
    share = [lcm // d for d in degs]
    v = [0] * g.n
    v[g.root] = 1
    out = [1]
    for _ in range(k_max):
        w = [lcm * x for x in v] if lazy else [0] * g.n
        for i, x in enumerate(v):
            if x:
                s = x * share[i]
                for j in g.adjacency[i]:
                    w[j] += s
        v = w
        out.append(v[g.root])
    return out, (2 * lcm if lazy else lcm)


def return_series(g, k_max: int, lazy: bool) -> list[Fraction]:
    a, base = scaled_return_series(g, k_max, lazy)
    return [Fraction(x, base ** k) for k, x in enumerate(a)]


def series_matches_ratio(num: list[int], den: list[int], a: list[int],
                         base: int) -> bool:
    """True iff num/den = sum_k (a[k] / base**k) t^k up to t^(len(a)-1),
    checked as the integer identity den * series == num, term by term."""
    for k in range(len(a)):
        acc = 0
        for j in range(min(k, len(den) - 1) + 1):
            acc += den[j] * a[k - j] * base ** j
        if acc != (num[k] if k < len(num) else 0) * base ** k:
            return False
    return True


def spectrum(g) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the walk (descending) and their root weights, from
    the symmetrised transition matrix."""
    degs = np.array(degrees(g), dtype=float)
    mat = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in g.adjacency[u]:
            mat[u, v] = 1.0 / math.sqrt(degs[u] * degs[v])
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(-vals)
    return vals[order], vecs[g.root, order] ** 2


def _visible(g) -> list[float]:
    """Eigenvalues other than 1 whose eigenspace has weight at the root."""
    vals, weights = spectrum(g)
    return [float(v) for v, w in zip(vals, weights) if w > 1e-9 and v < 1 - 1e-9]


def root_visible_lazy_gap(g) -> float:
    """Lazy gap as an observer at the root can see it: 1 - (1 + l2) / 2
    with l2 the largest root-visible eigenvalue below 1."""
    return 1.0 - (1.0 + max(_visible(g))) / 2.0


def root_visible_mixing_gap(g) -> float:
    """1 - max |l| over the root-visible eigenvalues other than 1."""
    return 1.0 - max(abs(v) for v in _visible(g))


def hitting_from_stationary(g) -> float:
    """Expected time to hit the root from the stationary distribution."""
    degs = degrees(g)
    others = [v for v in range(g.n) if v != g.root]
    pos = {v: i for i, v in enumerate(others)}
    a = np.eye(len(others))
    for v in others:
        for u in g.adjacency[v]:
            if u in pos:
                a[pos[v], pos[u]] -= 1.0 / degs[v]
    h = np.linalg.solve(a, np.ones(len(others)))
    total = float(sum(degs))
    return float(sum(degs[v] / total * h[pos[v]] for v in others))


def is_bipartite(g) -> bool:
    color = [-1] * g.n
    color[g.root] = 0
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return False
    return True


def is_regular(g) -> bool:
    return len(set(degrees(g))) == 1


def tree_code(g) -> str:
    """Canonical string of a rooted tree (sorted child codes, built
    leaves-up); equal strings iff the rooted trees are isomorphic."""
    parent = [-1] * g.n
    order = [g.root]
    seen = {g.root}
    for u in order:
        for v in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
    codes: list[list[str]] = [[] for _ in range(g.n)]
    code = [""] * g.n
    for u in reversed(order):
        code[u] = "(" + "".join(sorted(codes[u])) + ")"
        if parent[u] >= 0:
            codes[parent[u]].append(code[u])
    return code[g.root]


class TextGraph:
    """A graph read from the package's text format: "n root", then one
    "u v" edge per line."""

    def __init__(self, text: str):
        lines = text.split("\n")
        self.n, self.root = (int(x) for x in lines[0].split())
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for line in lines[1:]:
            if line.strip():
                u, v = (int(x) for x in line.split())
                adj[u].append(v)
                adj[v].append(u)
        self.adjacency = tuple(tuple(a) for a in adj)


def hoeffding_count(eps: float, delta: float) -> int:
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))
