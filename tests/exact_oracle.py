"""Reference routes for the exact engine, the tree functions and the
gap search.

Each is the straightforward version of a route `src/` computes faster or
in closed form: the full-length integer walks, plain, lazy and with the
root absorbing, behind the series `exact` expands from the generating
function (and the plain series `transition_series` built on them), the
full 2n-tick walk and Berlekamp-Massey behind the walk `exact` stops at
closure, the Fraction power-series expansion behind
`exact._scaled_series`, Gaussian elimination in Fractions for the
hitting times behind `exact.hitting_from_stationary`'s moment identity,
Kac's formula for the mean return time it reads off the generating
function, the per-class and per-vertex recursions behind
`treefun.h_of_tree` (which reads h off the generating function), the
recursive decomposition behind `treefun.ahu_canonical`, the general
linear-dependency search behind the forge's closed-form dependency,
and `estimate_gap_exact`, the noiseless twin of `gap.estimate_gap`,
with `evaluations_accurate`, the check of its evaluations against the
exact series.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import groupby
from math import gcd

from batecho.errors import SearchExhausted
from batecho.exact import MAX_EXACT_K, GenFun, lazy_series, return_gen_fun
from batecho.gap import GapEstimate, _bracket, per_eval_eta, search_budget
from batecho.ratfun import IntPoly, RatFun
from batecho.treefun import _subtree_classes

from field_oracle import Rat, coprime


def fractions(pairs) -> list[Fraction]:
    """The (num, den) pairs of a `SeriesTable` field, or of
    `treefun.h_from_series`, as Fractions; each pair must already be in
    lowest terms with den > 0, the form the payloads print."""
    out = [Fraction(num, den) for num, den in pairs]
    bad = [pair for pair, x in zip(pairs, out) if pair != (x.numerator, x.denominator)]
    assert not bad, f"pairs not in lowest terms: {bad[:3]}"
    return out


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


def full_walk_first_returns(g, k_max: int) -> list[Fraction]:
    """First-return probabilities s_k for k = 0..k_max by walking all
    k_max ticks in integers scaled by L^k, with the mass that reaches
    the root taken off the walk."""
    degs = [g.degree(i) for i in range(g.n)]
    lcm = math.lcm(*degs)
    w = [0] * g.n
    w[g.root] = 1
    s = [Fraction(0)]
    for k in range(1, k_max + 1):
        nxt = [0] * g.n
        for i, x in enumerate(w):
            for j in g.adjacency[i]:
                nxt[j] += x * (lcm // degs[i])
        s.append(Fraction(nxt[g.root], lcm ** k))
        nxt[g.root] = 0
        w = nxt
    return s


def connection_polynomial(a: list[int]) -> tuple[list[int], int]:
    """Berlekamp-Massey over Q, kept in integers, over all of `a`: the
    shortest linear recurrence as an integer connection polynomial C with
    C[0] != 0 and its length l, so that sum_i C[i] a[k-i] = 0 for
    l <= k < len(a)."""
    c, b = [1], [1]
    length, shift, b_disc = 0, 1, 1
    for k in range(len(a)):
        d = sum(x * y for x, y in zip(c, a[k::-1]))
        if d == 0:
            shift += 1
            continue
        nxt = [b_disc * x for x in c] + [0] * max(0, shift + len(b) - len(c))
        for i, y in enumerate(b):
            nxt[i + shift] -= d * y
        content = gcd(*nxt)
        nxt = [x // content for x in nxt]
        if 2 * length <= k:
            length, b, b_disc, shift = k + 1 - length, c, d, 1
        else:
            shift += 1
        c = nxt
    return c, length


def full_walk_gen_fun(g) -> GenFun:
    """f from the full 2n-tick walk: f's recurrence has length <= n, so
    its first 2n+1 terms fix it; any common factor of the pair is
    divided out by a gcd over Q."""
    a, scale = full_walk_returns(g, 2 * g.n, False)
    c, length = connection_polynomial(a)
    num = IntPoly([sum(x * y for x, y in zip(c, a[k::-1])) for k in range(length)])
    den = IntPoly(c)
    top = max(num.degree, den.degree)
    num, den = (IntPoly([x * scale ** (top - k) for k, x in enumerate(p.c)])
                for p in (num, den))
    return GenFun(*coprime(num, den))


def power_series(r: RatFun, k_max: int) -> list[Fraction]:
    """Power-series coefficients of r around 0 up to degree k_max, by the
    recurrence den * series = num in Fractions."""
    a, b = r.num.c, r.den.c
    out = []
    for k in range(k_max + 1):
        acc = Fraction(a[k] if k < len(a) else 0)
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b[0])
    return out


def transition_series(g, k_max: int) -> list[Fraction]:
    """Exact plain-walk P_k(r,r) for k = 0..k_max from the full walk."""
    a, scale = full_walk_returns(g, k_max, False)
    return [Fraction(x, scale ** k) for k, x in enumerate(a)]


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


def stationary_hitting_time(g) -> Fraction:
    """H(pi, r): the hitting times averaged under pi(v) = d(v) / 2|E|."""
    h = hitting_times(g)
    total_deg = 2 * g.edge_count
    return sum(Fraction(g.degree(v), total_deg) * h[v] for v in range(g.n))


def mean_return_time(g) -> Fraction:
    """Kac's formula E(T1) = 1 / pi(r) = 2|E| / d(r)."""
    return Fraction(2 * g.edge_count, g.root_degree)


def _children(g) -> list[list[int]]:
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


_ONE = Rat(IntPoly.one, IntPoly.one)
_ONE_MINUS_X = Rat(IntPoly([1, -1]), IntPoly.one)


def recursive_h(t) -> Rat:
    """h by recursive decomposition at the root, one branch per child
    vertex: each branch is the new-leaf-root extension of the child's
    subtree, and branches glue additively."""
    children = _children(t)

    def subtree(u: int) -> Rat:
        acc = Rat(IntPoly.zero, IntPoly.one)
        for v in children[u]:
            if children[v]:
                h = subtree(v)
                acc = acc + (_ONE + h) / (_ONE + _ONE_MINUS_X * h)
            else:
                acc = acc + _ONE
        return acc

    return subtree(t.root)


def class_h(t) -> Rat:
    """h once per subtree class (AHU): a class's h glues, additively, one
    branch per child, a child class counted with its multiplicity, and a
    child's branch is the new-leaf-root extension of the child's subtree
    (1 for a leaf)."""
    classes = _subtree_classes(t)
    branch: list[Rat] = []

    def glued(key: tuple[int, ...]) -> Rat:
        acc = Rat(IntPoly.zero, IntPoly.one)
        for child, group in groupby(key):
            acc = acc + branch[child] * len(list(group))
        return acc

    for key in classes[:-1]:
        h = glued(key)
        branch.append((_ONE + h) / (_ONE + _ONE_MINUS_X * h) if key else _ONE)
    return glued(classes[-1])


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


def find_dependency(funs: list[RatFun]):
    """Nonzero integer coefficients c with sum(c_i * funs_i) == 0, or None
    if the functions are linearly independent, by Gauss-Jordan
    elimination in Fractions.  The vector is content-reduced with its
    first nonzero entry positive."""
    if len(funs) < 2:
        raise ValueError("need at least two functions")
    # clear denominators: g_i = num_i * prod_{j != i} den_j
    cleared = []
    for i, f in enumerate(funs):
        g = f.num
        for j, other in enumerate(funs):
            if j != i:
                g = g * other.den
        cleared.append(g)
    deg = max((g.degree for g in cleared), default=-1)
    rows = deg + 1
    cols = len(cleared)
    # solve A c = 0 where A[r][i] = coeff_r(g_i)
    a = [[Fraction(cleared[i].c[r]) if r <= cleared[i].degree else Fraction(0)
          for i in range(cols)] for r in range(rows)]
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][col]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    vec = [Fraction(0)] * cols
    vec[fc] = Fraction(1)
    for ri, col in enumerate(pivots):
        vec[col] = -a[ri][fc]
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def estimate_gap_exact(g, c: float = 2.0) -> GapEstimate:
    """Noiseless twin of `gap.estimate_gap`: scans the exact lazy return
    series for the first k with q_k <= 1/n^c, the k the statistical
    estimator converges to.  The scan stops at K0 or at the exact
    engine's MAX_EXACT_K, whichever comes first; the series is computed
    once, up to that horizon."""
    n = g.n
    threshold = 1.0 / n ** c
    k0, _ = search_budget(n, c)
    horizon = min(k0, MAX_EXACT_K)
    q = fractions(lazy_series(g, return_gen_fun(g), horizon).q)
    hit = next((k for k in range(1, horizon + 1) if q[k] <= threshold), None)
    if hit is None:
        raise SearchExhausted(
            f"exact q_k above 1/n^c up to k={horizon} (K0={k0})", n)
    q_star = float(q[hit])
    flags = ["exact"]
    tau_hat, tau_lower, tau_upper = _bracket(q_star, hit, n, flags)
    return GapEstimate(k_star=hit, q_k=q_star, q_k_minus_1=float(q[hit - 1]),
                       tau_hat=tau_hat, tau_lower=tau_lower,
                       tau_upper=tau_upper, n_used=n, c=c, eps=0.0,
                       delta=0.0, pk_rule="exact", total_experiments=0,
                       total_ticks=0, trace=[], flags=flags)


def evaluations_accurate(est: GapEstimate, exact_q) -> tuple[bool, float]:
    """Every evaluation the estimate recorded lies within 4x its accuracy
    target of the exact q_k (a ~4-sigma allowance): the verdict and the
    worst error over the target."""
    eta = per_eval_eta(est.n_used, est.c, est.eps)
    worst = 0.0
    for entry in est.trace:
        err = abs(entry["q_hat"] - float(exact_q(entry["k"])))
        worst = max(worst, err / eta if eta else math.inf)
    return worst <= 4.0, worst
