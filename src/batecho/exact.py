"""Ground-truth engine: exact lazy return-probability series, spectra
with root weights, generating functions, first-return and survival
series, and the stationary hitting time with the first two moments of
the return time.

One walk gives everything: the return generating function f.  The walk
runs in integers, L^k times the distribution after k steps with L the
lcm of the degrees, and feeds each root term to Berlekamp-Massey; it
stops when the recurrence found annihilates the walk's vectors, that is
when the root's Krylov space closes, after twice as many ticks as the
root sees distinct eigenvalues and at most 2n.  The tests check f
against the full 2n-tick walk and the determinant formula
d(r) det(Delta' - tA') / det(Delta - tA).  Each series is then one
expansion of a ratio of integer polynomials by one integer recurrence
(`_scaled_series`): the lazy return series of 2/(2-t) f(t/(2-t)), and
the first-return and survival series of 1/f; the tests check both
against the full walks.  Each term a_k / S^k, S = L (2L on the lazy
chain), comes out in lowest terms without a big-integer gcd
(`_lowest_terms`): only the primes of S can divide both a_k and S^k,
and they come from factoring the degrees, so each is divided out by its
own valuation, and q_k = p_k - 1/n needs only gcd(den, n), a divisor of
n.  The tables hold (num, den) int pairs; the tests compare them with
Fraction.  The root statistics are read off f too: the first two
moments of the first-return time are exact derivatives at t=1, integer
sums of f's coefficients, and the stationary hitting time follows from
them; the tests check it against the hitting times of the linear system.

Everything statistical elsewhere in the library is validated against the
exact rationals produced here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import BatechoError, DomainError
from .graphs import RootedGraph
from .ratfun import IntPoly, RatFun

# Exact-arithmetic guard rails; override explicitly for bigger jobs.
MAX_EXACT_N = 64
MAX_EXACT_K = 1000


@dataclass
class SeriesTable:
    """Exact rational sequences indexed by step count, each term a
    (num, den) pair of ints in lowest terms with den > 0.

    p[k]  return probability at step k (lazy chain if `lazy`)
    s[k]  probability the first return happens at step k
    z[k]  probability of no return in the first k steps
    q[k]  p[k] - 1/n, lazy chains only
    """

    n: int
    k_max: int
    p: list[tuple[int, int]] | None = None
    s: list[tuple[int, int]] | None = None
    z: list[tuple[int, int]] | None = None
    q: list[tuple[int, int]] | None = None
    lazy: bool = False

    def to_json(self) -> dict:
        doc = {"n": self.n, "k_max": self.k_max, "lazy": self.lazy}
        for name in ("p", "s", "z", "q"):
            seq = getattr(self, name)
            if seq is not None:
                doc[name] = [{"num": str(num), "den": str(den)} for num, den in seq]
        return doc


@dataclass
class Spectrum:
    """Eigenvalues of the walk's transition matrix, sorted descending,
    with squared root entries of the orthonormal eigenbasis."""

    eigenvalues: np.ndarray
    root_weights: np.ndarray

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "root_weights": [float(x) for x in self.root_weights],
            "nondegenerate": [
                {"value": v, "weight": w, "flag": f}
                for v, w, f in nondegenerate_set(self)
            ],
        }


class GenFun(RatFun):
    """Return-probability generating function sum_k P_k(r,r) t^k as an
    exact rational function; equals 1 at t=0."""

    def __init__(self, num, den):
        super().__init__(num, den)
        if self.num.c[:1] != self.den.c[:1]:      # f(0) = N(0) / D(0)
            raise DomainError("generating function must equal 1 at t=0")


def check_exact_size(n: int) -> None:
    """Refuse n vertices above MAX_EXACT_N before any exact work."""
    if n > MAX_EXACT_N:
        raise DomainError(f"exact mode capped at n <= {MAX_EXACT_N}, got {n}")


def _scaled_series(num: IntPoly, den: IntPoly, scale: int, k_max: int) -> list[int]:
    """The terms a_k = scale^k c_k, k = 0..k_max, of the power series
    sum c_k t^k of num/den, for a ratio whose a_k are integers.  Under
    t = scale u the a_k are the series of num(scale u) / den(scale u),
    and the series times den(scale u) is num(scale u), so each
    a_k = (num_k scale^k - sum_{j>=1} den_j scale^j a_{k-j}) / den_0 is
    an exact integer division."""
    lead, *tail = (x * scale ** j for j, x in enumerate(den.c))
    a, power = [], 1
    for k in range(k_max + 1):
        acc = num.c[k] * power if k < len(num.c) else 0
        q, rem = divmod(acc - sum(x * y for x, y in zip(tail, reversed(a))), lead)
        if rem:
            raise ArithmeticError(f"series leaves a remainder at k={k}")
        a.append(q)
        power *= scale
    return a


def _scale_primes(degrees) -> list[tuple[int, int]]:
    """The primes p of L = lcm(degrees), each with its exponent v_p(L),
    from factoring each distinct degree by trial division: a degree is
    below n, while L, the scale of the series, can be much larger."""
    exps: dict[int, int] = {}
    for d in set(degrees):
        p = 2
        while d > 1:
            if p * p > d:
                p = d           # what is left is prime
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e > exps.get(p, 0):
                exps[p] = e
            p += 1
    return sorted(exps.items())


# How often `_lowest_terms` divides a term by an odd prime of the scale
# before one gcd finishes the term instead.
_ODD_DIVISIONS = 4


def _lowest_terms(terms: list[int], primes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each a_k / S^k in lowest terms as (num, den) with den > 0, S the
    product of p^e over `primes`.  Only a prime of S can divide both a_k
    and S^k, so dividing out min(v_p(a_k), k e) factors of each p leaves
    the pair coprime, with no big-integer gcd: for p = 2, v_2 is the
    position of a_k's lowest set bit; an odd p is divided out while it
    divides, at most k e times.  Each division costs one pass over a_k,
    so where an odd p still divides after _ODD_DIVISIONS of them, one
    gcd of what is left finishes the term, at the cost `Fraction` pays
    on every term."""
    scale = math.prod(p ** e for p, e in primes)
    out, power = [], 1
    for k, a in enumerate(terms):
        den = power
        power *= scale
        if not a:
            out.append((0, 1))
            continue
        for p, e in primes:
            if p == 2:
                v = min((a & -a).bit_length() - 1, k * e)
                a >>= v
                den >>= v
                continue
            cap = k * e
            tries = min(cap, _ODD_DIVISIONS)
            while tries and not a % p:
                a //= p
                den //= p
                tries -= 1
            if cap > _ODD_DIVISIONS and not tries and not a % p:
                common = math.gcd(a, den)
                a //= common
                den //= common
                break
        out.append((a, den))
    return out


def lazy_series(g: RootedGraph, f: GenFun, k_max: int) -> SeriesTable:
    """Lazy-chain return probabilities P'_k, plus q_k = P'_k - 1/n, from
    the plain generating function f = N/D.  The lazy chain (I+M)/2 has
    generating function 2/(2-t) f(t/(2-t)), which is 2 N~ / ((2-t) D~)
    with p~(t) = (2-t)^m p(t/(2-t)) and m the larger degree of N and D.
    S^k P'_k is an integer, S = 2L and L the lcm of the degrees, so
    _scaled_series expands it and `_lowest_terms` reduces each term by
    the primes of S.  q_k then needs only g = gcd(den, n), a divisor of
    n: P'_k - 1/n = (num (n/g) - den/g) / ((den/g) n), and a common
    factor of that numerator and denominator can only divide g."""
    check_exact_size(g.n)
    if k_max < 0:
        raise DomainError(f"k_max must be non-negative, got {k_max}")
    if k_max > MAX_EXACT_K:
        raise DomainError(f"exact mode capped at k_max <= {MAX_EXACT_K}, got {k_max}")
    m = max(f.num.degree, f.den.degree)
    two_minus_t = IntPoly([2, -1])

    def homogenised(p: IntPoly) -> IntPoly:
        # sum_k p_k t^k (2-t)^(m-k), one factor (2-t) per step
        acc = IntPoly.zero
        for k, x in enumerate(p.c + (0,) * (m + 1 - len(p.c))):
            acc = acc * two_minus_t + IntPoly([0] * k + [x])
        return acc

    doubled = [2 * len(a) for a in g.adjacency]     # lcm(doubled) = 2L
    p = _lowest_terms(
        _scaled_series(2 * homogenised(f.num), homogenised(f.den) * two_minus_t,
                       math.lcm(*doubled), k_max),
        _scale_primes(doubled))
    n, q = g.n, []
    for num, den in p:
        common = math.gcd(den, n)
        den //= common
        top = num * (n // common) - den
        cut = math.gcd(top, common)
        q.append((top // cut, den * (n // cut)))
    return SeriesTable(n=n, k_max=k_max, p=p, q=q, lazy=True)


# ---------------------------------------------------------------------------
# spectrum


def spectrum(g: RootedGraph) -> Spectrum:
    """Eigen-decomposition of the symmetrized transition matrix
    N = D M D^{-1}, with root weights from the orthonormal eigenbasis."""
    n = g.n
    degs = np.array([g.degree(i) for i in range(n)], dtype=float)
    mat = np.zeros((n, n))
    for u in range(n):
        for v in g.adjacency[u]:
            mat[u, v] = 1.0 / math.sqrt(degs[u] * degs[v])
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise BatechoError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-vals)
    vals = vals[order]
    weights = vecs[g.root, order] ** 2
    return Spectrum(eigenvalues=vals, root_weights=weights)


def nondegenerate_set(spec: Spectrum) -> list[tuple[float, float, bool]]:
    """Cluster eigenvalues within 1e-8 and flag a cluster nondegenerate
    when its summed root weight exceeds 1e-7."""
    out = []
    vals, weights = spec.eigenvalues, spec.root_weights
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[i] - vals[j + 1] <= 1e-8:
            j += 1
        w = float(np.sum(weights[i:j + 1]))
        rep = float(np.mean(vals[i:j + 1]))
        out.append((rep, w, w > 1e-7))
        i = j + 1
    return out


# ---------------------------------------------------------------------------
# generating function


def _closed_walk(g: RootedGraph) -> tuple[list[int], list[int], int, int]:
    """The walk and Berlekamp-Massey in one loop, stopped when the root's
    Krylov space closes: the root terms a_0..a_k, a_k = L^k P_k(r,r), the
    shortest linear recurrence of those terms as an integer connection
    polynomial C with C[0] != 0 and its length l, and the scale L, the
    lcm of the degrees.

    L^k times the distribution after k steps stays a vector of integers
    w_k: one step sends w[i] * L / d(i) to each neighbour of i.  Each
    tick feeds the new root term to Berlekamp-Massey over Q, kept in
    integers (C is known up to a scalar, so each update divides out its
    content), and C holds for l <= j <= k.  The walk stops once C
    annihilates the vectors themselves, sum_i C[i] w_{k-i} = 0 at some
    k >= 2l: w_{j+1} = L M^T w_j, so the identity then holds at every
    later tick, C generates every root term and f is exact.  The
    identity holds after 2m ticks, m the dimension of the root's Krylov
    space: the number of distinct eigenvalues the root sees, and the
    length of f's recurrence.  (The a_k are moments of the root's
    spectral measure, which is positive, so no recurrence shorter than m
    fits 2l+1 of them and the identity holds the first time it is tried;
    the certificate checks this instead of assuming it.)  Without it the
    loop ends after 2n ticks, as 2n+1 terms fix a recurrence of length
    <= n (two that agree on 2n terms agree everywhere)."""
    degs = [g.degree(i) for i in range(g.n)]
    lcm = math.lcm(*degs)
    shares = [lcm // d for d in degs]
    w = [0] * g.n
    w[g.root] = 1
    walk, a = [w], [1]
    c, b = [1], [1]
    length, shift, b_disc = 0, 1, 1
    for k in range(2 * g.n + 1):
        if k:
            w = [0] * g.n
            for i, x in enumerate(walk[-1]):
                if x:
                    share = x * shares[i]
                    for j in g.adjacency[i]:
                        w[j] += share
            walk.append(w)
            a.append(w[g.root])
        d = sum(x * y for x, y in zip(c, a[k::-1]))
        if d == 0:
            shift += 1
            if k >= 2 * length and not any(
                    sum(x * v[j] for x, v in zip(c, walk[k::-1])) for j in range(g.n)):
                break
            continue
        nxt = [b_disc * x for x in c] + [0] * max(0, shift + len(b) - len(c))
        for i, y in enumerate(b):
            nxt[i + shift] -= d * y
        content = math.gcd(*nxt)
        nxt = [x // content for x in nxt]
        if 2 * length <= k:
            length, b, b_disc, shift = k + 1 - length, c, d, 1
        else:
            shift += 1
        c = nxt
    return a, c, length, lcm


def walk_gen_fun(g: RootedGraph) -> GenFun:
    """f(t) = sum_k P_k(r,r) t^k as an exact rational function, from the
    walk `_closed_walk` stops when the root's Krylov space closes, with
    no cap on n: the tree routes call it, and their walks stop at closure
    whatever the tree's size.

    The numerator is the product of the series and the connection
    polynomial truncated below the recurrence length, and the
    substitution t = L u undoes the scaling."""
    a, c, length, scale = _closed_walk(g)
    num = IntPoly([sum(x * y for x, y in zip(c, a[k::-1])) for k in range(length)])
    den = IntPoly(c)
    top = max(num.degree, den.degree)
    num, den = (IntPoly([x * scale ** (top - k) for k, x in enumerate(p.c)])
                for p in (num, den))
    return GenFun(num, den)


def return_gen_fun(g: RootedGraph) -> GenFun:
    """f(t) = sum_k P_k(r,r) t^k as an exact rational function, for
    n <= MAX_EXACT_N.

    By the determinant formula f = d(r) det(Delta' - tA') / det(Delta - tA)
    (Delta the degree diagonal, primes deleting the root's row and
    column), f has denominator degree <= n and numerator degree <= n-1,
    so its series obeys a linear recurrence of length m <= n, m the
    number of distinct eigenvalues the root sees.  `walk_gen_fun` walks
    until that recurrence also annihilates the walk's vectors, which it
    does after 2m ticks, and reads f off it."""
    check_exact_size(g.n)
    return walk_gen_fun(g)


def first_return_series(g: RootedGraph, f: GenFun, k_max: int) -> SeriesTable:
    """First-return probabilities s_k from the power-series inversion
    1/f = 1 - sum_{k>=1} s_k t^k, and survival z_k = 1 - sum_{j<=k} s_j,
    the partial sums of 1/f.  The terms a_k = L^k c_k of 1/f are
    integers, L the lcm of the degrees, so _scaled_series expands 1/f;
    L^k z_k is the integer partial sum Z_k = L Z_{k-1} + a_k, and
    `_lowest_terms` reduces both series by the primes of L."""
    if k_max < 0:
        raise DomainError(f"k_max must be non-negative, got {k_max}")
    degrees = list(map(len, g.adjacency))
    scale = math.lcm(*degrees)
    inv = _scaled_series(f.den, f.num, scale, k_max)
    primes = _scale_primes(degrees)
    sums = list(accumulate(inv, lambda acc, a: acc * scale + a))
    return SeriesTable(n=g.n, k_max=k_max,
                       s=_lowest_terms([0] + [-a for a in inv[1:]], primes),
                       z=_lowest_terms(sums, primes))


def poles_to_eigenvalues(fgen: RatFun):
    """Reciprocals of the real denominator roots (the nonzero
    nondegenerate eigenvalues), plus a flag telling whether zero is a
    nondegenerate eigenvalue (degree comparison).  A root counts as real
    when its imaginary part is within 1e-9 (1 + |root|)."""
    den = fgen.den
    if den.degree < 1:
        return [], fgen.num.degree == den.degree
    coeffs = list(reversed(den.c))
    try:
        roots = np.roots(coeffs)
    except Exception as exc:  # pragma: no cover
        raise BatechoError(str(exc)) from exc
    if np.any(~np.isfinite(roots)):
        raise BatechoError("non-finite root from the polynomial solver")
    eigs = []
    for root in roots:
        if abs(root.imag) <= 1e-9 * (1 + abs(root)):
            if root.real == 0:
                raise BatechoError("denominator root at 0")
            eigs.append(1.0 / root.real)
    eigs.sort(reverse=True)
    zero_flag = fgen.num.degree == den.degree
    return eigs, zero_flag


# ---------------------------------------------------------------------------
# moments


@dataclass
class HittingResult:
    value: Fraction
    mean_t1: Fraction
    mean_t1_sq: Fraction


def hitting_from_stationary(f: RatFun) -> HittingResult:
    """Expected steps to hit the root from the stationary distribution, by
    the moment identity H(pi, r) = E(T1^2) / (2 E(T1)) - 1/2, with the
    first two moments of the first-return time T1 taken from exact
    derivatives of the return generating function `f` at t=1.  E(T1) is
    the mean return time, 2|E| / d(r) by Kac's formula."""
    # moments of T1 from g(t) = 1 - 1/f(t) = sum s_k t^k.  With
    # 1/f = D/N, the quotient rule at t=1 gives (1/f)' and (1/f)''.

    def at_one(poly: IntPoly) -> tuple[int, int, int]:
        # p(1), p'(1) and p''(1) as integer sums of the coefficients
        return (sum(poly.c), sum(i * x for i, x in enumerate(poly.c)),
                sum(i * (i - 1) * x for i, x in enumerate(poly.c)))

    n0, n1, n2 = at_one(f.num)
    d0, d1, d2 = at_one(f.den)
    inv_d1 = Fraction(d1 * n0 - d0 * n1, n0 ** 2)
    inv_d2 = Fraction(d2 * n0 - d0 * n2, n0 ** 2) - 2 * n1 * inv_d1 / n0
    mean_t1 = -inv_d1
    mean_t1_sq = -inv_d2 + mean_t1
    return HittingResult(value=mean_t1_sq / (2 * mean_t1) - Fraction(1, 2),
                         mean_t1=mean_t1, mean_t1_sq=mean_t1_sq)
