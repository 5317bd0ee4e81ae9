"""Ground-truth engine: exact lazy return-probability series, spectra
with root weights, generating functions, first-return and survival
series, and the stationary hitting time with the first two moments of
the return time.

The series come from one walk iteration in integers: S^k times the
distribution after k steps, with S the lcm of the degrees (twice that on
the lazy chain).  The walk runs 2n ticks; Berlekamp-Massey recovers the
linear recurrence of the first 2n+1 terms, which gives the generating
function and every later term.  The tests check the generating function
against the determinant formula d(r) det(Delta' - tA') / det(Delta - tA)
and the later terms against the full walk.  The root statistics are
read off the generating function alone: the first two moments of the
first-return time are exact derivatives at t=1, and the stationary
hitting time follows from them; the tests check it against the hitting
times of the linear system.

Everything statistical elsewhere in the library is validated against the
exact rationals produced here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, DomainError, RootFindingFailure
from .graphs import RootedGraph
from .ratfun import IntPoly, RatFun

# Exact-arithmetic guard rails; override explicitly for bigger jobs.
MAX_EXACT_N = 64
MAX_EXACT_K = 1000


def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


@dataclass
class SeriesTable:
    """Exact rational sequences indexed by step count.

    p[k]  return probability at step k (lazy chain if `lazy`)
    s[k]  probability the first return happens at step k
    z[k]  probability of no return in the first k steps
    q[k]  p[k] - 1/n, lazy chains only
    """

    n: int
    k_max: int
    p: list[Fraction] | None = None
    s: list[Fraction] | None = None
    z: list[Fraction] | None = None
    q: list[Fraction] | None = None
    lazy: bool = False

    def to_json(self) -> dict:
        doc = {"n": self.n, "k_max": self.k_max, "lazy": self.lazy}
        for name in ("p", "s", "z", "q"):
            seq = getattr(self, name)
            if seq is not None:
                doc[name] = [_frac_json(x) for x in seq]
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
        if self.eval(Fraction(0)) != 1:
            raise ValueError("generating function must equal 1 at t=0")


def _check_scale(g: RootedGraph, k_max: int):
    if g.n > MAX_EXACT_N:
        raise DomainError(f"exact mode capped at n <= {MAX_EXACT_N}, got {g.n}")
    if k_max < 0:
        raise DomainError(f"k_max must be non-negative, got {k_max}")
    if k_max > MAX_EXACT_K:
        raise DomainError(f"exact mode capped at k_max <= {MAX_EXACT_K}, got {k_max}")


def _scaled_returns(g: RootedGraph, k_max: int, lazy: bool) -> tuple[list[int], int]:
    """The integers a_k = S^k P_k(r,r) for k = 0..k_max, and the scale S.

    S is the lcm L of the degrees (2L for the lazy chain), so S^k times
    the distribution after k steps stays a vector of integers w: one step
    sends w[i] * L / d(i) to each neighbour of i, and on the lazy chain
    keeps w[i] * L at i.  The walk runs for at most 2n ticks.  Both
    chains' generating functions have numerator degree <= n-1 and
    denominator degree <= n (the lazy one is 2/(2-t) f(t/(2-t)) for the
    plain f), so those 2n+1 terms fix the recurrence that
    Berlekamp-Massey finds (see return_gen_fun), and the later terms
    follow from it: a_k = -sum_{i>=1} C[i] a_{k-i} / C[0], an exact
    integer division."""
    degs = [g.degree(i) for i in range(g.n)]
    lcm = math.lcm(*degs)
    scale = 2 * lcm if lazy else lcm
    shares = [lcm // d for d in degs]
    w = [0] * g.n
    w[g.root] = 1
    a = [1]
    for _ in range(min(k_max, 2 * g.n)):
        nxt = [x * lcm for x in w] if lazy else [0] * g.n
        for i, x in enumerate(w):
            if x:
                share = x * shares[i]
                for j in g.adjacency[i]:
                    nxt[j] += share
        w = nxt
        a.append(w[g.root])
    if k_max > 2 * g.n:
        c, _ = _connection_polynomial(a)
        lead, tail = c[0], c[1:]
        for k in range(len(a), k_max + 1):
            q, rem = divmod(-sum(x * y for x, y in zip(tail, reversed(a[k - len(tail):k]))),
                            lead)
            if rem:
                raise ArithmeticError(f"recurrence leaves a remainder at k={k}")
            a.append(q)
    return a, scale


def _unscale(a: list[int], scale: int) -> list[Fraction]:
    """a_k / S^k as Fractions."""
    out, power = [], 1
    for x in a:
        out.append(Fraction(x, power))
        power *= scale
    return out


def lazy_series(g: RootedGraph, k_max: int) -> SeriesTable:
    """Lazy-chain return probabilities P'_k by iterating (I+M)/2 on the
    root indicator, in integers scaled by (2L)^k, plus q_k = P'_k - 1/n."""
    _check_scale(g, k_max)
    p = _unscale(*_scaled_returns(g, k_max, True))
    one_over_n = Fraction(1, g.n)
    return SeriesTable(n=g.n, k_max=k_max, p=p, q=[x - one_over_n for x in p],
                       lazy=True)


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
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
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


def _connection_polynomial(a: list[int]) -> tuple[list[int], int]:
    """Berlekamp-Massey over Q, kept in integers: the shortest linear
    recurrence of `a`, as an integer connection polynomial C with
    C[0] != 0 and its length l, so that sum_i C[i] a[k-i] = 0 for
    l <= k < len(a).  C is known up to a scalar; each update divides out
    its content."""
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
        content = math.gcd(*nxt)
        nxt = [x // content for x in nxt]
        if 2 * length <= k:
            length, b, b_disc, shift = k + 1 - length, c, d, 1
        else:
            shift += 1
        c = nxt
    return c, length


def return_gen_fun(g: RootedGraph) -> GenFun:
    """f(t) = sum_k P_k(r,r) t^k as an exact rational function.

    By the determinant formula f = d(r) det(Delta' - tA') / det(Delta - tA)
    (Delta the degree diagonal, primes deleting the root's row and
    column), f has denominator degree <= n and numerator degree <= n-1,
    so its series obeys a linear recurrence of length <= n.  The first
    2n+1 terms therefore fix f (two recurrences of length <= n that agree
    on 2n terms agree everywhere): Berlekamp-Massey finds the recurrence
    from the integer-scaled terms a_k = S^k P_k, the numerator is the
    product of the series and the connection polynomial truncated below
    the recurrence length, and the substitution t = S u undoes the
    scaling."""
    _check_scale(g, 0)
    a, scale = _scaled_returns(g, 2 * g.n, False)
    c, length = _connection_polynomial(a)
    num = IntPoly([sum(x * y for x, y in zip(c, a[k::-1])) for k in range(length)])
    den = IntPoly(c)
    top = max(num.degree, den.degree)
    num, den = (IntPoly([x * scale ** (top - k) for k, x in enumerate(p.c)])
                for p in (num, den))
    return GenFun(num, den)


def first_return_series(fgen: RatFun, k_max: int) -> SeriesTable:
    """First-return probabilities s_k from the power-series inversion
    1/f = 1 - sum s_k t^k, and survival z_k = 1 - sum_{j<=k} s_j."""
    inv = (RatFun(fgen.den, fgen.num)).series(k_max)
    if inv[0] != 1:
        raise ValueError("1/f must have constant term 1")
    s = [Fraction(0)] + [-c for c in inv[1:]]
    z, acc = [], Fraction(0)
    for k in range(k_max + 1):
        acc += s[k]
        z.append(1 - acc)
    # n is not recoverable from f alone; callers merge with other tables
    return SeriesTable(n=0, k_max=k_max, s=s, z=z)


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
        raise RootFindingFailure(str(exc)) from exc
    if np.any(~np.isfinite(roots)):
        raise RootFindingFailure("non-finite root from the polynomial solver")
    eigs = []
    for root in roots:
        if abs(root.imag) <= 1e-9 * (1 + abs(root)):
            if root.real == 0:
                raise RootFindingFailure("denominator root at 0")
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
    one = Fraction(1)

    def at_one(poly: IntPoly):
        d = poly.derivative()
        return poly.eval(one), d.eval(one), d.derivative().eval(one)

    n0, n1, n2 = at_one(f.num)
    d0, d1, d2 = at_one(f.den)
    inv_d1 = (d1 * n0 - d0 * n1) / n0 ** 2
    inv_d2 = (d2 * n0 - d0 * n2) / n0 ** 2 - 2 * n1 * inv_d1 / n0
    mean_t1 = -inv_d1
    mean_t1_sq = -inv_d2 + mean_t1
    return HittingResult(value=mean_t1_sq / (2 * mean_t1) - Fraction(1, 2),
                         mean_t1=mean_t1, mean_t1_sq=mean_t1_sq)
