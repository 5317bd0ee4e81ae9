"""Seeded random-walk simulation, the observer's view of it, and the float
routes: the spectrum, and the eigenvalues at the poles of `exact`'s f.

The observer at the root sees only the clock and the return bits; every
estimator in the library consumes that interface.  Everything it sees
is fixed by the root's spectral measure.  A `RootMeasure` holds it for
one chain (lazy or plain) on one graph: the spectrum's root weights with
the chain's eigenvalues, snapped once, for P_t(r,r), and the n-tick
first-return kernel for the first-return law, each built on first use.
A caller builds one per search or sampling call and passes it to every
sampler, one per observable.  The walkers are i.i.d., so a batch is
drawn from the root's laws, never walker by walker:
`batch_return_successes` draws the return-bit count at tick t as one
binomial with P_t(r,r); `first_return_counts` draws first returns n
ticks per multinomial over the walkers still out, with the block's law
read off the kernel; `sample_first_returns` shuffles that histogram.
Every entry point that takes a seed draws from `random_stream(seed)`,
numpy's default Generator for it (the seed itself when it is a Generator),
so one stream can feed many draws: a gap search draws every evaluation
from one stream, in its order, and `SampledReturnTimes` every refill, 2^12
gaps in the first and twice as many in each next one up to 2^16.  `None`
(fresh entropy) is refused, so the draws are a deterministic function of
(graph, seed, lazy).  A walker count is an integer from 1 to the largest
int64, and is refused before any draw too.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BatechoError, DomainError
from .graphs import MAX_WALK_N, RootedGraph

# numpy draws a walker count as an int64, and must size an int64 array of samples
MAX_WALKERS = int(np.iinfo(np.int64).max)
MAX_SAMPLES = int(np.iinfo(np.intp).max) // np.dtype(np.int64).itemsize


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
            "nondegenerate": [{"value": v, "weight": w, "flag": f}
                              for v, w, f in nondegenerate_set(self)],
        }


def _edge_ends(g: RootedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, degs): the index arrays that set a matrix's entry on
    every directed edge u -> v in one assignment, u's index repeated d_u
    times as the rows and the concatenated adjacency as the columns, with
    the degrees as floats."""
    sizes = list(map(len, g.adjacency))
    rows = np.repeat(np.arange(g.n), sizes)
    cols = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=rows.size)
    return rows, cols, np.array(sizes, dtype=float)


def _symmetrised_matrix(g: RootedGraph) -> np.ndarray:
    """N = D M D^{-1}, entry 1/sqrt(d_u d_v) on each edge, set in one
    index assignment (`_edge_ends`)."""
    rows, cols, degs = _edge_ends(g)
    mat = np.zeros((g.n, g.n))
    mat[rows, cols] = 1.0 / np.sqrt(degs[rows] * degs[cols])
    return mat


def spectrum(g: RootedGraph) -> Spectrum:
    """Eigen-decomposition of the symmetrized transition matrix
    N = D M D^{-1}, with root weights from the orthonormal eigenbasis."""
    try:
        vals, vecs = np.linalg.eigh(_symmetrised_matrix(g))
    except np.linalg.LinAlgError as exc:
        raise BatechoError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-vals)
    return Spectrum(eigenvalues=vals[order], root_weights=vecs[g.root, order] ** 2)


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


def poles_to_eigenvalues(fgen):
    """Reciprocals of the real roots of the denominator of `fgen`, a
    `RatFun` such as `exact.return_gen_fun`'s f (the nonzero
    nondegenerate eigenvalues), plus a flag telling whether zero is a
    nondegenerate eigenvalue (degree comparison).  A root counts as real
    when its imaginary part is within 1e-9 (1 + |root|)."""
    den = fgen.den
    if den.degree < 1:
        return [], fgen.num.degree == den.degree
    try:
        roots = np.roots(den.c[::-1])
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
    return eigs, fgen.num.degree == den.degree


def _transition_matrix(g: RootedGraph, lazy: bool) -> np.ndarray:
    """The one-tick transition matrix P, 1/d(v) on each edge v -> u, set
    in one index assignment (`_edge_ends`), or (I + P)/2 on the lazy
    chain."""
    rows, cols, degs = _edge_ends(g)
    p = np.zeros((g.n, g.n))
    p[rows, cols] = 1.0 / degs[rows]
    return (p + np.eye(g.n)) / 2 if lazy else p


def _first_return_kernel(g: RootedGraph, lazy: bool) -> np.ndarray:
    """The n-tick law of one walker with the root absorbing, as an n x 2n
    matrix K.  For a walker started at v, K[v, j - 1] (j = 1..n) is the
    probability that tick j is its first visit to the root, and K[v, n + u]
    that it is at u after n ticks without having visited the root.  With P
    the one-tick transition matrix (or (I + P)/2) and Q that matrix with
    its root column zeroed, the first block's column j is Q^(j-1) P[:, root]
    and the second block is Q^n."""
    p = _transition_matrix(g, lazy)
    q = p.copy()
    q[:, g.root] = 0.0
    kernel = np.empty((g.n, 2 * g.n))
    hit = p[:, g.root]
    for j in range(g.n):
        kernel[:, j] = hit
        hit = q @ hit
    kernel[:, g.n:] = np.linalg.matrix_power(q, g.n)
    return kernel


class RootMeasure:
    """The root's spectral measure for one chain on `g`, the lazy one
    (I + P)/2 or the plain one P, refused above MAX_WALK_N vertices
    before either half is built.  Each half is built on first use and
    kept: `spectral` for the return probabilities, `kernel` for the
    first-return law."""

    def __init__(self, g: RootedGraph, lazy: bool):
        if g.n > MAX_WALK_N:
            raise DomainError(f"walk simulation capped at n <= {MAX_WALK_N}, got {g.n}")
        self.graph = g
        self.lazy = lazy

    @functools.cached_property
    def spectral(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, mu): `spectrum`'s root weights, and the chain's
        eigenvalues mu = (1 + lambda)/2 on the lazy chain and lambda on
        the plain one.  The exact eigenvalues +-1 are snapped, as mu^t
        amplifies eigh's few ulp t-fold (any other lies order 1/n^3
        inside)."""
        spec = spectrum(self.graph)
        lam = spec.eigenvalues
        lam = np.where(np.abs(np.abs(lam) - 1.0) < 1e-12, np.sign(lam), lam)
        return spec.root_weights, (1.0 + lam) / 2 if self.lazy else lam

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """The chain's n-tick first-return kernel (`_first_return_kernel`)."""
        return _first_return_kernel(self.graph, self.lazy)

    def return_probability(self, t: int) -> float:
        """P_t(r,r) = sum_i w_i mu_i^t for an integer t >= 0, clipped to
        [0, 1], which rounding can leave by a few ulp."""
        if not (isinstance(t, (int, np.integer)) and t >= 0):
            raise DomainError(f"t must be a non-negative integer, got {t!r}")
        w, mu = self.spectral
        return min(max(float(w @ mu ** t), 0.0), 1.0)


def random_stream(seed) -> np.random.Generator:
    """The one stream a seed stands for, np.random.default_rng(seed): `seed`
    itself if a Generator.  `None` (fresh entropy) and what numpy refuses
    are a DomainError."""
    if seed is not None:
        try:
            return np.random.default_rng(seed)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"seed must be a non-negative integer, a SeedSequence "
                      f"or a Generator, got {seed!r}")


def _walker_count(count, cap: int = MAX_WALKERS) -> int:
    """`count` as an int, if an integer from 1 to `cap`: every sampler's one rule."""
    if not (isinstance(count, (int, np.integer)) and 1 <= count <= cap):
        raise DomainError(f"count must be an integer from 1 to {cap}, got {count!r}")
    return int(count)


class ReturnTimes:
    """Iterator over the root-return times T1 < T2 < ... of a bit stream.
    `origin` tracks the boundary of the last completed experiment."""

    def __init__(self, bit_source):
        self._bits = bit_source
        self.tick = 0
        self.origin = 0

    def __iter__(self):
        return self

    def __next__(self) -> int:
        for bit in self._bits:
            self.tick += 1
            if bit:
                return self.tick
        raise StopIteration


class SampledReturnTimes(ReturnTimes):
    """ReturnTimes backed by vectorized gap sampling.  Successive return
    gaps of a walk are iid copies of the first-return time, so drawing
    gaps in bulk gives a stream with the same law as watching one long
    walk, at a fraction of the cost.  Refill i draws 2^min(12 + i, 16)
    gaps from the one stream `random_stream(seed)`, built here, so the
    stream never draws more than twice what it has served plus one
    refill of 2^16, a bad seed is refused before any draw, and a
    Generator seed is drawn from in place.  A refill is kept as a list of
    return times and served by the list's own iterator, so a return costs
    one list read and `tick` is read off the list only when asked for."""

    def __init__(self, graph: RootedGraph, seed, lazy: bool = False):
        self._rng = random_stream(seed)
        # no bit source, and `tick` is a property, so ReturnTimes.__init__ is not called
        self.origin = 0
        self._measure = RootMeasure(graph, lazy)
        self._refills = 0
        self._times: list[int] = []
        self._served = iter(self._times)

    @property
    def tick(self) -> int:
        """The last return time served, 0 before the first."""
        return self._times[-1 - operator.length_hint(self._served)] if self._times else 0

    def __next__(self) -> int:
        try:
            return next(self._served)
        except StopIteration:
            gaps = sample_first_returns(self._measure, 1 << min(12 + self._refills, 16),
                                        self._rng)
            self._refills += 1
            self._times = (self.tick + np.cumsum(gaps)).tolist()
            self._served = iter(self._times)
            return next(self._served)


@dataclass
class PkEstimate:
    k: int
    p_hat: float
    experiments: int
    successes: int
    eps: float
    delta: float


def hoeffding_count(eps: float, delta: float) -> int:
    """Experiments needed for additive error < eps with prob >= 1-delta."""
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))


def run_experiment(rt: ReturnTimes, k: int) -> bool:
    """Consume returns until the first one at least k past the experiment
    origin; success iff it lands exactly on origin + k.  Leaves the stream
    positioned at an independent experiment boundary."""
    target = rt.origin + k
    try:
        t = next(rt)
        while t < target:
            t = next(rt)
    except StopIteration:
        raise RuntimeError("return stream ended") from None
    rt.origin = t
    return t == target


def estimate_pk(rt: ReturnTimes, k: int, eps: float, delta: float) -> PkEstimate:
    """Estimate P_k(r,r) by independent return-time experiments, sized by
    the Hoeffding bound.  An experiment's first return comes after its
    origin, so it can test only k >= 1."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise DomainError("eps and delta must lie in (0, 1)")
    n = hoeffding_count(eps, delta)
    successes = sum(run_experiment(rt, k) for _ in range(n))
    return PkEstimate(k=k, p_hat=successes / n, experiments=n,
                      successes=successes, eps=eps, delta=delta)


def observer_stats(counts):
    """Sample mean and second moment of the observed return gaps, plus the
    all-gaps-even parity flag, from the gaps' histogram: counts[j - 1]
    gaps equal j.  The sums are exact integers, so neither the order of
    the gaps nor their number costs precision."""
    counts = np.asarray(counts, dtype=np.int64)
    ticks = np.flatnonzero(counts) + 1
    t, c = ticks.tolist(), counts[ticks - 1].tolist()
    m = sum(c)
    if m == 0:
        raise DomainError("need at least one gap")
    t_c = list(map(operator.mul, t, c))
    mean = sum(t_c) / m
    mean_sq = sum(map(operator.mul, t, t_c)) / m
    return mean, mean_sq, bool((ticks % 2 == 0).all())


# ---------------------------------------------------------------------------
# vectorized samplers


def batch_return_successes(measure: RootMeasure, k: int, count: int, seed,
                           stride: int = 1) -> int:
    """Number of independent experiments (out of `count`) back at the root
    at tick stride*k, the return bit the sequential protocol tests: one
    binomial draw with P_{stride k}(r,r) from the root's measure."""
    count = _walker_count(count)
    if stride < 1:
        raise DomainError(f"stride must be at least 1, got {stride}")
    rng = random_stream(seed)
    return int(rng.binomial(count, measure.return_probability(stride * k)))


def first_return_counts(measure: RootMeasure, count: int, seed) -> np.ndarray:
    """The histogram of `count` independent first-return times:
    counts[j - 1] walks first return at tick j, and the last entry is not
    zero.  `seed` is anything `random_stream` takes, a Generator
    included.  The walkers advance n ticks per draw.  `row` is the next
    block's law for one walker still out, in the kernel's columns: first
    return at each of the block's n ticks, or away at each vertex at its
    end.  For the first block it is the root's kernel row; for a later
    one, the last row's normalised away part times the kernel (O(n^2)
    per block), since where the walkers still out stand does not depend
    on the draws.  Each block draws one multinomial of the walkers still
    out over the n ticks and one "still out" category.  numpy's
    multinomial gives its rounding remainder to the last category, so the
    law never ends in a category of zero mass: the remainder stays out,
    which on a bipartite graph keeps every first return's parity exact,
    or, where no walker can stay out (survival exactly 0, as on a plain
    star), falls on the block's last possible tick."""
    count = _walker_count(count)
    rng = random_stream(seed)
    kernel = measure.kernel
    n = kernel.shape[0]
    row, out = kernel[measure.graph.root], count
    blocks = [np.zeros(0, dtype=np.int64)]
    law = np.empty(n + 1)
    while out:
        away = row[n:]
        survival = away.sum()
        law[:n] = row[:n]
        law[n] = survival
        if survival:
            drawn = rng.multinomial(out, law)
            out = int(drawn[n])
        else:
            drawn = rng.multinomial(out, law[:np.flatnonzero(law)[-1] + 1])
            out = 0
        blocks.append(drawn[:n])
        if out:
            row = away / survival @ kernel
    return np.trim_zeros(np.concatenate(blocks), "b")


def sample_first_returns(measure: RootMeasure, count: int, seed) -> np.ndarray:
    """`count` independent first-return times, in random order: a shuffle
    of the first_return_counts histogram, drawn from the same stream.
    Gaps between successive returns are iid copies of T1, so these
    samples have the observer's gap distribution.  `count` is at most
    MAX_SAMPLES, the longest int64 array numpy can size."""
    count = _walker_count(count, MAX_SAMPLES)
    rng = random_stream(seed)
    counts = first_return_counts(measure, count, rng)
    out = np.repeat(np.arange(1, counts.size + 1, dtype=np.int64), counts)
    rng.shuffle(out)
    return out
