"""Seeded random-walk simulation and the observer's view of it.

The observer at the root sees only the clock and the return bits; every
estimator in the library consumes that interface.  A batch of independent
walkers is simulated as an occupancy vector, the number of walkers at
each vertex, which one step function advances a tick at a time with one
multinomial draw per degree class.  Streams are deterministic functions
of (graph, seed, lazy), split from a master seed via numpy's
SeedSequence, so parallel and serial runs see the same randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import RootedGraph


@lru_cache(maxsize=64)
def _degree_classes(g: RootedGraph) -> tuple:
    """The vertices grouped by degree, one (vertices, moves) entry per
    degree d.  moves[lazy] is (targets, shares): the walkers at
    vertices[i] move to targets[i, j] with share shares[j].  The plain walk
    moves to each neighbour with share 1/d; the lazy walk stays with share
    1/2 (its first target column is the vertex itself) and moves to each
    neighbour with share 1/(2d)."""
    by_degree: dict[int, list[int]] = {}
    for v in range(g.n):
        by_degree.setdefault(g.degree(v), []).append(v)
    classes = []
    for d, vs in sorted(by_degree.items()):
        verts = np.array(vs)
        nbrs = np.array([g.adjacency[v] for v in vs])
        classes.append((verts, ((nbrs, np.full(d, 1.0 / d)),
                                (np.c_[verts, nbrs], np.r_[0.5, np.full(d, 0.5 / d)]))))
    return tuple(classes)


def _step(classes, occ: np.ndarray, rng: np.random.Generator,
          lazy: bool) -> np.ndarray:
    """One tick of every walker, given the walker count at each vertex:
    one multinomial draw per degree class splits each vertex's count over
    its targets.  Returns the new counts."""
    new = np.zeros(occ.size, dtype=np.int64)
    for verts, moves in classes:
        targets, shares = moves[lazy]
        np.add.at(new, targets, rng.multinomial(occ[verts], shares))
    return new


def child_seed(seed, index: int) -> np.random.SeedSequence:
    """The `index`-th child of `seed` (an int or a SeedSequence).  Children
    of distinct SeedSequence siblings stay distinct, because the parent's
    spawn key is kept."""
    return np.random.SeedSequence(getattr(seed, "entropy", seed),
                                  spawn_key=(*getattr(seed, "spawn_key", ()), index))


class ReturnTimes:
    """Iterator over the root-return times T1 < T2 < ... of a bit stream.
    `origin` tracks the boundary of the last completed experiment."""

    def __init__(self, bit_source, graph: RootedGraph | None = None):
        self._bits = bit_source
        self.graph = graph
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

    def gaps(self, m: int) -> list[int]:
        """The first m inter-return gaps (the first gap is T1 itself)."""
        out, prev = [], 0
        for _ in range(m):
            t = next(self)
            out.append(t - prev)
            prev = t
        return out


class SampledReturnTimes(ReturnTimes):
    """ReturnTimes backed by vectorized gap sampling.  Successive return
    gaps of a walk are iid copies of the first-return time, so drawing
    gaps in bulk (2^16 per refill) gives a stream with the same law as
    watching one long walk, at a fraction of the cost."""

    def __init__(self, graph: RootedGraph, seed, lazy: bool = False):
        super().__init__(iter(()), graph=graph)
        self._lazy = lazy
        self._seed = seed
        self._spawned = 0
        self._gaps = np.empty(0, dtype=np.int64)
        self._i = 0

    def __next__(self) -> int:
        if self._i >= len(self._gaps):
            child = child_seed(self._seed, self._spawned)
            self._spawned += 1
            self._gaps = sample_first_returns(self.graph, 1 << 16, child,
                                              lazy=self._lazy)
            self._i = 0
        gap = int(self._gaps[self._i])
        self._i += 1
        self.tick += gap
        return self.tick


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
    for t in rt:
        if t >= target:
            rt.origin = t
            return t == target
    raise RuntimeError("return stream ended")  # pragma: no cover


def estimate_pk(rt: ReturnTimes, k: int, eps: float, delta: float,
                log: list | None = None) -> PkEstimate:
    """Estimate P_k(r,r) by independent return-time experiments, sized by
    the Hoeffding bound."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    n = hoeffding_count(eps, delta)
    successes = 0
    for _ in range(n):
        start = rt.origin
        ok = run_experiment(rt, k)
        successes += ok
        if log is not None:
            log.append({"k": k, "success": bool(ok),
                        "duration_ticks": rt.origin - start})
    return PkEstimate(k=k, p_hat=successes / n, experiments=n,
                      successes=successes, eps=eps, delta=delta)


def observer_stats(gaps):
    """Sample mean and second moment of the observed return gaps, plus the
    all-gaps-even parity flag."""
    gaps = np.asarray(gaps)
    if gaps.size == 0:
        raise ValueError("need at least one gap")
    mean = float(gaps.mean())
    mean_sq = float((gaps.astype(float) ** 2).mean())
    all_even = bool((gaps % 2 == 0).all())
    return mean, mean_sq, all_even


# ---------------------------------------------------------------------------
# vectorized samplers


def batch_return_successes(g: RootedGraph, k: int, count: int, seed,
                           lazy: bool = True, stride: int = 1) -> int:
    """Number of independent experiments (out of `count`) whose walk is
    back at the root at tick stride*k.  The success indicator equals the
    return bit a_{stride*k}, exactly the observable the sequential
    experiment protocol tests.  The walkers are i.i.d., so only their
    count at each vertex is simulated: the cost is O(|E| stride k),
    whatever `count` is."""
    classes = _degree_classes(g)
    rng = np.random.default_rng(seed)
    occ = np.zeros(g.n, dtype=np.int64)
    occ[g.root] = count
    for _ in range(stride * k):
        occ = _step(classes, occ, rng, lazy)
    return int(occ[g.root])


def sample_first_returns(g: RootedGraph, count: int, seed,
                         lazy: bool = False) -> np.ndarray:
    """`count` independent first-return times.  The walker counts evolve
    with the root absorbing; the count absorbed at tick t is the number of
    first returns at t, and a shuffle of that histogram is an i.i.d.
    sample.  Gaps between successive returns are iid copies of T1, so
    these samples have the observer's gap distribution."""
    classes = _degree_classes(g)
    rng = np.random.default_rng(seed)
    occ = np.zeros(g.n, dtype=np.int64)
    occ[g.root] = count
    absorbed = []
    left = count
    while left:
        occ = _step(classes, occ, rng, lazy)
        absorbed.append(int(occ[g.root]))
        left -= absorbed[-1]
        occ[g.root] = 0
    out = np.repeat(np.arange(1, len(absorbed) + 1, dtype=np.int64), absorbed)
    rng.shuffle(out)
    return out
