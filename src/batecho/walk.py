"""Seeded random-walk simulation and the observer's view of it.

The observer at the root sees only the clock and the return bits; every
estimator in the library consumes that interface.  Walks are simulated
in batches of independent walkers that share one step function, and
streams are deterministic functions of (graph, seed, lazy), split from a
master seed via numpy's SeedSequence, so parallel and serial runs see the
same randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import RootedGraph


@lru_cache(maxsize=64)
def _flat_adjacency(g: RootedGraph):
    """(neighbors, offsets, degrees, common degree) for vectorized
    stepping; the common degree is None unless the graph is regular."""
    degs = np.array([g.degree(i) for i in range(g.n)], dtype=np.int64)
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    flat = np.empty(offsets[-1], dtype=np.int64)
    for u in range(g.n):
        flat[offsets[u]:offsets[u + 1]] = g.adjacency[u]
    common = int(degs[0]) if bool(np.all(degs == degs[0])) else None
    return flat, offsets, degs, common


def _advance(adj, pos: np.ndarray, rng: np.random.Generator, ticks: int,
             lazy: bool) -> np.ndarray:
    """Move walkers at `pos` through `ticks` ticks, drawing one uniform u
    in [0, 1) per walker per tick; `adj` is the graph's `_flat_adjacency`.
    A walker of degree d moves to neighbor floor(u*d); in lazy mode
    j = floor(2*u*d) keeps it in place for j < d and moves it to neighbor
    j - d otherwise.  On a regular graph d is one scalar, which saves a
    per-tick gather.  Returns the new positions (lazy mode updates `pos`
    in place).

    The tick loop lives here rather than in the callers so that each
    tick's arrays stay alive until the next tick replaces them.  Freed at
    the end of every tick, they went back to the operating system and
    were faulted in again, and batches ran 10-85% slower (2-core Linux
    machine, glibc malloc)."""
    flat, offsets, degs, common = adj
    for _ in range(ticks):
        u = rng.random(pos.size)
        d = degs[pos] if common is None else common
        if lazy:
            j = (u * (2 * d)).astype(np.int64)
            move = j >= d
            if common is None:
                d = d[move]
            pos[move] = flat[offsets[pos[move]] + (j[move] - d)]
        else:
            j = (u * d).astype(np.int64)
            pos = flat[offsets[pos] + j]
    return pos


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
    experiment protocol tests."""
    adj = _flat_adjacency(g)
    rng = np.random.default_rng(seed)
    total = 0
    done = 0
    while done < count:
        c = min(1 << 20, count - done)
        pos = _advance(adj, np.full(c, g.root, dtype=np.int64), rng, stride * k, lazy)
        total += int(np.sum(pos == g.root))
        done += c
    return total


def sample_first_returns(g: RootedGraph, count: int, seed,
                         lazy: bool = False) -> np.ndarray:
    """`count` independent first-return times, vectorized.  Gaps between
    successive returns are iid copies of T1, so these samples have the
    observer's gap distribution."""
    adj = _flat_adjacency(g)
    rng = np.random.default_rng(seed)
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        c = min(1 << 19, count - filled)
        alive = np.arange(filled, filled + c)    # slots in `out` still walking
        pos = np.full(c, g.root, dtype=np.int64)
        t = 0
        while alive.size:
            t += 1
            pos = _advance(adj, pos, rng, 1, lazy)
            away = pos != g.root
            out[alive[~away]] = t
            alive, pos = alive[away], pos[away]
        filled += c
    return out
