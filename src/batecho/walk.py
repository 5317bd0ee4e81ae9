"""Seeded random-walk simulation and the observer's view of it.

The observer at the root sees only the clock and the return bits; every
estimator in the library consumes that interface.  Streams are
deterministic functions of (graph, seed, lazy) and are split from a
master seed via numpy's SeedSequence, so parallel and serial runs see the
same randomness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import RootedGraph

_BUF = 8192


@lru_cache(maxsize=64)
def _flat_adjacency(g: RootedGraph):
    """(neighbors, offsets, degrees) arrays for vectorized stepping."""
    degs = np.array([g.degree(i) for i in range(g.n)], dtype=np.int64)
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    flat = np.empty(offsets[-1], dtype=np.int64)
    for u in range(g.n):
        flat[offsets[u]:offsets[u + 1]] = g.adjacency[u]
    return flat, offsets, degs


def child_seed(seed, index: int) -> np.random.SeedSequence:
    """The `index`-th child of `seed` (an int or a SeedSequence).  Children
    of distinct SeedSequence siblings stay distinct, because the parent's
    spawn key is kept."""
    return np.random.SeedSequence(getattr(seed, "entropy", seed),
                                  spawn_key=(*getattr(seed, "spawn_key", ()), index))


class WalkStream:
    """One walker, advanced a tick at a time.  In lazy mode each tick is a
    fair coin between staying put and a uniform neighbor step."""

    def __init__(self, graph: RootedGraph, seed, lazy: bool = False):
        self.graph = graph
        self.lazy = lazy
        self.position = graph.root
        self.tick = 0
        self._rng = np.random.default_rng(seed)
        self._buf = np.empty(0)
        self._i = 0

    def _uniform(self) -> float:
        if self._i >= len(self._buf):
            self._buf = self._rng.random(_BUF)
            self._i = 0
        u = self._buf[self._i]
        self._i += 1
        return u

    def step(self) -> int:
        adj = self.graph.adjacency[self.position]
        d = len(adj)
        u = self._uniform()
        if self.lazy:
            j = int(u * 2 * d)
            if j >= d:
                self.position = adj[j - d]
        else:
            self.position = adj[int(u * d)]
        self.tick += 1
        return self.position

    def bits(self):
        """Observer view: yields the at-root bit for ticks 1, 2, 3, ..."""
        root = self.graph.root
        while True:
            yield self.step() == root


def simulate(g: RootedGraph, seed, lazy: bool = False) -> WalkStream:
    return WalkStream(g, seed, lazy)


class ReturnTimes:
    """Iterator over the root-return times T1 < T2 < ... of a bit stream.
    `origin` tracks the boundary of the last completed experiment."""

    def __init__(self, bit_source, graph: RootedGraph | None = None):
        self._bits = bit_source
        self.graph = graph
        self.tick = 0
        self.origin = 0

    @classmethod
    def from_walk(cls, g: RootedGraph, seed, lazy: bool = False) -> "ReturnTimes":
        return cls(simulate(g, seed, lazy).bits(), graph=g)

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
    gaps in bulk gives a stream with the same law as watching one long
    walk, at a fraction of the cost."""

    def __init__(self, graph: RootedGraph, seed, lazy: bool = False,
                 chunk: int = 1 << 16):
        super().__init__(iter(()), graph=graph)
        self._lazy = lazy
        self._chunk = chunk
        self._seed = seed
        self._spawned = 0
        self._gaps = np.empty(0, dtype=np.int64)
        self._i = 0

    def __next__(self) -> int:
        if self._i >= len(self._gaps):
            child = child_seed(self._seed, self._spawned)
            self._spawned += 1
            self._gaps = sample_first_returns(self.graph, self._chunk,
                                              child, lazy=self._lazy)
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
# vectorized backends (same observable semantics, batch speed)


def _batch_positions_after(g: RootedGraph, steps: int, count: int,
                           rng: np.random.Generator, lazy: bool) -> np.ndarray:
    """Final positions of `count` independent walks of `steps` ticks from
    the root."""
    flat, offsets, degs = _flat_adjacency(g)
    pos = np.full(count, g.root, dtype=np.int64)
    regular = bool(np.all(degs == degs[0]))
    d0 = int(degs[0])
    for _ in range(steps):
        u = rng.random(count)
        if lazy:
            if regular:
                j = (u * (2 * d0)).astype(np.int64)
                move = j >= d0
                pos[move] = flat[offsets[pos[move]] + (j[move] - d0)]
            else:
                dd = degs[pos]
                j = (u * (2 * dd)).astype(np.int64)
                move = j >= dd
                pos[move] = flat[offsets[pos[move]] + (j[move] - dd[move])]
        else:
            if regular:
                j = (u * d0).astype(np.int64)
            else:
                j = (u * degs[pos]).astype(np.int64)
            pos = flat[offsets[pos] + j]
    return pos


def batch_return_successes(g: RootedGraph, k: int, count: int, seed,
                           lazy: bool = True, stride: int = 1) -> int:
    """Number of independent experiments (out of `count`) whose walk is
    back at the root at tick stride*k.  The success indicator equals the
    return bit a_{stride*k}, exactly the observable the sequential
    experiment protocol tests."""
    rng = np.random.default_rng(seed)
    total = 0
    chunk = 1 << 20
    done = 0
    while done < count:
        c = min(chunk, count - done)
        pos = _batch_positions_after(g, stride * k, c, rng, lazy)
        total += int(np.sum(pos == g.root))
        done += c
    return total


def sample_first_returns(g: RootedGraph, count: int, seed,
                         lazy: bool = False) -> np.ndarray:
    """`count` independent first-return times, vectorized.  Gaps between
    successive returns are iid copies of T1, so these samples have the
    observer's gap distribution."""
    rng = np.random.default_rng(seed)
    flat, offsets, degs = _flat_adjacency(g)
    out = np.empty(count, dtype=np.int64)
    filled = 0
    chunk = 1 << 19
    while filled < count:
        c = min(chunk, count - filled)
        pos = np.full(c, g.root, dtype=np.int64)
        time = np.zeros(c, dtype=np.int64)
        alive = np.arange(c)
        t = 0
        while alive.size:
            t += 1
            u = rng.random(alive.size)
            dd = degs[pos[alive]]
            if lazy:
                j = (u * (2 * dd)).astype(np.int64)
                move = j >= dd
                mv = alive[move]
                pos[mv] = flat[offsets[pos[mv]] + (j[move] - dd[move])]
            else:
                j = (u * dd).astype(np.int64)
                pos[alive] = flat[offsets[pos[alive]] + j]
            back = pos[alive] == g.root
            time[alive[back]] = t
            alive = alive[~back]
        out[filled:filled + c] = time
        filled += c
    return out
