"""Test oracles for the samplers in `batecho.walk`: the sequential walk,
one walker advanced a tick at a time and read by the observer as a
stream of at-root bits; the per-walker batch samplers, which move every
walker of a batch with one uniform draw per tick; and the return
probability P_t(r,r) as the root entry of a matrix power of the dense
transition matrix."""
import numpy as np

from batecho.walk import ReturnTimes

_BUF = 8192


class WalkStream:
    """One walker, advanced a tick at a time.  In lazy mode each tick is a
    fair coin between staying put and a uniform neighbor step."""

    def __init__(self, graph, seed, lazy: bool = False):
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


def simulate(g, seed, lazy: bool = False) -> WalkStream:
    return WalkStream(g, seed, lazy)


def from_walk(g, seed, lazy: bool = False) -> ReturnTimes:
    """The observer's return times of one sequential walk."""
    return ReturnTimes(simulate(g, seed, lazy).bits())


def gaps(rt, m):
    """The first m inter-return gaps of a return-time stream (the first
    gap is T1 itself)."""
    times = [next(rt) for _ in range(m)]
    return [t - prev for t, prev in zip(times, [0] + times[:-1])]


def _flat_adjacency(g):
    """(neighbors, offsets, degrees) for vectorized per-walker stepping."""
    degs = np.array([g.degree(i) for i in range(g.n)], dtype=np.int64)
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    flat = np.array([v for u in range(g.n) for v in g.adjacency[u]], dtype=np.int64)
    return flat, offsets, degs


def _advance(adj, pos, rng, ticks, lazy):
    """Move walkers at `pos` through `ticks` ticks, drawing one uniform u
    per walker per tick: a walker of degree d moves to neighbor
    floor(u*d); in lazy mode j = floor(2*u*d) keeps it in place for j < d
    and moves it to neighbor j - d otherwise."""
    flat, offsets, degs = adj
    for _ in range(ticks):
        u = rng.random(pos.size)
        d = degs[pos]
        if lazy:
            j = (u * (2 * d)).astype(np.int64)
            move = j >= d
            pos[move] = flat[offsets[pos[move]] + (j[move] - d[move])]
        else:
            pos = flat[offsets[pos] + (u * d).astype(np.int64)]
    return pos


def batch_return_successes(g, k, count, seed, lazy=True, stride=1):
    """Per-walker twin of `batecho.walk.batch_return_successes`."""
    pos = np.full(count, g.root, dtype=np.int64)
    pos = _advance(_flat_adjacency(g), pos, np.random.default_rng(seed),
                   stride * k, lazy)
    return int(np.sum(pos == g.root))


def sample_first_returns(g, count, seed, lazy=False):
    """Per-walker twin of `batecho.walk.sample_first_returns`, on the
    graph and chain rather than their RootMeasure: each walker is stepped
    until it is back at the root."""
    adj, rng = _flat_adjacency(g), np.random.default_rng(seed)
    out = np.empty(count, dtype=np.int64)
    alive = np.arange(count)                 # slots in `out` still walking
    pos = np.full(count, g.root, dtype=np.int64)
    t = 0
    while alive.size:
        t += 1
        pos = _advance(adj, pos, rng, 1, lazy)
        away = pos != g.root
        out[alive[~away]] = t
        alive, pos = alive[away], pos[away]
    return out


def transition_matrix(g, lazy):
    """The one-tick transition matrix in float64, filled vertex by vertex:
    P[v, u] = 1/d(v) for each neighbour u of v, and (I + P)/2 on the lazy
    walk."""
    p = np.zeros((g.n, g.n))
    for v, nbrs in enumerate(g.adjacency):
        p[v, list(nbrs)] = 1.0 / len(nbrs)
    return (p + np.eye(g.n)) / 2 if lazy else p


def matrix_power_return_probability(g, t, lazy):
    """P_t(r,r) as the root entry of P^t (`transition_matrix`)."""
    return float(np.linalg.matrix_power(transition_matrix(g, lazy), t)[g.root, g.root])
