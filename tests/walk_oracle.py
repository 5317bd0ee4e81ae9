"""The sequential walk, kept as a test oracle for the vectorized samplers
in `batecho.walk`: one walker advanced a tick at a time, read by the
observer as a stream of at-root bits."""
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
    return ReturnTimes(simulate(g, seed, lazy).bits(), graph=g)
