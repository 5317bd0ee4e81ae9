"""Rooted-graph construction, validation and serialization.

All graphs here are simple, undirected and connected, with a distinguished
root vertex.  Builders cover the standard families used as test beds plus
the two special constructions: the height-3 trees G_{a,b} whose survival
generating function is a ratio of linear polynomials, and the "leafy"
(d+1)-regular graphs obtained from a regular tree by adding a d-regular
graph on its leaves.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    Disconnected,
    DuplicateEdge,
    EmptyGlueList,
    InfeasibleRegularGraph,
    ParameterTooSmall,
    RootOutOfRange,
    SelfLoop,
)


@dataclass(frozen=True)
class RootedGraph:
    """Immutable simple connected undirected graph with a root vertex."""

    n: int
    root: int
    adjacency: tuple[tuple[int, ...], ...]
    tags: frozenset[str] = field(default_factory=frozenset)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def root_degree(self) -> int:
        return self.degree(self.root)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def to_text(self) -> str:
        lines = [f"{self.n} {self.root}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "root": self.root,
            "edges": [[u, v] for u, v in self.edges()],
            "tags": sorted(self.tags),
        }


@dataclass(frozen=True)
class TreeHandle:
    """A RootedGraph certified acyclic at construction time."""

    graph: RootedGraph

    def __post_init__(self):
        g = self.graph
        if g.edge_count != g.n - 1:
            raise ParameterTooSmall(
                f"not a tree: {g.edge_count} edges on {g.n} vertices"
            )

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def root(self) -> int:
        return self.graph.root


def _bfs_reachable(n: int, adj, start: int) -> list[bool]:
    seen = [False] * n
    seen[start] = True
    q = deque([start])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                q.append(v)
    return seen


def _make(n: int, edges, root: int, tags=()) -> RootedGraph:
    """Validate and freeze a graph given 0-based edges."""
    if n < 2:
        raise ParameterTooSmall(f"need at least 2 vertices, got {n}")
    if not (0 <= root < n):
        raise RootOutOfRange(f"root {root} not in [0, {n})")
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise RootOutOfRange(f"edge ({u}, {v}) names a vertex outside [0, {n})")
        if v in adj[u]:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
    seen = _bfs_reachable(n, adj, root)
    if not all(seen):
        missing = seen.index(False)
        raise Disconnected(f"vertex {missing} unreachable from root {root}")
    return RootedGraph(
        n=n,
        root=root,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        tags=frozenset(tags),
    )


def from_edge_list(edges, root) -> RootedGraph:
    """Build a graph from an edge list, relabeling vertices 0..n-1 by
    order of first appearance.  `root` is a vertex label occurring in the
    edges."""
    if not edges:
        raise ParameterTooSmall("edge list is empty")
    label = {}
    for u, v in edges:
        for x in (u, v):
            if x not in label:
                label[x] = len(label)
    if root not in label:
        raise RootOutOfRange(f"root {root} does not occur in the edge list")
    relabeled = [(label[u], label[v]) for u, v in edges]
    return _make(len(label), relabeled, label[root])


def from_text(text: str) -> RootedGraph:
    """Parse the text format: first line "n root", then one "u v" per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterTooSmall("empty graph file")
    try:
        n, root = map(int, lines[0].split())
    except ValueError as exc:
        raise ParameterTooSmall(f"line 1: expected 'n root', got {lines[0]!r}") from exc
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise ParameterTooSmall(f"line {i}: expected 'u v', got {ln!r}") from exc
        edges.append((u, v))
    return _make(n, edges, root)


def build_family(kind: str, size: int) -> RootedGraph:
    """Standard families, rooted at vertex 0.

    path(size)      path on `size` vertices rooted at an end
    cycle(size)     cycle C_size, size >= 3
    complete(size)  complete graph K_size
    star(size)      star K_{1,size} rooted at the center
    hypercube(size) hypercube Q_size on 2^size vertices
    """
    if kind == "path":
        if size < 2:
            raise ParameterTooSmall("path needs >= 2 vertices")
        edges = [(i, i + 1) for i in range(size - 1)]
        tags = ["tree"] + (["transitive"] if size == 2 else [])
        return _make(size, edges, 0, tags)
    if kind == "cycle":
        if size < 3:
            raise ParameterTooSmall("cycle needs >= 3 vertices")
        edges = [(i, (i + 1) % size) for i in range(size)]
        return _make(size, edges, 0, ["transitive"])
    if kind == "complete":
        if size < 2:
            raise ParameterTooSmall("complete graph needs >= 2 vertices")
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)]
        return _make(size, edges, 0, ["transitive"])
    if kind == "star":
        if size < 1:
            raise ParameterTooSmall("star needs >= 1 leaf")
        edges = [(0, i) for i in range(1, size + 1)]
        tags = ["tree"] + (["transitive"] if size == 1 else [])
        return _make(size + 1, edges, 0, tags)
    if kind == "hypercube":
        if size < 1:
            raise ParameterTooSmall("hypercube needs dimension >= 1")
        n = 1 << size
        edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(size) if u < u ^ (1 << b)]
        return _make(n, edges, 0, ["transitive"])
    raise ParameterTooSmall(f"unknown family kind {kind!r}")


def build_gab(a: int, b: int) -> TreeHandle:
    """The height-3 tree whose root's neighbor has degree `a`, with a-1
    further neighbors of degree `b`.  Degenerate cases a=1 (single edge)
    and b=1 (star rooted at a leaf) are allowed."""
    if a < 1 or b < 1:
        raise ParameterTooSmall(f"need a, b >= 1, got a={a}, b={b}")
    edges = [(0, 1)]
    nxt = 2
    for _ in range(a - 1):
        mid = nxt
        nxt += 1
        edges.append((1, mid))
        for _ in range(b - 1):
            edges.append((mid, nxt))
            nxt += 1
    return TreeHandle(_make(nxt, edges, 0, ["tree"]))


def glue_at_roots(parts) -> TreeHandle:
    """Glue rooted trees at their roots.  `parts` is a list of
    (TreeHandle, multiplicity) pairs; the result's root identifies all
    component roots."""
    if not parts:
        raise EmptyGlueList("nothing to glue")
    edges = []
    nxt = 1  # 0 is the shared root
    for tree, mult in parts:
        if mult < 1:
            raise EmptyGlueList(f"multiplicity {mult} < 1")
        g = tree.graph
        for _ in range(mult):
            remap = {}
            for v in range(g.n):
                remap[v] = 0 if v == g.root else nxt
                if v != g.root:
                    nxt += 1
            for u, v in g.edges():
                edges.append((remap[u], remap[v]))
    return TreeHandle(_make(nxt, edges, 0, ["tree"]))


def attach_new_root(tree: TreeHandle) -> TreeHandle:
    """Attach a new leaf to the root and make the leaf the new root."""
    g = tree.graph
    edges = list(g.edges()) + [(g.root, g.n)]
    return TreeHandle(_make(g.n + 1, edges, g.n, ["tree"]))


def _circulant_edges(block: list[int], d: int) -> list[tuple[int, int]]:
    """d-regular circulant on the given vertices.  Requires len(block) > d
    and, for odd d, an even block size."""
    s = len(block)
    edges = set()
    for off in range(1, d // 2 + 1):
        for i in range(s):
            u, v = block[i], block[(i + off) % s]
            edges.add((min(u, v), max(u, v)))
    if d % 2:
        for i in range(s // 2):
            u, v = block[i], block[i + s // 2]
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _random_regular_edges(block: list[int], d: int, rng: random.Random,
                          retries: int = 1000) -> list[tuple[int, int]]:
    """Configuration model with rejection of loops, multi-edges and
    disconnection."""
    s = len(block)
    if d >= s or (d * s) % 2:
        raise InfeasibleRegularGraph(f"no {d}-regular simple graph on {s} vertices")
    for _ in range(retries):
        stubs = [i for i in range(s) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        seen = set()
        ok = True
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if not ok:
            continue
        adj = [set() for _ in range(s)]
        for u, v in seen:
            adj[u].add(v)
            adj[v].add(u)
        if not all(_bfs_reachable(s, adj, 0)):
            continue
        return [(block[u], block[v]) for u, v in sorted(seen)]
    raise InfeasibleRegularGraph(
        f"gave up after {retries} attempts at a connected {d}-regular graph "
        f"on {s} vertices"
    )


def build_leafy(h: int, d: int, mode: str = "expander", seed: int = 0) -> RootedGraph:
    """A (d+1)-regular graph: the full tree with internal degree d+1 and
    all leaves at distance h from the root, plus a d-regular graph on the
    leaves.

    mode="expander": one seeded random d-regular graph on all leaves.
    mode="cutpoint": deterministic d-regular circulants confined to groups
    of depth-1 subtrees, groups as small as feasibility allows.  With one
    subtree per group (possible for h >= 3) the root is a cutpoint.
    """
    if h < 1 or d < 2:
        raise ParameterTooSmall(f"need h >= 1 and d >= 2, got h={h}, d={d}")
    if mode not in ("expander", "cutpoint"):
        raise ParameterTooSmall(f"unknown mode {mode!r}")

    edges = []
    nxt = 1
    frontier = [0]
    subtree_of = {}  # leaf -> index of its depth-1 subtree
    for depth in range(h):
        fanout = d + 1 if depth == 0 else d
        new_frontier = []
        for u in frontier:
            for _ in range(fanout):
                v = nxt
                nxt += 1
                edges.append((u, v))
                if depth == 0:
                    subtree_of[v] = v
                else:
                    subtree_of[v] = subtree_of[u]
                new_frontier.append(v)
        frontier = new_frontier
    leaves = frontier
    n = nxt

    if mode == "expander":
        rng = random.Random(seed)
        edges += _random_regular_edges(leaves, d, rng)
    else:
        subtrees = sorted({subtree_of[v] for v in leaves})
        per = len(leaves) // len(subtrees)  # d^(h-1) leaves per subtree
        g = 1
        while g * per <= d or (d % 2 and (g * per) % 2):
            g += 1
            if g > len(subtrees):
                raise InfeasibleRegularGraph(
                    f"no feasible circulant grouping for h={h}, d={d}"
                )
        groups = [subtrees[i:i + g] for i in range(0, len(subtrees) - len(subtrees) % g, g)]
        rem = len(subtrees) % g
        if rem:
            groups[-1].extend(subtrees[-rem:])
        for grp in groups:
            block = [v for v in leaves if subtree_of[v] in grp]
            if len(block) <= d or (d % 2 and len(block) % 2):
                raise InfeasibleRegularGraph(
                    f"block of {len(block)} leaves cannot carry a {d}-regular circulant"
                )
            edges += _circulant_edges(block, d)

    return _make(n, edges, 0)
