"""Zero-divisor graphs and their structural invariants.

The graph of a ring has the nonzero zero-divisors as vertices, with an edge
between distinct u and v exactly when u*v = 0.  Such graphs are always
connected with diameter at most 3 and girth 3, 4, or infinite; those facts
are treated as hard invariants and checked by the verification sweep.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .rings import FiniteRing, zero_divisors

__all__ = [
    "DisconnectedGraphError",
    "ZDGraph",
    "build_graph",
    "distance",
    "is_connected",
    "diameter",
    "girth",
    "is_complete",
    "complete_bipartition",
    "is_complete_bipartite",
    "is_star",
    "universal_vertices",
    "edge_count",
    "export_dot",
    "GraphInvariants",
    "graph_invariants",
]


class DisconnectedGraphError(RuntimeError):
    """A nonempty zero-divisor graph turned out disconnected.

    This cannot happen for an actual ring; reaching it means either the
    input graph was synthetic or a foundational fact has been falsified.
    """


class ZDGraph:
    """Immutable undirected graph with dense adjacency and labeled vertices."""

    def __init__(
        self,
        vertices: Sequence[int],
        labels: Sequence[str],
        adjacency: np.ndarray,
        ring: FiniteRing | None = None,
    ) -> None:
        self.vertices = tuple(int(v) for v in vertices)
        self.labels = tuple(str(x) for x in labels)
        adj = np.array(adjacency, dtype=bool)
        if adj.shape != (len(self.vertices), len(self.vertices)):
            raise ValueError("adjacency shape does not match the vertex list")
        if adj.size and ((adj != adj.T).any() or adj.diagonal().any()):
            raise ValueError("adjacency must be symmetric with an empty diagonal")
        adj.setflags(write=False)
        self.adjacency = adj
        self.ring = ring
        self.neighbors = tuple(
            tuple(np.nonzero(row)[0].tolist()) for row in adj
        )
        self._pos = {v: k for k, v in enumerate(self.vertices)}
        self._cache: dict = {}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def position(self, elem: int) -> int:
        try:
            return self._pos[elem]
        except KeyError:
            raise ValueError(f"element index {elem} is not a vertex") from None

    def edge_positions(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as a position pair (u, v) with u < v."""
        for u in range(self.vertex_count):
            for v in self.neighbors[u]:
                if u < v:
                    yield u, v

    def __repr__(self) -> str:
        name = self.ring.spec_name if self.ring is not None else "synthetic"
        return f"ZDGraph({name!r}, vertices={self.vertex_count})"


def build_graph(ring: FiniteRing) -> ZDGraph:
    """The zero-divisor graph of a ring, vertices in ascending element order."""
    cached = ring._cache.get("zdgraph")
    if cached is not None:
        return cached
    verts = sorted(zero_divisors(ring) - {ring.zero})
    adj = ring.mul_table[np.ix_(verts, verts)] == ring.zero
    np.fill_diagonal(adj, False)
    graph = ZDGraph(verts, [ring.labels[v] for v in verts], adj, ring)
    ring._cache["zdgraph"] = graph
    return graph


def _bfs_depths(graph: ZDGraph, source: int) -> list[int]:
    depth = [-1] * graph.vertex_count
    depth[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors[u]:
            if depth[w] < 0:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def distance(graph: ZDGraph, u: int, v: int) -> int | None:
    """Shortest-path length between two vertices; None if unreachable."""
    src, dst = graph.position(u), graph.position(v)
    d = _bfs_depths(graph, src)[dst]
    return None if d < 0 else d


def is_connected(graph: ZDGraph) -> bool:
    if graph.vertex_count == 0:
        return True
    return all(d >= 0 for d in _bfs_depths(graph, 0))


def diameter(graph: ZDGraph) -> int | None:
    """Largest BFS eccentricity; None for the empty graph.

    Raises DisconnectedGraphError on a disconnected graph rather than
    returning a value, since that would falsify the connectivity invariant.
    """
    if graph.vertex_count == 0:
        return None
    cached = graph._cache.get("diameter")
    if cached is not None:
        return cached
    best = 0
    for src in range(graph.vertex_count):
        depths = _bfs_depths(graph, src)
        worst = max(depths)
        if min(depths) < 0:
            raise DisconnectedGraphError(
                "zero-divisor graph is disconnected; connectivity invariant violated"
            )
        best = max(best, worst)
    graph._cache["diameter"] = best
    return best


def girth(graph: ZDGraph) -> int | float:
    """Length of a shortest cycle, or math.inf for acyclic graphs.

    Per-root BFS: a non-tree edge joining vertices at depths d1 and d2
    exhibits a closed walk of length d1+d2+1, which always contains a cycle
    no longer than that; minimizing over all roots is exact.
    """
    cached = graph._cache.get("girth")
    if cached is not None:
        return cached
    best: int | float = math.inf
    n = graph.vertex_count
    for root in range(n):
        depth = [-1] * n
        parent = [-1] * n
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    candidate = depth[u] + depth[w] + 1
                    if candidate < best:
                        best = candidate
        if best == 3:
            break
    graph._cache["girth"] = best
    return best


def is_complete(graph: ZDGraph) -> bool:
    """True iff all distinct vertex pairs are adjacent (vacuous for <= 1)."""
    n = graph.vertex_count
    if n <= 1:
        return True
    off_diagonal = ~np.eye(n, dtype=bool)
    return bool(graph.adjacency[off_diagonal].all())


def complete_bipartition(graph: ZDGraph) -> tuple[int, int] | None:
    """Part sizes (m, n) if the graph is complete bipartite, else None.

    BFS two-coloring; requires a proper coloring, both parts nonempty, and
    every cross-part pair adjacent.  A single vertex is not bipartite here.
    """
    n = graph.vertex_count
    if n <= 1:
        return None
    color = [-1] * n
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part0 = [i for i in range(n) if color[i] == 0]
    part1 = [i for i in range(n) if color[i] == 1]
    if not part0 or not part1:
        return None
    if not graph.adjacency[np.ix_(part0, part1)].all():
        return None
    return tuple(sorted((len(part0), len(part1))))  # type: ignore[return-value]


def is_complete_bipartite(graph: ZDGraph) -> bool:
    return complete_bipartition(graph) is not None


def is_star(graph: ZDGraph) -> bool:
    """Complete bipartite with a part of size one."""
    parts = complete_bipartition(graph)
    return parts is not None and parts[0] == 1


def universal_vertices(graph: ZDGraph) -> tuple[int, ...]:
    """Element indices of vertices adjacent to every other vertex."""
    n = graph.vertex_count
    return tuple(
        graph.vertices[u] for u in range(n) if len(graph.neighbors[u]) == n - 1
    )


def edge_count(graph: ZDGraph) -> int:
    return int(graph.adjacency.sum()) // 2


def export_dot(graph: ZDGraph) -> str:
    """Deterministic DOT text: nodes in carrier order, each edge once."""
    lines = ["graph {"]
    for label in graph.labels:
        lines.append(f'  "{label}";')
    for u, v in graph.edge_positions():
        lines.append(f'  "{graph.labels[u]}" -- "{graph.labels[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphInvariants:
    vertex_count: int
    edge_count: int
    diameter: int | None
    girth: int | float
    is_complete: bool
    is_complete_bipartite: bool
    bipartition: tuple[int, int] | None
    is_star: bool
    universal_vertices: tuple[int, ...]


def graph_invariants(graph: ZDGraph) -> GraphInvariants:
    parts = complete_bipartition(graph)
    return GraphInvariants(
        vertex_count=graph.vertex_count,
        edge_count=edge_count(graph),
        diameter=diameter(graph),
        girth=girth(graph),
        is_complete=is_complete(graph),
        is_complete_bipartite=parts is not None,
        bipartition=parts,
        is_star=parts is not None and parts[0] == 1,
        universal_vertices=universal_vertices(graph),
    )
