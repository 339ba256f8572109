"""Zero-divisor graphs and their structural invariants.

The graph of a ring has the nonzero zero-divisors as vertices, with an edge
between distinct u and v exactly when u*v = 0.  Such graphs are always
connected with diameter at most 3 and girth 3, 4, or infinite; those facts
are treated as hard invariants and checked by the verification sweep.

Every invariant is computed by a ``ClassGraph``: the graph as a quotient
of its vertices into classes of twins, read by rules that hold for every
graph, so a graph that breaks those invariants is reported as it is.  A
class is either independent (false twins: the same open neighbourhood,
never adjacent to each other) or a clique (true twins: the same closed
neighbourhood, all adjacent to each other).  A materialized ``ZDGraph``
gives its twin classes (``ZDGraph.classes``): a ring's graph its
annihilator classes, a graph with no ring its false twins.  The sweep
builds a duplication's key classes without a graph.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Sequence

import numpy as np

from .rings import _BLOCK_CELLS, FiniteRing, _all, _any, _zero_product_adjacency, cached_fact

__all__ = [
    "DisconnectedGraphError",
    "ClassGraph",
    "ZDGraph",
    "build_graph",
    "diameter",
    "export_dot",
    "graph_invariants",
]


class DisconnectedGraphError(RuntimeError):
    """A nonempty zero-divisor graph turned out disconnected.

    This cannot happen for an actual ring; reaching it means either the
    input graph was synthetic or a foundational fact has been falsified.
    """


def _symmetric_hollow(adj: np.ndarray) -> bool:
    """True iff the square boolean ``adj`` equals its transpose and has an
    empty diagonal.

    Each square tile of about _BLOCK_CELLS cells on or above the diagonal
    is compared with the transpose of its mirror tile, so both stay in
    cache and no n x n temporary is allocated.
    """
    if _any(adj.diagonal()):
        return False
    n = len(adj)
    side = max(1, math.isqrt(_BLOCK_CELLS))
    for lo in range(0, n, side):
        for co in range(lo, n, side):
            tile = adj[lo : lo + side, co : co + side]
            if _any(tile != adj[co : co + side, lo : lo + side].T):
                return False
    return True


class ZDGraph:
    """Immutable undirected graph with a dense adjacency.

    Vertices are distinct element indices, which ``classes`` indexes by.
    The adjacency is stored as a read-only C-ordered boolean array.
    ``build_graph`` hands over a fresh tuple and a fresh array
    (``_owned``), which are kept as they are; a caller's are converted and
    copied.  Either way the adjacency must be symmetric with an empty
    diagonal, so a graph read off a non-commutative table is refused.
    """

    def __init__(
        self,
        vertices: Sequence[int],
        adjacency: np.ndarray,
        ring: FiniteRing | None = None,
        *,
        _owned: bool = False,
    ) -> None:
        if _owned:
            self.vertices, adj = vertices, adjacency
        else:
            self.vertices = tuple(int(v) for v in vertices)
            distinct = len(set(self.vertices)) == len(self.vertices)
            if not distinct or min(self.vertices, default=0) < 0:
                raise ValueError("vertices must be distinct nonnegative element indices")
            adj = np.array(adjacency, dtype=bool, order="C")
        if adj.shape != (len(self.vertices), len(self.vertices)):
            raise ValueError("adjacency shape does not match the vertex list")
        if not _symmetric_hollow(adj):
            raise ValueError("adjacency must be symmetric with an empty diagonal")
        adj.setflags(write=False)
        self.adjacency = adj
        self.ring = ring

    @cached_fact
    def classes(self) -> ClassGraph:
        """The quotient by twins, built on first read.

        Vertices are grouped by their adjacency rows with the diagonal set
        where a vertex is marked, compared byte for byte, and the classes
        numbered in the order of their first vertex, which the grouping
        records.  A ring's graph marks x where x^2 = 0, so its classes are
        the annihilator classes (Ann(x) minus 0); a graph with no ring
        marks none, so its classes are its false twins.  Under any
        marking, since the adjacency is symmetric, a marked class is a
        clique of true twins and an unmarked one independent false twins.
        ``class_of`` runs over the element indices up to the largest
        vertex, as int32.
        """
        packed = np.packbits(self.adjacency, axis=1)
        verts = np.array(self.vertices, dtype=np.intp)
        marked = np.zeros(len(verts), dtype=bool)
        if self.ring is not None:
            marked = self.ring.mul_table.diagonal()[verts] == self.ring.zero
            at = marked.nonzero()[0]
            packed[at, at // 8] |= (0x80 >> (at % 8)).astype(np.uint8)
        # Each class's first row, keyed by the row's bytes, in order of
        # appearance; every vertex's class is the number of its first row.
        first_row: dict[bytes, int] = {}
        firsts = [first_row.setdefault(row.tobytes(), v) for v, row in enumerate(packed)]
        first = np.array(list(first_row.values()), dtype=np.intp)
        number = np.zeros(len(verts), dtype=np.intp)
        number[first] = np.arange(len(first))
        inverse = number[firsts]
        sizes = np.bincount(inverse, minlength=len(first))
        class_of = np.empty(max(self.vertices, default=-1) + 1, dtype=np.int32)
        class_of.fill(-1)
        class_of[verts] = inverse
        q = self.adjacency.take(first, axis=0).take(first, axis=1)
        return ClassGraph(q, sizes, marked[first], class_of)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        name = self.ring.spec_name if self.ring is not None else "synthetic"
        return f"ZDGraph({name!r}, vertices={self.vertex_count})"


def build_graph(ring: FiniteRing) -> ZDGraph:
    """The zero-divisor graph of a ring, vertices in ascending element order."""
    verts, adj = _zero_product_adjacency(ring)
    return ZDGraph(tuple(verts.tolist()), adj, ring, _owned=True)


# Boolean products whose inner dimension is at most this many classes run
# as numpy's boolean matmul; wider ones by the method of the four Russians.
_MATMUL_WIDTH = 64


def _boolean_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(left @ right) > 0 for boolean matrices, exact and on one thread.

    Up to _MATMUL_WIDTH columns of ``left``, this is ``left @ right`` on
    the boolean arrays: numpy's own OR of ANDs, which calls no BLAS and
    cannot overflow.  Its cost grows with r*n*m, so it loses to the
    method below from about 64 columns on; below that the method's fixed
    cost of eight numpy calls per group of eight columns dominates (for a
    square product at 30 % density on a 2-vCPU virtual machine, 2 against
    40 µs at 4 columns, 152 against 153 µs at 62, 619 against 316 µs at
    128).

    Wider products use the method of the four Russians on bit-packed
    rows: the columns of ``left`` are taken eight at a time, the ORs of
    all 256 subsets of the matching eight rows of ``right`` form a table,
    and each result row ORs in the entry its eight bits select.  The cost
    is about n*m*(256 + r)/64 byte operations for an r x n by n x m
    product in n/8 vectorized steps, whatever the density.
    """
    if left.shape[1] <= _MATMUL_WIDTH:
        return left @ right
    groups = -(-left.shape[1] // 8)
    keys = np.packbits(left, axis=1, bitorder="little")
    packed = np.packbits(right, axis=1)
    width = packed.shape[1]
    rows = np.zeros((groups, 8, width), dtype=np.uint8)
    rows.reshape(groups * 8, width)[: len(packed)] = packed
    table = np.zeros((256, width), dtype=np.uint8)
    out = np.zeros((len(left), width), dtype=np.uint8)
    for g in range(groups):
        for b in range(8):
            np.bitwise_or(table[: 1 << b], rows[g, b], out=table[1 << b : 2 << b])
        out |= table[keys[:, g]]
    return np.unpackbits(out, axis=1, count=right.shape[1]).view(bool)


def _two_core(adjacency: np.ndarray) -> np.ndarray:
    """Positions of the 2-core: vertices left after repeatedly removing
    those of degree at most 1, none of which lies on a cycle."""
    alive = np.ones(len(adjacency), dtype=bool)
    degrees = adjacency.sum(axis=1)
    while True:
        drop = alive & (degrees <= 1)
        if not _any(drop):
            return alive.nonzero()[0]
        alive &= ~drop
        degrees -= adjacency[drop].sum(axis=0)


def _bfs_girth(adjacency: np.ndarray) -> int | float:
    """Per-root BFS on a boolean adjacency, for graphs already known to
    have no 3- or 4-cycle.

    Every cycle lies in the 2-core, so the search runs there, and an
    empty core means an acyclic graph without any search.  A non-tree edge
    joining vertices at depths d1 and d2 exhibits a closed walk of length
    d1+d2+1, which always contains a cycle no longer than that; minimizing
    over all roots is exact.  Girth 5 is the least left, so finding it
    ends the search.
    """
    core = _two_core(adjacency)
    neighbors = [
        row.nonzero()[0].tolist() for row in adjacency.take(core, axis=0).take(core, axis=1)
    ]
    best: int | float = math.inf
    n = len(core)
    for root in range(n):
        depth = [-1] * n
        parent = [-1] * n
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    candidate = depth[u] + depth[w] + 1
                    if candidate < best:
                        best = candidate
        if best == 5:
            break
    return best


class ClassGraph:
    """A graph given by its classes of twins, with every invariant the
    harness reads computed on first read.

    ``q`` is the c x c adjacency between distinct classes (empty
    diagonal), ``sizes`` the member counts, ``clique`` the classes whose
    members are adjacent to each other, and ``class_of`` each element's
    class, -1 off the graph.  Elements are named by their element or
    carrier indices, and the vertices are those with a class, in
    ascending order.  ``Q @ Q`` is computed once, for diameter and girth.
    """

    def __init__(
        self, q: np.ndarray, sizes: np.ndarray, clique: np.ndarray, class_of: np.ndarray
    ) -> None:
        self.q, self.sizes, self.clique, self.class_of = q, sizes, clique, class_of

    @cached_fact
    def _joined(self) -> np.ndarray:
        """Q @ Q: the pairs of classes joined by a path of length 2."""
        return _boolean_product(self.q, self.q)

    @cached_fact
    def vertices(self) -> np.ndarray:
        return (self.class_of >= 0).nonzero()[0]

    @cached_fact
    def vertex_count(self) -> int:
        return int(self.sizes.sum())

    @cached_fact
    def diameter(self) -> int | None:
        """Largest eccentricity; None for the empty graph, 0 for one vertex.

        A path between different classes maps to a walk in the quotient Q
        and back, so their distance is their distance in Q; two members of
        one class are at distance 1 in a clique class and 2, through any
        common neighbour, in an independent one.  Hence diam G = max(diam
        Q, 2 if some independent class has two or more members, 1 if some
        clique class has).  diam Q comes from the boolean reach sets
        "within d steps" of every class, grown by one boolean matrix
        product per step on the rows not yet full until every row is full;
        the number of steps is the diameter.  The first step's product,
        (Q + I) @ Q, is Q @ Q + Q, and Q is in the reach already.  No
        bound on the step count is assumed, so a diameter above 3 is
        reported as it is.  Raises DisconnectedGraphError on a
        disconnected graph rather than returning a value, since that would
        falsify the connectivity invariant: there a class has no neighbour
        (and is not a lone clique), or some row stops growing before it is
        full.
        """
        q, sizes, clique = self.q, self.sizes, self.clique
        n = self.vertex_count
        if n == 0:
            return None
        if n == 1:
            return 0
        if len(q) == 1 and clique[0]:
            return 1
        if not _all(q.any(axis=1)):
            raise DisconnectedGraphError(
                "zero-divisor graph has an isolated vertex; connectivity invariant violated"
            )
        reach = q.copy()
        reach.flat[:: len(reach) + 1] = True  # Q + I
        open_rows = ~reach.all(axis=1)
        before = reach[open_rows]
        steps = 1
        while len(before):
            # A complete quotient has no open row, so reads no product.
            product = self._joined[open_rows] if steps == 1 else _boolean_product(before, q)
            grown = before | product
            if _any((grown == before).all(axis=1)):
                raise DisconnectedGraphError(
                    "zero-divisor graph is disconnected; connectivity invariant violated"
                )
            steps += 1
            before = grown[~grown.all(axis=1)]
        if steps == 1 and _any((sizes > 1) & ~clique):
            return 2
        return steps

    @cached_fact
    def girth(self) -> int | float:
        """Length of a shortest cycle, or math.inf for an acyclic graph.

        Members of an independent class are never adjacent, so a triangle
        has two members in one clique class (which then has a third member
        or a neighbour), or lies across three classes: an edge of Q whose
        ends have a common neighbour.  Without one, a clique class has one
        member, or two and no neighbour, and a 4-cycle of G either crosses
        four classes, a 4-cycle of Q (two classes with two common
        neighbours), or has two opposite vertices in one class, which
        happens iff some class of two or more members has degree at least
        2 in G.  Both tests on Q read the boolean product Q @ Q, on one
        thread and exact: some pair of distinct classes has two common
        neighbours iff the paths of length 2 between distinct classes, sum
        of deg*(deg-1)/2, outnumber the pairs they join.  When neither
        holds, no class of two or more members lies on a cycle, so G and Q
        have the same cycles, and a BFS on Q decides a girth of at least 5
        or infinity.
        """
        q, sizes, clique = self.q, self.sizes, self.clique
        if _any(clique & ((sizes >= 3) | ((sizes == 2) & q.any(axis=1)))):
            return 3
        joined = self._joined
        if _any(joined & q):
            return 3
        degrees = q.sum(axis=1)
        paths = int((degrees * (degrees - 1)).sum()) // 2
        pairs = (np.count_nonzero(joined) - np.count_nonzero(joined.diagonal())) // 2
        twin_corner = (sizes > 1) & (q @ sizes >= 2)
        if paths > pairs or _any(twin_corner):
            return 4
        return _bfs_girth(q)

    @cached_fact
    def bipartition(self) -> tuple[int, int] | None:
        """Part sizes (m, n) if the graph is complete bipartite, else None.

        In a complete bipartite graph the parts are the neighbourhood of
        any vertex and the rest, so class 0's neighbourhood and
        non-neighbourhood are tested: both nonempty, no edge inside
        either, every cross pair an edge.  Two members of a clique class
        are adjacent with the same closed neighbourhood, which in a
        complete bipartite graph happens only in K_{1,1}.  A single vertex
        is not bipartite here, and neither is a graph with a triangle,
        which the girth shows.
        """
        q, sizes, clique = self.q, self.sizes, self.clique
        n = self.vertex_count
        if n <= 1 or self.girth == 3:
            return None
        if _any(clique & (sizes > 1)):
            return (1, 1) if n == 2 else None
        near = q[0]
        far = ~near
        if not _any(near):
            return None
        # The rows of each part, read against the part's own columns.
        near_rows = q.take(near.nonzero()[0], axis=0)
        far_rows = q.take(far.nonzero()[0], axis=0)
        if _any(near_rows & near) or _any(far_rows & far):
            return None
        if not _all(far_rows | far):
            return None
        return tuple(sorted((int(sizes[far].sum()), int(sizes[near].sum()))))  # type: ignore[return-value]

    @cached_fact
    def universal_classes(self) -> np.ndarray:
        """Mask of the classes whose members are adjacent to every other
        vertex: the class meets every other class, and its members meet
        each other, being one or a clique."""
        meets_all = self.q.sum(axis=1) == len(self.q) - 1
        return meets_all & (self.clique | (self.sizes == 1))

    @cached_fact
    def universal_vertices(self) -> tuple[int, ...]:
        """Vertices adjacent to every other vertex: the members of the
        universal classes."""
        if not _any(self.universal_classes):
            return ()
        # A class of -1 is in none.
        in_universal = np.append(self.universal_classes, False)[self.class_of]
        return tuple(in_universal.nonzero()[0].tolist())

    @cached_fact
    def complete(self) -> bool:
        """All distinct vertex pairs are adjacent (vacuous for <= 1): every
        class is universal."""
        return _all(self.universal_classes)

    @cached_fact
    def square_zero(self) -> bool:
        """Every vertex annihilates every vertex, itself included: the
        graph is complete and every class is a clique.  On a ring's
        annihilator or key classes, where a clique's members square to
        zero, and with 0 absorbing, which ``RingFacts.annihilator_classes``
        checks on the base ring, this is Z(R)^2 = 0."""
        return self.complete and _all(self.clique)

    @cached_fact
    def edge_count(self) -> int:
        """|A|*|B| for each adjacent pair of classes, |A|(|A|-1)/2 inside
        each clique class A."""
        s = self.sizes.astype(np.int64)
        return int(s @ self.q @ s) // 2 + int((s * (s - 1))[self.clique].sum()) // 2


def diameter(graph: ZDGraph) -> int | None:
    """``graph.classes.diameter``, kept as a function because the sweep's
    diameter calls on a ``ZDGraph`` are what the benchmark's tracer counts.
    Raises DisconnectedGraphError on a disconnected graph."""
    return graph.classes.diameter


def graph_invariants(graph: ZDGraph) -> ClassGraph:
    """``graph.classes``, the object that computes and caches every graph
    fact; kept as a function because the benchmark's graph workload calls
    it."""
    return graph.classes


def export_dot(classes: ClassGraph, label: Callable[[int], str]) -> str:
    """Deterministic DOT text of the graph of ``classes``: nodes in
    ascending vertex order, named by ``label``, each edge once from its
    earlier end, each name a quoted DOT string with its backslashes and
    quotes escaped.

    Distinct vertices are joined when their classes are adjacent in ``q``
    or are one clique class.  Each vertex's later neighbours are read off
    its class's row of ``q`` at the later vertices' classes, so no
    adjacency over the vertices is built.
    """
    q, clique = classes.q, classes.clique
    of = classes.class_of[classes.vertices]
    labels = map(label, classes.vertices.tolist())
    names = ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in labels]
    lines = ["graph {", *(f"  {name};" for name in names)]
    for u, a in enumerate(of.tolist()):
        later = of[u + 1 :]
        row = q[a].take(later)
        if clique[a]:
            row |= later == a
        lines += (f"  {names[u]} -- {names[v]};" for v in (row.nonzero()[0] + u + 1).tolist())
    return "\n".join(lines) + "\n}\n"
