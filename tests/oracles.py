"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they validate: subsets, and a
closure of frozensets built with one ``np.unique`` per element and per
pair of ideals, instead of the packed membership rows and mask scatters
of the ideal lattice, a complement scan over the ideal lattice instead of
primitive idempotents for primes, per-source BFS, Floyd-Warshall and
reach products over the whole adjacency instead of reach products on the
false-twin quotient for the diameter, a per-root BFS, exhaustive cycle
enumeration and the common-neighbour counts A @ A of the whole graph
instead of the quotient's triangle, 4-cycle and twin-class degree rules
for the girth, element-by-element gathers instead of broadcast position
tables for the duplication and idealization tables, per-element or
per-edge loops instead of carrier masks and boolean products for the
zero-divisor classification, P4.13's joint annihilators and universal
vertices, a BFS two-colouring and neighbour-set loops instead of
adjacency blocks for the complete bipartition and the duplication's
structure checks, and a whole-table mask, ``np.ix_`` gathers and an
off-diagonal ``eye`` mask instead of the one blocked zero-product pass for
Z(R), the graph adjacency, Z(R)^2 = 0 and completeness.  A boolean
product is an OR of ANDs cell by cell instead of numpy's boolean matmul or
the four Russians, and a duplication's key classes come from ``np.unique``
over its keys instead of a count over the whole key space; the base
ring's annihilator relation is read off ``mul_table`` at one
representative per class instead of off its graph's classes.  Minimal
primes are the primes that strictly contain no other member set, instead
of containment counts over mask rows; the projection kernels are built
with one ``index_of`` per member instead of index arithmetic; and a sweep
report's JSON is ``json.dumps`` of the report as a dict instead of the
report's own writer.

The library builds no idealization ring, measures no distance between two
vertices, and has no joint annihilator, product-form image of one element,
check of the product-form embedding, or per-vertex neighbour list; the
tests read those from here: the idealization as a ring on the gathered
tables, a distance from the Floyd-Warshall matrix, Ann(a, b) as two
``annihilator`` calls intersected, (r, i) -> (r, r+i) from ``pair_of``,
the embedding checked on the duplication's tables, and neighbour lists
and edges from the adjacency rows.  The library writes a graph's DOT from
its classes; ``adjacency_dot`` writes it from a materialized adjacency.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations

import networkx as nx
import numpy as np

from amalgam_zdg import (
    DisconnectedGraphError,
    FiniteRing,
    ZDGraph,
    Ideal,
    all_ideals,
    annihilator,
    is_ideal,
    prime_ideals,
    zero_divisors,
)
from amalgam_zdg.graphs import _boolean_product


def brute_zero_divisors(ring: FiniteRing) -> frozenset[int]:
    """Definitional double loop over the multiplication table."""
    out = set()
    for x in ring.elements():
        for y in ring.elements():
            if y != ring.zero and ring.mul(x, y) == ring.zero:
                out.add(x)
                break
    return frozenset(out)


def full_zero_divisor_mask(ring: FiniteRing) -> np.ndarray:
    """Z(R) as a boolean mask, read off the whole order x order mask of
    x*y == 0."""
    mask = ring.mul_table == ring.zero
    mask[:, ring.zero] = False
    return mask.any(axis=1)


def full_mask_zero_divisors(ring: FiniteRing) -> frozenset[int]:
    """Z(R) read off the whole order x order mask of x*y == 0."""
    return frozenset(np.flatnonzero(full_zero_divisor_mask(ring)).tolist())


def gather_adjacency(ring: FiniteRing) -> tuple[list[int], np.ndarray]:
    """The zero-divisor graph's vertices and adjacency, gathered from the
    table with ``np.ix_`` over the nonzero zero-divisors."""
    verts = sorted(full_mask_zero_divisors(ring) - {ring.zero})
    adj = ring.mul_table[np.ix_(verts, verts)] == ring.zero
    np.fill_diagonal(adj, False)
    return verts, adj


def gather_zset_square_zero(ring: FiniteRing) -> bool:
    """Z(R)^2 = 0 from an ``np.ix_`` gather over every zero-divisor."""
    zd = sorted(full_mask_zero_divisors(ring))
    return bool((ring.mul_table[np.ix_(zd, zd)] == ring.zero).all())


def eye_mask_is_complete(graph: ZDGraph) -> bool:
    """Every off-diagonal entry of the adjacency set, read through an
    n x n ``eye`` mask."""
    n = graph.vertex_count
    if n <= 1:
        return True
    return bool(graph.adjacency[~np.eye(n, dtype=bool)].all())


def neighbour_lists(graph: ZDGraph) -> list[list[int]]:
    """Neighbour positions of every vertex, one adjacency row each."""
    return [np.flatnonzero(row).tolist() for row in graph.adjacency]


def vertex_position(graph: ZDGraph, elem: int) -> int:
    """The position of the vertex ``elem`` (an element index) in the
    vertex list; ValueError for an element that is not a vertex."""
    return list(graph.vertices).index(elem)


def edge_positions(graph: ZDGraph) -> list[tuple[int, int]]:
    """Each edge once, as a position pair (u, v) with u < v, in row-major
    order of the adjacency's upper triangle."""
    return [(int(u), int(v)) for u, v in np.argwhere(np.triu(graph.adjacency))]


def adjacency_dot(graph: ZDGraph) -> str:
    """The DOT text ``export_dot`` writes, from a materialized graph of a
    ring: nodes in vertex order named by the ring's labels, then each edge
    of the adjacency's upper triangle, escaped by ``json.dumps``, which
    escapes a backslash and a quote as DOT does and leaves the ASCII
    labels of this library as they are."""
    names = [json.dumps(graph.ring.labels[v]) for v in graph.vertices]
    lines = ["graph {", *(f"  {name};" for name in names)]
    lines += (f"  {names[u]} -- {names[v]};" for u, v in edge_positions(graph))
    return "\n".join(lines) + "\n}\n"


def subset_scan_ideals(ring: FiniteRing) -> list[frozenset[int]]:
    """Every ideal found by scanning all subsets containing zero.

    Exponential; intended for rings of order at most 8.
    """
    rest = [e for e in ring.elements() if e != ring.zero]
    found = []
    for size in range(len(rest) + 1):
        for combo in combinations(rest, size):
            s = frozenset(combo) | {ring.zero}
            if _is_ideal_set(ring, s):
                found.append(s)
    return sorted(found, key=lambda m: (len(m), tuple(sorted(m))))


def unique_closure_ideals(ring: FiniteRing) -> list[frozenset[int]]:
    """Every ideal as the closure of the principal ideals under pairwise
    sum, with each principal ideal and each sum read through ``np.unique``
    into a frozenset; sorted by (size, member indices)."""

    def sum_sets(left: frozenset[int], right: frozenset[int]) -> frozenset[int]:
        block = ring.add_table[np.ix_(sorted(left), sorted(right))]
        return frozenset(np.unique(block).tolist())

    ideals = {frozenset(np.unique(ring.mul_table[:, a]).tolist()) for a in ring.elements()}
    frontier = list(ideals)
    while frontier:
        fresh = []
        for left in frontier:
            for right in list(ideals):
                s = sum_sets(left, right)
                if s not in ideals:
                    ideals.add(s)
                    fresh.append(s)
        frontier = fresh
    return sorted(ideals, key=lambda m: (len(m), tuple(sorted(m))))


def _is_ideal_set(ring: FiniteRing, s: frozenset[int]) -> bool:
    for a in s:
        for b in s:
            if ring.add(a, b) not in s:
                return False
    for r in ring.elements():
        for m in s:
            if ring.mul(r, m) not in s:
                return False
    return True


def complement_scan_is_prime(ring: FiniteRing, members) -> bool:
    """True iff the set is a proper ideal whose complement is closed under
    multiplication (ab in P implies a in P or b in P)."""
    s = frozenset(members)
    if len(s) == ring.order or not is_ideal(ring, s):
        return False
    complement = sorted(set(ring.elements()) - s)
    mask = np.zeros(ring.order, dtype=bool)
    mask[sorted(s)] = True
    return not mask[ring.mul_table[np.ix_(complement, complement)]].any()


def complement_scan_primes(ring: FiniteRing) -> list[frozenset[int]]:
    """Every prime ideal, found by testing each ideal of the closure-built
    lattice with the complement scan; sorted by (size, member indices)."""
    return [
        ideal.members
        for ideal in all_ideals(ring)
        if complement_scan_is_prime(ring, ideal.members)
    ]


def minimal_primes(ring: FiniteRing) -> list[Ideal]:
    """Prime ideals that are minimal under inclusion: ``prime_ideals``
    with every member set that strictly contains another one dropped."""
    primes = [p.members for p in prime_ideals(ring)]
    return [Ideal(ring, m) for m in primes if not any(q < m for q in primes)]


def floyd_warshall_distances(graph: ZDGraph) -> np.ndarray:
    """Full all-pairs distance matrix (math.inf for unreachable pairs)."""
    n = graph.vertex_count
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    dist[graph.adjacency] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def floyd_warshall_distance(graph: ZDGraph, u: int, v: int) -> int | None:
    """Shortest-path length between the vertices u and v (element indices)
    from the all-pairs matrix; None if unreachable.  ValueError for an
    element that is not a vertex."""
    d = floyd_warshall_distances(graph)[vertex_position(graph, u), vertex_position(graph, v)]
    return None if math.isinf(d) else int(d)


def floyd_warshall_diameter(graph: ZDGraph) -> int | None:
    if graph.vertex_count == 0:
        return None
    dist = floyd_warshall_distances(graph)
    worst = dist.max()
    return None if math.isinf(worst) else int(worst)


def enumerate_cycles_girth(graph: ZDGraph) -> int | float:
    """Minimum length over all simple cycles, via exhaustive enumeration."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.vertex_count))
    g.add_edges_from(edge_positions(graph))
    best: int | float = math.inf
    for cycle in nx.simple_cycles(g):
        best = min(best, len(cycle))
    return best


def bfs_diameter(graph: ZDGraph) -> int | None:
    """Largest eccentricity by one BFS per source; None for the empty graph
    and for a disconnected one."""
    n = graph.vertex_count
    if n == 0:
        return None
    neighbors = neighbour_lists(graph)
    best = 0
    for source in range(n):
        depth = [-1] * n
        depth[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    queue.append(w)
        if min(depth) < 0:
            return None
        best = max(best, max(depth))
    return best


def bfs_girth(graph: ZDGraph) -> int | float:
    """Shortest cycle by a BFS from every root: a non-tree edge between
    depths d1 and d2 closes a walk of length d1+d2+1 containing a cycle no
    longer than that, and the minimum over all roots is exact."""
    best: int | float = math.inf
    n = graph.vertex_count
    neighbors = neighbour_lists(graph)
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
                    best = min(best, depth[u] + depth[w] + 1)
    return best


def reach_product_diameter(graph: ZDGraph) -> int | None:
    """Largest eccentricity from boolean reach products over all of G:
    the "within d steps" sets of every vertex, started from A | I and
    grown by one four-Russians product with A per step until every row is
    full; None for the empty graph, DisconnectedGraphError when some row
    stops growing short of full."""
    n = graph.vertex_count
    if n == 0:
        return None
    adj = graph.adjacency
    reach = adj | np.eye(n, dtype=bool)
    steps = 0 if n == 1 else 1
    open_rows = np.flatnonzero(~reach.all(axis=1))
    while open_rows.size:
        before = reach[open_rows]
        grown = before | _boolean_product(before, adj)
        if (grown == before).all(axis=1).any():
            raise DisconnectedGraphError("a reach row stopped growing")
        reach[open_rows] = grown
        steps += 1
        open_rows = open_rows[~grown.all(axis=1)]
    return steps


def square_girth(graph: ZDGraph) -> int | float:
    """Girth from the common-neighbour counts A @ A of all of G (integer
    matmul): 3 when an edge has a common neighbour, 4 when two distinct
    vertices have two, otherwise the per-root BFS oracle."""
    counts = graph.adjacency.astype(np.int64)
    shared = counts @ counts
    if (shared[graph.adjacency] > 0).any():
        return 3
    np.fill_diagonal(shared, 0)
    if (shared >= 2).any():
        return 4
    return bfs_girth(graph)


def gather_pair_tables(base: FiniteRing, members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The addition table and the duplication's and the idealization's
    multiplication tables over the carrier base x members, (r, i) at index
    r*k + t for i = members[t], by gathering every pair's coordinates from
    the base tables element by element.  The second coordinate of
    (r, i)(s, j) is (r+i)j + si in the duplication and rj + si in the
    idealization, the order of operations the library's tables use, so on
    a table that is not a ring's these are the two tables P2.1b compares;
    in a ring (r+i)j + si = rj + si + ij."""
    n, k = base.order, len(members)
    rv = np.repeat(np.arange(n), k)
    iv = np.tile(np.array(sorted(members), dtype=np.intp), n)
    pos = np.full(n, -1, dtype=np.intp)
    pos[sorted(members)] = np.arange(k)
    add_t, mul_t = base.add_table, base.mul_table
    add_first = add_t[rv[:, None], rv[None, :]].astype(np.intp)
    add_second = add_t[iv[:, None], iv[None, :]]
    mul_first = mul_t[rv[:, None], rv[None, :]].astype(np.intp)
    # Row (r, i), column (s, j): s*i, (r+i)*j and r*j.
    si = mul_t[rv[None, :], iv[:, None]]
    dup_second = add_t[mul_t[add_t[rv, iv][:, None], iv[None, :]], si]
    ideal_second = add_t[mul_t[rv[:, None], iv[None, :]], si]
    for second in (add_second, dup_second, ideal_second):
        assert (pos[second] >= 0).all()
    return (
        add_first * k + pos[add_second],
        mul_first * k + pos[dup_second],
        mul_first * k + pos[ideal_second],
    )


def gather_idealization(base: FiniteRing, ideal) -> FiniteRing:
    """The square-zero idealization (r,m)(s,n) = (rs, rn+sm) on the
    duplication's carrier, as a ring on the gathered tables."""
    members = sorted(ideal.members)
    k = len(members)
    add, _, mul = gather_pair_tables(base, members)
    labels = [f"({base.labels[r]},{base.labels[i]})" for r in base.elements() for i in members]
    zero = base.zero * k + members.index(base.zero)
    one = base.one * k + members.index(base.zero)
    name = f"{base.spec_name} idealization {base.format_subset(members)}"
    return FiniteRing(base.order * k, add, mul, zero, one, labels, name)


def verify_product_embedding(amalgam) -> list[str]:
    """Exhaustively check the product-form embedding (r,i) -> (r, r+i).

    Empty list iff the map is injective, lands exactly on
    {(a,b) : b-a in ideal}, and preserves both operations into R x R.
    """
    base, ring, members = amalgam.base, amalgam.ring, amalgam.members
    f1 = np.repeat(np.arange(base.order), len(members))
    f2 = base.add_table[f1, np.tile(members, base.order)]
    out: list[str] = []

    images = set(zip(f1.tolist(), f2.tolist()))
    if len(images) != ring.order:
        out.append("embedding is not injective")
    member_mask = np.zeros(base.order, dtype=bool)
    member_mask[members] = True
    expected = {
        (int(x), int(y))
        for x in range(base.order)
        for y in range(base.order)
        if member_mask[base.sub(y, x)]
    }
    if images != expected:
        out.append("embedding image differs from {(a,b) : b-a in ideal}")

    added = ring.add_table
    if not (
        np.array_equal(f1[added], base.add_table[f1[:, None], f1[None, :]])
        and np.array_equal(f2[added], base.add_table[f2[:, None], f2[None, :]])
    ):
        out.append("embedding does not preserve addition")
    multiplied = ring.mul_table
    if not (
        np.array_equal(f1[multiplied], base.mul_table[f1[:, None], f1[None, :]])
        and np.array_equal(f2[multiplied], base.mul_table[f2[:, None], f2[None, :]])
    ):
        out.append("embedding does not preserve multiplication")
    return out


def kernel_ideals(amalgam) -> tuple[Ideal, Ideal]:
    """The projection kernels O1 = {(0, i)} and O2 = {(-i, i)} as ideals
    of the duplication ring, one ``index_of`` per member."""
    base = amalgam.base
    o1 = frozenset(amalgam.index_of(base.zero, i) for i in amalgam.members.tolist())
    o2 = frozenset(amalgam.index_of(base.neg(i), i) for i in amalgam.members.tolist())
    return Ideal(amalgam.ring, o1), Ideal(amalgam.ring, o2)


def product_rep(amalgam, e: int) -> tuple[int, int]:
    """Image (r, r+i) of a carrier element under the product-form embedding."""
    r, i = amalgam.pair_of(e)
    return r, amalgam.base.add(r, i)


def annihilator_pair(ring: FiniteRing, a: int, b: int) -> Ideal:
    """Ann(a, b) = Ann(a) ∩ Ann(b), from two ``annihilator`` calls."""
    return Ideal(ring, annihilator(ring, a).members & annihilator(ring, b).members)


def loop_classify_zero_divisors(amalgam) -> tuple[frozenset[int], ...]:
    """The four sets t1..t4 of the zero-divisor classification, built
    element by element with ``index_of``."""
    base = amalgam.base
    members = amalgam.members.tolist()
    base_zd = zero_divisors(base)
    zero = base.zero

    t1 = frozenset(amalgam.index_of(zero, i) for i in members)
    t2 = frozenset(amalgam.index_of(base.neg(i), i) for i in members)
    t3 = frozenset(
        amalgam.index_of(x, i) for x in base_zd if x != zero for i in members
    )

    nonzero_members = [j for j in members if j != zero]
    if nonzero_members:
        killed = (base.mul_table[nonzero_members] == zero).any(axis=0)
    else:
        killed = np.zeros(base.order, dtype=bool)
    t4 = set()
    for x in range(base.order):
        if x in base_zd:
            continue
        for i in members:
            s = base.add(x, i)
            if s != zero and killed[s]:
                t4.add(amalgam.index_of(x, i))
    return t1, t2, t3, frozenset(t4)


def edge_loop_share_annihilator(ring: FiniteRing, graph: ZDGraph) -> bool:
    """True iff Ann(a, b) != {0} for every edge {a, b}, one
    ``annihilator_pair`` call per edge."""
    for u, v in edge_positions(graph):
        a, b = graph.vertices[u], graph.vertices[v]
        if annihilator_pair(ring, a, b).members == {ring.zero}:
            return False
    return True


def neighbor_count_universal_vertices(graph: ZDGraph) -> tuple[int, ...]:
    """Vertices whose neighbour list holds every other vertex."""
    n = graph.vertex_count
    return tuple(
        graph.vertices[u]
        for u, neighbors in enumerate(neighbour_lists(graph))
        if len(neighbors) == n - 1
    )


def bfs_complete_bipartition(graph: ZDGraph) -> tuple[int, int] | None:
    """Part sizes of a complete bipartite graph, else None, by a BFS
    two-colouring of every component followed by a cross-block test."""
    n = graph.vertex_count
    if n <= 1:
        return None
    neighbors = neighbour_lists(graph)
    color = [-1] * n
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
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
    return tuple(sorted((len(part0), len(part1))))


def loop_structure_checks(amalgam, base_graph: ZDGraph, dup_graph: ZDGraph):
    """The names of the duplication's failing structure checks, as
    ``structure_checks`` gives them, with neighbour sets per regular ideal
    member and one ``mul`` call per base edge."""
    base = amalgam.base
    ring = amalgam.ring
    members = amalgam.members.tolist()
    if len(members) < 2:
        return []
    zero = base.zero
    t1_nonzero = sorted(amalgam.index_of(zero, i) for i in members if i != zero)
    t2_nonzero = sorted(amalgam.index_of(base.neg(i), i) for i in members if i != zero)
    crossings = all(
        ring.mul(a, b) == ring.zero for a in t1_nonzero for b in t2_nonzero
    )

    base_zd = zero_divisors(base)
    exclusive = True
    t1_set, t2_set = set(t1_nonzero), set(t2_nonzero)
    dup_neighbors = neighbour_lists(dup_graph)
    for i in members:
        if i in base_zd:
            continue
        v1 = amalgam.index_of(zero, i)
        v2 = amalgam.index_of(base.neg(i), i)
        nbrs1 = {dup_graph.vertices[p] for p in dup_neighbors[vertex_position(dup_graph, v1)]}
        nbrs2 = {dup_graph.vertices[p] for p in dup_neighbors[vertex_position(dup_graph, v2)]}
        if not (nbrs1 <= t2_set and nbrs2 <= t1_set):
            exclusive = False
            break

    embeds = True
    dup_vertices = set(dup_graph.vertices)
    images = {x: amalgam.index_of(x, zero) for x in base_graph.vertices}
    if not set(images.values()) <= dup_vertices:
        embeds = False
    else:
        for x, neighbors in zip(base_graph.vertices, neighbour_lists(base_graph)):
            for b in neighbors:
                y = base_graph.vertices[b]
                if ring.mul(images[x], images[y]) != ring.zero:
                    embeds = False
                    break
            if not embeds:
                break

    return [
        name
        for name, holds in (
            ("crossings", crossings),
            ("exclusive neighbors", exclusive),
            ("base embedding", embeds),
        )
        if not holds
    ]


def brute_boolean_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(left @ right) > 0 for boolean matrices, one OR of ANDs per cell."""
    out = np.zeros((left.shape[0], right.shape[1]), dtype=bool)
    for i in range(left.shape[0]):
        for j in range(right.shape[1]):
            out[i, j] = any(bool(a and b) for a, b in zip(left[i], right[:, j]))
    return out


def representative_relation(ring: FiniteRing, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes of ``cls`` that have members, ascending, and whether
    the members of two of them multiply to zero, read off ``mul_table``
    at one representative each, its first member."""
    present, first = np.unique(cls, return_index=True)
    return present, ring.mul_table[np.ix_(first, first)] == ring.zero


def unique_key_classes(cls, rel, first, second):
    """``theorems._key_classes`` as (q, sizes, clique, class_of), with the
    keys present numbered by ``np.unique``."""
    present, key_of = np.unique(cls[first] * len(rel) + cls[second], return_inverse=True)
    key_of = key_of.ravel()
    a, b = np.divmod(present, len(rel))
    related = rel[np.ix_(a, a)] & rel[np.ix_(b, b)]
    nonzero = present != 0
    on_graph = np.flatnonzero(nonzero & related[:, nonzero].any(axis=1))
    q = related[np.ix_(on_graph, on_graph)]
    clique = q.diagonal().copy()
    np.fill_diagonal(q, False)
    sizes = np.bincount(key_of, minlength=len(present))[on_graph]
    position = np.full(len(present), -1, dtype=np.intp)
    position[on_graph] = np.arange(len(on_graph))
    return q, sizes, clique, position[key_of]


def report_json_dict(report, generated_at: str | None = None) -> dict:
    """A sweep report as the dict its JSON encodes."""
    instances = []
    for record in report.instances:
        outcomes = [o.to_json_dict() for o in record.outcomes]
        instances.append({"ring": record.ring, "ideal": list(record.ideal), "outcomes": outcomes})
    data = {
        "family": list(report.family),
        "ideal_filter": report.ideal_filter,
        "instances": instances,
        "totals": report.totals,
        "invariant_violations": list(report.invariant_violations),
    }
    if generated_at is not None:
        data["generated_at"] = generated_at
    return data


def dumps_report(report, generated_at: str | None = None) -> str:
    """A sweep report's JSON text from ``json.dumps`` with sorted keys and
    an indent of 2, through its pure-Python encoder."""
    return json.dumps(report_json_dict(report, generated_at), indent=2, sort_keys=True) + "\n"
