from __future__ import annotations

import math
import time
import tracemalloc
from functools import cached_property

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam_zdg import (
    DisconnectedGraphError,
    FiniteRing,
    Ideal,
    RingFacts,
    ZDGraph,
    amalgamated_duplication,
    build_graph,
    diameter,
    export_dot,
    graph_invariants,
    make_zn,
    parse_ideal_spec,
    parse_ring_spec,
    sweep,
    zero_divisors,
)
from amalgam_zdg import graphs, theorems
from oracles import (
    bfs_complete_bipartition,
    brute_boolean_product,
    bfs_diameter,
    bfs_girth,
    enumerate_cycles_girth,
    floyd_warshall_diameter,
    floyd_warshall_distance,
    product_rep,
    reach_product_diameter,
    square_girth,
)

SAMPLE_SPECS = [
    ("Z6", "gen(3)"),
    ("Z6", "gen(2)"),
    ("Z8", "gen(4)"),
    ("Z8", "gen(2)"),
    ("Z4", "full"),
    ("Z9", "gen(3)"),
    ("Z3", "full"),
    ("Z2", "full"),
    ("Z2xZ2", "gen((1,0))"),
    ("Z2xZ3", "full"),
    ("Z12", "gen(4)"),
]


def dup_graph(spec, ideal_spec):
    ring = parse_ring_spec(spec)
    a = amalgamated_duplication(ring, parse_ideal_spec(ring, ideal_spec))
    return a, build_graph(a.ring)


def synthetic(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return ZDGraph(range(n), [str(v) for v in range(n)], adj)


def path(n, first=0):
    return [(v, v + 1) for v in range(first, first + n - 1)]


def cycle(n):
    return synthetic(n, path(n) + [(n - 1, 0)])


def k33():
    return synthetic(6, [(u, v) for u in range(3) for v in range(3, 6)])


def star():
    return synthetic(5, [(0, v) for v in range(1, 5)])


def triangle_with_tail():
    """Triangle 0-1-2 with the path 2-3-4 hanging off it."""
    return synthetic(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])


def square_with_pendants():
    """The 4-cycle 0-1-2-3 with a leaf on each vertex: no two vertices are
    twins, so the 4-cycle is one of the quotient's own."""
    return synthetic(8, path(4) + [(3, 0), (0, 4), (1, 5), (2, 6), (3, 7)])


@pytest.fixture
def bfs_girth_calls(monkeypatch):
    calls = []
    fallback = graphs._bfs_girth

    def spy(adjacency):
        calls.append(adjacency)
        return fallback(adjacency)

    monkeypatch.setattr(graphs, "_bfs_girth", spy)
    return calls


def sample_graphs():
    out = []
    for spec, ideal_spec in SAMPLE_SPECS:
        a, g = dup_graph(spec, ideal_spec)
        out.append(build_graph(a.base))
        out.append(g)
    return out


class TestBuild:
    def test_z6_graph(self):
        g = build_graph(make_zn(6))
        assert g.vertices == (2, 3, 4)
        assert sorted((g.vertices[u], g.vertices[v]) for u, v in g.edge_positions()) == [
            (2, 3),
            (3, 4),
        ]

    def test_klein_ring_graph_is_one_edge(self):
        g = build_graph(parse_ring_spec("Z2xZ2"))
        assert g.vertex_count == 2 and g.classes.edge_count == 1
        assert g.classes.complete

    def test_domains_have_empty_graphs(self):
        for n in (2, 3, 5, 7, 13):
            assert build_graph(make_zn(n)).vertex_count == 0

    def test_no_self_loops_even_for_square_zero_elements(self):
        g = build_graph(make_zn(4))  # 2*2 = 0 but 2 is a single vertex
        assert g.vertex_count == 1 and g.classes.edge_count == 0


class TestValidation:
    """The symmetric, empty-diagonal check is a correctness check: a graph
    read off a non-commutative table must be refused."""

    @staticmethod
    def two_tiles_and_a_ragged_one():
        n = 2 * math.isqrt(graphs._BLOCK_CELLS) + 3
        return n, np.zeros((n, n), dtype=bool)

    @pytest.mark.parametrize(
        "corner", ["last-above", "last-below", "first-row", "first-column"]
    )
    def test_one_asymmetric_entry_is_refused(self, corner):
        n, adj = self.two_tiles_and_a_ragged_one()
        u, v = {
            "last-above": (n - 2, n - 1),
            "last-below": (n - 1, n - 2),
            "first-row": (0, n - 1),
            "first-column": (n - 1, 0),
        }[corner]
        adj[u, v] = True
        with pytest.raises(ValueError, match="symmetric with an empty diagonal"):
            ZDGraph(range(n), [str(x) for x in range(n)], adj)
        adj[v, u] = True
        assert ZDGraph(range(n), [str(x) for x in range(n)], adj).vertex_count == n

    def test_one_diagonal_entry_is_refused(self):
        n, adj = self.two_tiles_and_a_ragged_one()
        adj[n - 1, n - 1] = True
        with pytest.raises(ValueError, match="symmetric with an empty diagonal"):
            ZDGraph(range(n), [str(x) for x in range(n)], adj)

    @pytest.mark.parametrize(
        "vertices", [[-1, 0, 1], [0, 2, 2]], ids=["negative", "repeated"]
    )
    def test_vertices_are_distinct_element_indices(self, vertices):
        """``classes`` indexes each element's class by its index, so a
        negative or repeated vertex would be read as another one."""
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
        with pytest.raises(ValueError, match="distinct nonnegative element indices"):
            ZDGraph(vertices, list("abc"), adj)

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]], ids=["short", "long"])
    def test_labels_match_the_vertex_list(self, labels):
        """``export_dot`` names each vertex by its label, so a short list
        would fail there and a long one write a node that is no vertex."""
        with pytest.raises(ValueError, match="label list does not match the vertex list"):
            ZDGraph([1, 2], labels, [[False, True], [True, False]])

    def test_non_commutative_caller_table_is_refused(self):
        """In Z8 with 4*6 set to 4, both 4 and 6 stay zero-divisors (4*2
        and 6*4 are still 0), so the graph has an edge one way only."""
        z8 = make_zn(8)
        mul = np.array(z8.mul_table)
        mul[4, 6] = 4
        ring = FiniteRing(8, z8.add_table, mul, 0, 1, z8.labels, "Z8*")
        assert {4, 6} <= zero_divisors(ring)
        with pytest.raises(ValueError, match="symmetric with an empty diagonal"):
            build_graph(ring)


class TestZeroProductPass:
    def test_z64_along_itself_holds_one_adjacency(self):
        """Graph, Z(R), Z(R)^2 = 0 and completeness of a duplication of
        order 4096, read through one ``RingFacts``.  The whole-table mask
        and np.ix_ gathers peaked at 36.5 MiB here; with no order^2 boolean
        allocated the peak stays below order^2 bytes, and what is held
        afterwards is the graph's adjacency plus O(order)."""
        z64 = make_zn(64)
        dup = amalgamated_duplication(z64, parse_ideal_spec(z64, "full")).ring
        tracemalloc.start()
        try:
            facts = RingFacts(dup)
            graph = facts.graph
            facts.zero_divisors
            facts.classes.square_zero
            facts.classes.complete
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dup.order == 4096 and graph.vertex_count == 3071
        assert peak <= 36.5 * 2**20 and peak < dup.order**2
        assert held <= graph.adjacency.nbytes + 256 * dup.order

    def test_square_zero_is_cached_by_the_graph_pass(self, monkeypatch):
        passes = []
        adjacency = graphs._zero_product_adjacency

        def spy(ring):
            passes.append(ring.spec_name)
            return adjacency(ring)

        monkeypatch.setattr(graphs, "_zero_product_adjacency", spy)
        z8, z4 = RingFacts(make_zn(8)), RingFacts(make_zn(4))
        assert z8.classes.square_zero is False
        assert z4.classes.square_zero is True
        # Read again, and the graph too: no further pass.
        assert z8.classes.square_zero is False and z8.graph.vertex_count == 3
        assert passes == ["Z8", "Z4"]


class TestDistance:
    def test_two_step_path_in_z6(self):
        g = build_graph(make_zn(6))
        assert floyd_warshall_distance(g, 2, 4) == 2
        assert floyd_warshall_distance(g, 2, 2) == 0

    def test_unknown_vertex_is_an_error(self):
        g = build_graph(make_zn(6))
        with pytest.raises(ValueError):
            floyd_warshall_distance(g, 1, 2)

    def test_worked_distances_in_the_z6_duplication(self):
        a, g = dup_graph("Z6", "gen(3)")
        assert floyd_warshall_distance(g, a.index_of(0, 3), a.index_of(3, 3)) == 1
        assert floyd_warshall_distance(g, a.index_of(1, 3), a.index_of(3, 0)) == 3


class TestBooleanProduct:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 20),
        st.integers(0, 40),
        st.integers(0, 20),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_integer_matmul(self, r, n, m, density, seed):
        rng = np.random.default_rng(seed)
        left = rng.random((r, n)) < density
        right = rng.random((n, m)) < density
        expected = (left.astype(np.int64) @ right.astype(np.int64)) > 0
        assert np.array_equal(graphs._boolean_product(left, right), expected)


    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_brute_or_of_ands(self, width, seed):
        # Inner dimensions up to 64 take numpy's boolean matmul, wider ones
        # the four Russians; the densities are drawn per seed.
        rng = np.random.default_rng(seed)
        density = rng.random()
        left = rng.random((9, width)) < density
        right = rng.random((width, 11)) < density
        got = graphs._boolean_product(left, right)
        assert got.dtype == bool and got.shape == (9, 11)
        assert np.array_equal(got, brute_boolean_product(left, right))


class TestNeighbors:
    def test_built_on_first_read_from_the_adjacency_rows(self):
        g = triangle_with_tail()
        assert "neighbors" not in vars(g)
        assert g.neighbors == ((1, 2), (0, 2), (0, 1, 3), (2, 4), (3,))
        assert g.neighbors is g.neighbors


def petersen():
    g = nx.petersen_graph()
    return synthetic(g.number_of_nodes(), g.edges())


def class_count(graph):
    """Number of distinct adjacency rows, counted without the library."""
    return len({row.tobytes() for row in graph.adjacency})


def annihilator_key_count(base, graph, pair_of):
    """Number of distinct pairs (Ann(a), Ann(b)) over the vertices of a
    materialized graph whose vertex v has the base ring's elements (a, b)
    = pair_of(v) as coordinates, (r, r+i) for (r, i) in a duplication,
    counted without the library."""
    ann = [frozenset(np.flatnonzero(row == base.zero).tolist()) for row in base.mul_table]
    keys = set()
    for v in graph.vertices:
        a, b = pair_of(v)
        keys.add((ann[a], ann[b]))
    return len(keys)


@st.composite
def twin_graphs(draw):
    """A random graph on a few vertices, each blown up into a class of
    false twins (copies with the same neighbourhood, not adjacent to each
    other), vertex order shuffled; a spanning path, when drawn, makes the
    base graph and so the blow-up connected."""
    m = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    base = np.triu(rng.random((m, m)) < density, 1)
    if draw(st.booleans()):
        base[np.arange(m - 1), np.arange(1, m)] = True
    base |= base.T
    sizes = rng.integers(1, 4, size=m)
    owner = rng.permutation(np.repeat(np.arange(m), sizes))
    adj = base[np.ix_(owner, owner)]
    return ZDGraph(range(len(owner)), [str(v) for v in range(len(owner))], adj)


@st.composite
def forests_with_planted_cycles(draw):
    """A random tree or forest on up to 30 vertices (each vertex after the
    first hangs off an earlier one, in a forest only sometimes), and for
    "cycle" a tree with one more edge between two vertices not yet
    adjacent, which closes exactly one cycle, of any length from 3."""
    kind = draw(st.sampled_from(["tree", "forest", "cycle"]))
    n = draw(st.integers(1 if kind != "cycle" else 3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [
        (int(rng.integers(0, v)), v)
        for v in range(1, n)
        if kind != "forest" or rng.random() < 0.8
    ]
    if kind == "cycle":
        free = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges and (v, u) not in edges
        ]
        edges.append(free[int(rng.integers(0, len(free)))])
    return kind, synthetic(n, edges)


class TestTwinQuotient:
    @settings(max_examples=300, deadline=None)
    @given(twin_graphs())
    def test_matches_networkx(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.vertex_count))
        nxg.add_edges_from(g.edge_positions())
        assert g.classes.girth == nx.girth(nxg)
        if nx.is_connected(nxg):
            assert diameter(g) == nx.diameter(nxg)
        else:
            with pytest.raises(DisconnectedGraphError):
                diameter(g)

    @settings(max_examples=100, deadline=None)
    @given(twin_graphs())
    def test_classes_are_the_distinct_rows(self, g):
        classes = g.classes
        q, sizes = classes.q, classes.sizes
        assert len(q) == len(sizes) == class_count(g)
        assert sizes.sum() == g.vertex_count
        assert not q.diagonal().any() and np.array_equal(q, q.T)
        assert not classes.clique.any()
        of = classes.class_of[list(g.vertices)]
        assert np.array_equal(q[np.ix_(of, of)], g.adjacency)
        assert g.classes is g.classes

    @pytest.mark.parametrize(
        "build, diam, length, classes",
        [
            (lambda: cycle(4), 2, 4, 2),
            (lambda: synthetic(4, [(0, v) for v in (1, 2, 3)]), 2, math.inf, 2),
            (lambda: synthetic(5, path(5)), 4, math.inf, 5),
            (petersen, 2, 5, 10),
        ],
        ids=["C4", "K13", "P5", "Petersen"],
    )
    def test_named_graphs(self, build, diam, length, classes):
        g = build()
        assert class_count(g) == classes
        assert diameter(g) == diam == bfs_diameter(g) == reach_product_diameter(g)
        assert g.classes.girth == length == bfs_girth(g) == square_girth(g)

    @pytest.mark.parametrize(
        "layout", [np.transpose, np.asfortranarray], ids=["transpose", "fortran"]
    )
    def test_column_ordered_adjacency_is_stored_row_ordered(self, layout):
        """The quotient views each packed row as one byte string, which
        needs rows contiguous whatever layout the caller passed."""
        adj = layout(np.array(petersen().adjacency))
        assert not adj.flags.c_contiguous
        g = ZDGraph(range(10), [str(v) for v in range(10)], adj)
        assert g.adjacency.flags.c_contiguous
        assert diameter(g) == 2 and g.classes.girth == 5

    def test_two_isolated_vertices_are_disconnected(self):
        g = synthetic(2, [])
        assert class_count(g) == 1
        with pytest.raises(DisconnectedGraphError):
            diameter(g)
        assert math.isinf(g.classes.girth)

    def test_four_cycle_twins_decide_girth_without_bfs(self, bfs_girth_calls):
        # The quotient of C4 is one edge: no 4-cycle there, but each class
        # holds two twins with two neighbours.
        assert cycle(4).classes.girth == 4
        assert bfs_girth_calls == []

    def test_sweep_multiplies_only_quotient_sized_operands(self, monkeypatch):
        # Each boolean product runs on a class quotient whose size is
        # counted without the library: a base graph's annihilator classes,
        # the distinct annihilators over its vertices, and a duplication's
        # key classes from ``_key_classes``, the distinct annihilator pairs
        # over the vertices of its materialized graph.  No base graph is
        # grouped as bare false twins.
        ring = parse_ring_spec("Z32")
        shapes, bounds, keyed = [], [], {}
        twin_classes = ZDGraph.classes.func
        key_classes, product = theorems._key_classes, graphs._boolean_product

        def record(result, kind, keys, graph):
            assert result.vertices.tolist() == list(graph.vertices)
            assert len(result.q) == keys
            keyed[id(result)] = (result, kind, keys, graph.vertex_count)
            return result

        def twin_spy(graph):
            assert graph.ring is not None, "a base graph was grouped as false twins"
            keys = annihilator_key_count(graph.ring, graph, lambda v: (v, v))
            return record(twin_classes(graph), "base", keys, graph)

        def key_spy(cls, rel, first, second):
            pairs = zip(first.tolist(), second.tolist())
            ideal = frozenset(ring.sub(b, a) for a, b in pairs)
            dup = amalgamated_duplication(ring, Ideal(ring, ideal))
            graph = build_graph(dup.ring)
            keys = annihilator_key_count(ring, graph, lambda v: product_rep(dup, v))
            # Keys can outnumber the twin classes (Z8 along (2) has 8 keys
            # and 6 distinct rows), but on Z32 they never do.
            assert keys <= class_count(graph)
            return record(key_classes(cls, rel, first, second), "duplication", keys, graph)

        def routine_spy(name):
            routine = getattr(graphs.ClassGraph, name).func

            def spy(classes):
                _, kind, keys, n = keyed[id(classes)]
                bounds.append((kind, keys, n))
                return routine(classes)

            spied = cached_property(spy)
            spied.__set_name__(graphs.ClassGraph, name)
            return spied

        def product_spy(left, right):
            shapes.append((left.shape, right.shape, bounds[-1]))
            return product(left, right)

        spied = cached_property(twin_spy)
        spied.__set_name__(ZDGraph, "classes")
        monkeypatch.setattr(ZDGraph, "classes", spied)
        monkeypatch.setattr(theorems, "_key_classes", key_spy)
        monkeypatch.setattr(graphs, "_boolean_product", product_spy)
        for name in ("diameter", "girth"):
            monkeypatch.setattr(graphs.ClassGraph, name, routine_spy(name))
        assert sweep(["Z32"], workers=1).succeeded
        assert {kind for _, _, (kind, _, _) in shapes} == {"base", "duplication"}
        for kind in ("base", "duplication"):
            assert any(c < n for k, c, n in bounds if k == kind)
        for left, right, (_, c, _) in shapes:
            assert max(left[1], *right) <= c


class TestDiameter:
    def test_known_diameters(self):
        assert diameter(build_graph(make_zn(8))) == 2
        assert diameter(build_graph(make_zn(4))) == 0
        r = parse_ring_spec("Z2xZ2")
        a = amalgamated_duplication(r, parse_ideal_spec(r, "gen((1,0))"))
        assert diameter(build_graph(a.ring)) == 3

    def test_empty_graph_has_no_diameter(self):
        assert diameter(build_graph(make_zn(5))) is None

    def test_disconnected_graph_raises(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        synthetic = ZDGraph([0, 1, 2, 3], ["a", "b", "c", "d"], adj)
        assert not nx.is_connected(nx.from_numpy_array(synthetic.adjacency))
        with pytest.raises(DisconnectedGraphError):
            diameter(synthetic)

    def test_matches_all_pairs_oracle(self):
        for g in sample_graphs():
            assert diameter(g) == floyd_warshall_diameter(g)

    def test_no_cap_at_three(self):
        g = synthetic(6, path(6))
        assert diameter(g) == 5 == bfs_diameter(g)

    def test_reach_steps_past_the_square(self):
        g = triangle_with_tail()
        assert diameter(g) == 3 == bfs_diameter(g)

    def test_row_stalling_after_the_square_raises(self):
        # Two 4-vertex paths: every row grows through the squared step and
        # the middle rows stall only at the first matmul step.
        with pytest.raises(DisconnectedGraphError):
            diameter(synthetic(8, path(4) + path(4, first=4)))

    def test_complete_iff_diameter_one(self):
        for g in sample_graphs():
            if g.vertex_count >= 2:
                assert g.classes.complete == (diameter(g) == 1)


class TestGirth:
    def test_known_girths(self):
        _, single_edge = dup_graph("Z2", "full")
        assert math.isinf(single_edge.classes.girth)
        _, four_cycle = dup_graph("Z3", "full")
        assert four_cycle.classes.girth == 4
        _, triangle_rich = dup_graph("Z6", "gen(3)")
        assert triangle_rich.classes.girth == 3

    def test_base_ring_girths(self):
        assert math.isinf(build_graph(make_zn(8)).classes.girth)
        # No triangle in the Z12 graph, but 3-4-9-8 closes a 4-cycle.
        assert build_graph(make_zn(12)).classes.girth == 4

    def test_matches_cycle_enumeration_oracle(self):
        for g in sample_graphs():
            if g.vertex_count <= 12:
                assert g.classes.girth == enumerate_cycles_girth(g)

    @pytest.mark.parametrize("n", [5, 6])
    def test_long_cycles_go_through_the_bfs_fallback(self, n, bfs_girth_calls):
        # No two vertices of a long cycle are twins: the BFS runs once, on
        # a quotient of all n vertices.
        g = cycle(n)
        assert g.classes.girth == n == bfs_girth(g)
        [searched] = bfs_girth_calls
        assert searched is g.classes.q and len(searched) == n

    def test_star_is_acyclic_through_the_bfs_fallback(self, bfs_girth_calls):
        # The leaves are one class: the BFS runs once, on the single edge
        # between the centre and that class.
        g = star()
        assert math.isinf(g.classes.girth)
        [searched] = bfs_girth_calls
        assert searched is g.classes.q and len(searched) == 2

    def test_star_of_z4078_is_acyclic_within_a_second(self):
        # Z4078 = Z2 x Z2039 has the star K_{1,2038} as its graph: no
        # twin-class rule fires, and its 2-core is empty.
        g = synthetic(2039, [(0, v) for v in range(1, 2039)])
        start = time.perf_counter()
        assert math.isinf(g.classes.girth)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=200, deadline=None)
    @given(forests_with_planted_cycles())
    def test_forests_and_planted_cycles(self, drawn):
        kind, g = drawn
        assert g.classes.girth == bfs_girth(g) == enumerate_cycles_girth(g)
        assert math.isinf(g.classes.girth) == (kind != "cycle")
        assert (graphs._two_core(g.adjacency).size == 0) == (kind != "cycle")

    @pytest.mark.parametrize(
        "build, expected",
        [(k33, 4), (triangle_with_tail, 3), (square_with_pendants, 4)],
        ids=["K33", "triangle", "pendant-square"],
    )
    def test_square_decides_three_and_four(self, build, expected, bfs_girth_calls):
        g = build()
        assert g.classes.girth == expected == bfs_girth(g)
        assert bfs_girth_calls == []


class TestShapePredicates:
    def test_complete_examples(self):
        _, triangle = dup_graph("Z4", "gen(2)")
        assert triangle.classes.complete
        assert not build_graph(make_zn(6)).classes.complete

    def test_complete_bipartite_examples(self):
        _, k22 = dup_graph("Z3", "full")
        assert k22.classes.bipartition == (2, 2)
        _, k11 = dup_graph("Z2", "full")
        assert k11.classes.bipartition == (1, 1)
        _, triangle = dup_graph("Z4", "gen(2)")
        assert triangle.classes.bipartition is None

    @pytest.mark.parametrize(
        "graph, expected",
        [
            (lambda: synthetic(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]), (2, 3)),
            (lambda: synthetic(5, [(u, v) for u in (0, 2) for v in (1, 3, 4)]), (2, 3)),
            (star, (1, 4)),
            (k33, (3, 3)),
            (lambda: synthetic(4, path(2) + path(2, first=2)), None),
            (lambda: synthetic(3, [(1, 2)]), None),
            (lambda: synthetic(4, path(4)), None),
            (lambda: cycle(6), None),
            (lambda: cycle(5), None),
            (lambda: synthetic(3, []), None),
        ],
        ids=[
            "K23", "K23-interleaved", "star", "K33", "two-edges",
            "isolated-first", "P4", "C6", "C5", "edgeless",
        ],
    )
    def test_bipartition_matches_the_bfs_colouring(self, graph, expected):
        g = graph()
        assert g.classes.bipartition == expected == bfs_complete_bipartition(g)

    def test_single_vertex_is_not_bipartite_but_is_complete(self):
        g = build_graph(make_zn(4))
        assert g.classes.bipartition is None
        assert g.classes.complete

    def test_star_with_universal_center(self):
        g = build_graph(parse_ring_spec("Z2xZ3"))
        assert g.classes.bipartition == (1, 2)  # a star
        assert [g.ring.labels[v] for v in g.classes.universal_vertices] == ["(1,0)"]

    def test_single_vertex_is_universal(self):
        g = build_graph(make_zn(4))
        assert g.classes.universal_vertices == (2,)

    def test_k22_has_no_universal_vertex(self):
        _, k22 = dup_graph("Z3", "full")
        assert k22.classes.universal_vertices == ()

    def test_invariants_bundle(self):
        g = build_graph(make_zn(6))
        inv = graph_invariants(g)
        assert inv is g.classes
        assert inv.vertex_count == 3 and inv.edge_count == 2
        assert inv.diameter == 2 and math.isinf(inv.girth)
        assert inv.bipartition == (1, 2)
        assert inv.universal_vertices == (3,)


class TestDot:
    def test_path_graph_dot(self):
        assert export_dot(build_graph(make_zn(6))) == (
            'graph {\n'
            '  "2";\n'
            '  "3";\n'
            '  "4";\n'
            '  "2" -- "3";\n'
            '  "3" -- "4";\n'
            '}\n'
        )

    def test_single_vertex_dot(self):
        assert export_dot(build_graph(make_zn(4))) == 'graph {\n  "2";\n}\n'

    def test_empty_graph_dot(self):
        assert export_dot(build_graph(make_zn(5))) == "graph {\n}\n"
