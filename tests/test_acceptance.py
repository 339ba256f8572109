"""Acceptance suite: golden instances, the exhaustive sweep, oracle
equivalence, structural patterns, and byte-level determinism.

Each criterion prints one pass/fail line (visible with ``pytest -s``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from amalgam_zdg import (
    ClassGraph,
    DisconnectedGraphError,
    Instance,
    RingFacts,
    ZDGraph,
    all_ideals,
    amalgamated_duplication,
    build_graph,
    classify_zero_divisors,
    diameter,
    expand_family,
    ideal_from_generators,
    is_prime_ideal,
    is_reduced,
    make_zn,
    matches_idealization,
    parse_ideal_spec,
    parse_ring_spec,
    prime_ideals,
    structure_checks,
    sweep,
    zero_divisors,
)
from amalgam_zdg import amalgam, graphs, rings
from amalgam_zdg.specs import MAX_DUPLICATION_ORDER
from amalgam_zdg.theorems import _key_classes
from oracles import (
    bfs_complete_bipartition,
    bfs_diameter,
    bfs_girth,
    complement_scan_is_prime,
    complement_scan_primes,
    dumps_report,
    edge_loop_share_annihilator,
    enumerate_cycles_girth,
    eye_mask_is_complete,
    floyd_warshall_diameter,
    floyd_warshall_distance,
    full_mask_zero_divisors,
    full_zero_divisor_mask,
    gather_adjacency,
    gather_idealization,
    gather_pair_tables,
    gather_zset_square_zero,
    kernel_ideals,
    loop_classify_zero_divisors,
    loop_structure_checks,
    minimal_primes,
    neighbor_count_universal_vertices,
    product_rep,
    reach_product_diameter,
    representative_relation,
    square_girth,
    subset_scan_ideals,
    unique_key_classes,
    vertex_position,
)

FAMILY = (
    [f"Z{n}" for n in range(2, 17)]
    + ["Z2xZ2", "Z2xZ3", "Z2xZ4", "Z3xZ3", "Z3xZ4", "Z4xZ4"]
    + ["Z2xZ2xZ2"]
)

# sha256 of the family's sweep reports at workers=1.  A refactor that is
# meant to keep the report bytes must pass without editing these.
REPORT_SHA256 = {
    "json": "be97df09e87f6e30775e995cabe222f4582fd3cffc8a2b2fb240e7861754b5d1",
    "csv": "610da669bd9e5ac7558fa61c5ec66bff3e02980e08c5dd60a1ff223614ea55e3",
}

# The same pin over larger rings: the fields Z37, Z41 and Z43 along
# themselves, the other Z_n up to 48, and non-local products.
WIDE_FAMILY = expand_family("Z17..Z48") + [
    "Z4xZ8", "Z2xZ16", "Z6xZ6", "Z2xZ2xZ8", "Z5xZ7", "Z8xZ9"
]
WIDE_REPORT_SHA256 = {
    "json": "0f1e07d63145a907559277288e276721ecfae87a38889187b3ae2ae7cb03579c",
    "csv": "0a7059c245bbb397f214911ef6fbb97cd923ac8441baba04c82cf4575b74703d",
}

# The same pin for the acceptance family along every ideal, {0} included:
# the precondition notes, T4.8's exclusion, and P4.16's honest
# counterexamples on R⋈{0} = R for Z6, Z10 and Z14, with their witnesses.
ALL_IDEALS_REPORT_SHA256 = {
    "json": "dbd184a82fe40fee3354c1f5540d972894e491665df062edaa23bf8464b31257",
    "csv": "d196e5924a4a11fabf61eff968a334a080fb6ed026e6a5f39416d4dd53f3d1e8",
}

# The JSON pin over Z65..Z128, whose full duplications have carriers of
# 4225 to 16384 elements, at the duplication order limit.
LARGE_FAMILY = expand_family("Z65..Z128")
LARGE_REPORT_SHA256 = "186b59f97125b53163ae5314ac1be068d62baf36956340690554b2ed8e1c848f"


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


@contextmanager
def under_a_second():
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def family_instances():
    """Every (ring, nonzero ideal) pair of the acceptance family."""
    out = []
    for spec in FAMILY:
        ring = parse_ring_spec(spec)
        for ideal in all_ideals(ring):
            if not ideal.is_zero:
                out.append((ring, ideal))
    return out


@pytest.fixture(scope="module")
def sweep_report():
    return sweep(FAMILY, "nonzero", workers=1)


def test_klein_ring_line_ideal_golden():
    with criterion("klein-ring line ideal: base diameter 1, duplication 3"):
        with under_a_second():
            ring = parse_ring_spec("Z2xZ2")
            ideal = parse_ideal_spec(ring, "gen((1,0))")
            assert set(ideal.labels()) == {"(0,0)", "(1,0)"}
            assert diameter(build_graph(ring)) == 1
            dup = amalgamated_duplication(ring, ideal)
            assert diameter(build_graph(dup.ring)) == 3


def test_z6_half_ideal_golden():
    with criterion("Z6 with {0,3}: diameters 2 and 3, pinned distance 3"):
        with under_a_second():
            ring = make_zn(6)
            ideal = ideal_from_generators(ring, [3])
            assert diameter(build_graph(ring)) == 2
            dup = amalgamated_duplication(ring, ideal)
            graph = build_graph(dup.ring)
            assert diameter(graph) == 3
            assert floyd_warshall_distance(graph, dup.index_of(1, 3), dup.index_of(3, 0)) == 3


def test_z8_half_ideal_golden():
    with criterion("Z8 with {0,4}: exact zero-divisor set, diameters 2 and 2"):
        with under_a_second():
            ring = make_zn(8)
            ideal = ideal_from_generators(ring, [4])
            dup = amalgamated_duplication(ring, ideal)
            nonzero = {
                dup.ring.labels[v]
                for v in zero_divisors(dup.ring) - {dup.ring.zero}
            }
            assert nonzero == {
                "(0,4)", "(4,4)", "(6,0)", "(2,0)", "(4,0)", "(2,4)", "(6,4)",
            }
            assert diameter(build_graph(ring)) == 2
            assert diameter(build_graph(dup.ring)) == 2


@pytest.mark.parametrize("field_spec", ["Z3", "Z5"])
def test_star_base_golden(field_spec):
    with criterion(f"Z2x{field_spec} line ideal: star base, duplication diameter 3"):
        with under_a_second():
            ring = parse_ring_spec(f"Z2x{field_spec}")
            ideal = parse_ideal_spec(ring, "gen((1,0))")
            assert len(ideal) == 2
            parts = build_graph(ring).classes.bipartition
            assert parts is not None and parts[0] == 1  # a star
            dup = amalgamated_duplication(ring, ideal)
            assert diameter(build_graph(dup.ring)) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_prime_square_golden(p):
    with criterion(f"Z{p * p} along itself: square-zero fails upstairs"):
        with under_a_second():
            ring = make_zn(p * p)
            ideal = parse_ideal_spec(ring, "full")
            assert RingFacts(ring).graph.classes.square_zero
            assert not ideal.members <= zero_divisors(ring)
            dup = amalgamated_duplication(ring, ideal)
            assert not RingFacts(dup.ring).graph.classes.square_zero


def test_exhaustive_sweep_is_clean(sweep_report):
    with criterion("exhaustive sweep: zero counterexamples, zero violations"):
        start = time.perf_counter()
        report = sweep(FAMILY, "nonzero", workers=1)
        elapsed = time.perf_counter() - start
        assert report.counterexample_count == 0
        assert report.invariant_violations == ()
        assert elapsed < 300.0
        assert report.to_json() == sweep_report.to_json()


def _assert_primes_match_oracle(ring, rng: random.Random) -> None:
    """Compare the prime functions with the complement-scan oracle.  The
    oracle builds the whole ideal lattice, which stays cheap here because
    every duplication of the family has order at most 256."""
    oracle = complement_scan_primes(ring)
    assert [p.members for p in prime_ideals(ring)] == oracle, ring.spec_name
    minimal = [p for p in oracle if not any(q < p for q in oracle)]
    masks = rings._primes_from_idempotents(ring, np.arange(ring.order)[:, None])
    assert rings._sorted_sets(rings._minimal_rows(masks)) == minimal, ring.spec_name
    candidates = [i.members for i in all_ideals(ring)] + [zero_divisors(ring)]
    for _ in range(3):
        picked = rng.sample(range(ring.order), rng.randint(1, ring.order))
        candidates.append(frozenset(picked) | {ring.zero})
    for members in candidates:
        assert is_prime_ideal(ring, members) == complement_scan_is_prime(
            ring, members
        ), (ring.spec_name, sorted(members))


def _assert_tables_match_oracle(ring, ideal, dup) -> None:
    add, mul, _ = gather_pair_tables(ring, ideal.members)
    assert np.array_equal(dup.ring.add_table, add), dup.ring.spec_name
    assert np.array_equal(dup.ring.mul_table, mul), dup.ring.spec_name


def test_oracle_equivalence(family_instances):
    with criterion(
        "oracles: ideal lattice, primes, pair tables, BFS and all-pairs "
        "diameter, BFS and cycle girth"
    ):
        rng = random.Random(0)
        for spec in FAMILY:
            ring = parse_ring_spec(spec)
            if ring.order <= 8:
                got = [i.members for i in all_ideals(ring)]
                assert got == subset_scan_ideals(ring), spec
            _assert_primes_match_oracle(ring, rng)
        seen_rings = set()
        for ring, ideal in family_instances:
            graphs = []
            if ring.spec_name not in seen_rings:
                seen_rings.add(ring.spec_name)
                graphs.append(build_graph(ring))
            dup = amalgamated_duplication(ring, ideal)
            _assert_primes_match_oracle(dup.ring, rng)
            _assert_tables_match_oracle(ring, ideal, dup)
            graphs.append(build_graph(dup.ring))
            for graph in graphs:
                assert diameter(graph) == bfs_diameter(graph)
                assert graph.classes.girth == bfs_girth(graph)
                if graph.vertex_count <= 50:
                    assert diameter(graph) == floyd_warshall_diameter(graph)
                if graph.vertex_count <= 12:
                    assert graph.classes.girth == enumerate_cycles_girth(graph)
        assert len(seen_rings) == len(FAMILY) and len(family_instances) == 68


def test_idealization_comparator_matches_whole_tables(family_instances):
    with criterion("P2.1b: block comparator equals whole-table equality"):
        outcomes = []
        for ring, ideal in family_instances:
            dup = amalgamated_duplication(ring, ideal)
            whole = np.array_equal(
                dup.ring.mul_table, gather_idealization(ring, ideal).mul_table
            )
            assert matches_idealization(dup) == whole, dup.ring.spec_name
            outcomes.append(whole)
        assert len(outcomes) == 68 and 0 < sum(outcomes) < 68


@pytest.mark.parametrize("blocks", ["one-coordinate", "ragged"])
def test_block_size_leaves_pair_tables_and_comparator_alone(
    family_instances, blocks, monkeypatch
):
    """At the default block size no table of the family spans two blocks,
    so the block loops run here at sizes that split every table: one first
    coordinate per block, or n//2 + 1 of them, which leaves a shorter last
    block whenever n >= 3."""
    with criterion(f"pair tables and P2.1b comparator in {blocks} blocks"):
        ragged = 0
        for ring, ideal in family_instances:
            n, k = ring.order, len(ideal)
            step = 1 if blocks == "one-coordinate" else n // 2 + 1
            monkeypatch.setattr(amalgam, "_BLOCK_CELLS", step * n * k * k)
            dup = amalgamated_duplication(ring, ideal)
            _assert_tables_match_oracle(ring, ideal, dup)
            whole = np.array_equal(
                dup.ring.mul_table, gather_idealization(ring, ideal).mul_table
            )
            assert matches_idealization(dup) == whole, dup.ring.spec_name
            ragged += n % step != 0
        assert ragged == (0 if blocks == "one-coordinate" else 67)


def test_vectorized_checks_match_loops(family_instances):
    with criterion(
        "oracles: zero-divisor classification, joint annihilators, "
        "universal vertices"
    ):
        seen_rings, shares = set(), set()
        for ring, ideal in family_instances:
            dup = amalgamated_duplication(ring, ideal)
            masks = classify_zero_divisors(dup, full_zero_divisor_mask(ring))
            cls = tuple(frozenset(mask.nonzero()[0].tolist()) for mask in masks)
            assert cls == loop_classify_zero_divisors(dup), dup.ring.spec_name
            pairs = [(dup.ring, build_graph(dup.ring))]
            if ring.spec_name not in seen_rings:
                seen_rings.add(ring.spec_name)
                pairs.append((ring, build_graph(ring)))
            for owner, graph in pairs:
                shared = RingFacts(owner).edges_share_annihilator
                assert shared == edge_loop_share_annihilator(owner, graph), owner.spec_name
                shares.add(shared)
                universal = graph.classes.universal_vertices
                assert universal == neighbor_count_universal_vertices(graph), owner.spec_name
        assert len(seen_rings) == len(FAMILY) and shares == {True, False}


def test_annihilator_relation_matches_one_representative_per_class(family_instances):
    """``rel`` is read off the graph's classes.  On the classes that have
    members it is the product table at one representative each, and x*y
    is zero iff ``rel[cls[x], cls[y]]`` for every pair of elements, on
    every base ring of the acceptance family and every duplication ring
    of its nonzero ideals built on the table path."""
    with criterion("oracles: annihilator relation against one representative per class"):
        owners = {ring.spec_name: ring for ring, _ in family_instances}
        for ring, ideal in family_instances:
            dup = amalgamated_duplication(ring, ideal).ring
            owners[dup.spec_name] = dup
        for name, owner in owners.items():
            cls, rel = RingFacts(owner).annihilator_classes
            present, relation = representative_relation(owner, cls)
            assert np.array_equal(rel[np.ix_(present, present)], relation), name
            zero_products = owner.mul_table == owner.zero
            assert np.array_equal(rel[cls[:, None], cls], zero_products), name
        assert len(owners) == len(FAMILY) + len(family_instances) == 90


def _complement(graph: ZDGraph) -> ZDGraph:
    adj = ~graph.adjacency
    np.fill_diagonal(adj, False)
    return ZDGraph(graph.vertices, adj, graph.ring)


def test_whole_array_graph_checks_match_loops(family_instances):
    """Complete bipartition and structure checks against the BFS colouring
    and the neighbour-set loops, on every graph of the family and on its
    complement, which makes the structure checks fail as well as hold."""
    with criterion("oracles: complete bipartition, duplication structure checks"):
        parts, exclusive, embeds = set(), set(), set()
        for ring, ideal in family_instances:
            dup = amalgamated_duplication(ring, ideal)
            base_graph, dup_graph = build_graph(ring), build_graph(dup.ring)
            complements = (_complement(base_graph), _complement(dup_graph))
            zd_mask = full_zero_divisor_mask(ring)
            for pair in ((base_graph, dup_graph), complements):
                for graph in pair:
                    got = graph.classes.bipartition
                    assert got == bfs_complete_bipartition(graph), graph
                    parts.add(got is None)
                base, graph = pair
                vanish = amalgam._edge_images_vanish(ring, base)
                verts = np.array(base.vertices, dtype=np.intp)
                checks = structure_checks(dup, zd_mask, verts, graph.classes, vanish)
                assert checks == loop_structure_checks(dup, *pair), dup.ring.spec_name
                exclusive.add("exclusive neighbors" not in checks)
                embeds.add("base embedding" not in checks)
        assert parts == exclusive == embeds == {True, False}


@pytest.mark.parametrize("blocks", ["default", "one-row", "ragged"])
def test_zero_product_pass_matches_gathers(family_instances, blocks, monkeypatch):
    """Z(R), Z(R)^2 = 0, the graph adjacency and completeness from the one
    blocked zero-product pass against the whole-table mask, the np.ix_
    gathers and the eye mask, on the base and duplication rings of every
    instance and on their graphs' complements.  Z(R) and Z(R)^2 = 0 are
    also asked of the sweep's ``RingFacts``, which read them off the
    graph.  At the default block size every pass of the family is
    one block; "one-row" sizes the blocks to one row of the ring's
    table, and "ragged" to n//2 + 1 rows, which leaves a shorter last block
    and symmetry tiles that do not divide the graph."""
    with criterion(f"oracles: zero-product pass in {blocks} blocks"):
        outcomes, ragged = set(), 0
        for ring, ideal in family_instances:
            fresh = parse_ring_spec(ring.spec_name)
            dup = amalgamated_duplication(ring, ideal).ring
            for owner in (fresh, dup):
                n = owner.order
                if blocks != "default":
                    cells = n if blocks == "one-row" else (n // 2 + 1) * n
                    monkeypatch.setattr(rings, "_BLOCK_CELLS", cells)
                    monkeypatch.setattr(graphs, "_BLOCK_CELLS", cells)
                square_zero = gather_zset_square_zero(owner)
                graph = build_graph(owner)
                facts = RingFacts(owner)
                assert facts.graph.classes.square_zero == square_zero, owner.spec_name
                assert zero_divisors(owner) == full_mask_zero_divisors(owner)
                assert facts.zero_divisors == full_mask_zero_divisors(owner)
                assert np.array_equal(facts.zero_divisor_mask, full_zero_divisor_mask(owner))
                zd_mask = set(np.flatnonzero(facts.zero_divisor_mask).tolist())
                assert zd_mask == zero_divisors(owner), owner.spec_name
                verts, adj = gather_adjacency(owner)
                assert graph.vertices == tuple(verts), owner.spec_name
                assert np.array_equal(graph.adjacency, adj), owner.spec_name
                assert graph.adjacency.flags.c_contiguous
                for g in (graph, _complement(graph)):
                    assert g.classes.complete == eye_mask_is_complete(g), g
                    outcomes.add((square_zero, g.classes.complete))
                side = math.isqrt(graphs._BLOCK_CELLS)
                ragged += graph.vertex_count > side and graph.vertex_count % side != 0
        assert outcomes == {(a, b) for a in (True, False) for b in (True, False)}
        assert (ragged > 0) == (blocks != "default")


def _diameter_or_disconnected(diameter_of, graph):
    try:
        return diameter_of(graph)
    except DisconnectedGraphError:
        return "disconnected"


def test_quotient_graph_layer_matches_whole_graph_oracles(family_instances):
    """Diameter and girth on the false-twin quotient against reach products
    and A @ A over the whole adjacency, on every graph of the family and on
    its complement, which is often disconnected and has other classes."""
    with criterion("oracles: twin-quotient diameter and girth"):
        checked, outcomes = 0, set()
        for ring, ideal in family_instances:
            dup = amalgamated_duplication(ring, ideal)
            for graph in (build_graph(ring), build_graph(dup.ring)):
                for g in (graph, _complement(graph)):
                    got = _diameter_or_disconnected(diameter, g)
                    assert got == _diameter_or_disconnected(
                        reach_product_diameter, g
                    ), g
                    assert g.classes.girth == square_girth(g), g
                    outcomes.add(got == "disconnected")
                    checked += 1
        assert checked == 4 * 68 and outcomes == {True, False}


def test_order_limit_leaves_every_family_alone(monkeypatch):
    """The largest duplication of a ring is along the whole ring, of order
    |R|^2; for the acceptance family and the benchmark's families it is
    within MAX_DUPLICATION_ORDER (the largest is Z43's, 1849)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    families = [w.family for w in workloads.WORKLOADS.values()] + [",".join(FAMILY)]
    largest = max(
        parse_ring_spec(s).order ** 2 for f in families for s in expand_family(f)
    )
    assert largest == 43 ** 2 <= MAX_DUPLICATION_ORDER


def test_duplication_primes_lift_base_primes(family_instances):
    """D'Anna-Fontana: the primes of the duplication are exactly the
    preimages of the base ring's primes under the two projections
    (r, i) -> r and (r, i) -> r + i, and the two preimages of P coincide
    exactly when the ideal lies inside P."""
    with criterion("spectrum: duplication primes are lifts of base primes"):
        for ring, ideal in family_instances:
            dup = amalgamated_duplication(ring, ideal)
            images = [product_rep(dup, e) for e in dup.ring.elements()]
            lifts = set()
            for p in complement_scan_primes(ring):
                first = frozenset(e for e, (a, _) in enumerate(images) if a in p)
                second = frozenset(e for e, (_, b) in enumerate(images) if b in p)
                assert (first == second) == (ideal.members <= p)
                lifts |= {first, second}
            got = {q.members for q in prime_ideals(dup.ring)}
            assert got == lifts, dup.ring.spec_name


def test_bipartite_pattern_and_embedding(family_instances):
    with criterion("structure: crossing pattern and base embedding everywhere"):
        checked = 0
        for ring, ideal in family_instances:
            if len(ideal) < 2:
                continue
            dup = amalgamated_duplication(ring, ideal)
            base = RingFacts(ring)
            checks = structure_checks(
                dup,
                base.zero_divisor_mask,
                base.graph.classes.vertices,
                build_graph(dup.ring).classes,
                base.edge_images_vanish,
            )
            assert checks == [], dup.ring.spec_name
            nonzero = len(ideal) - 1
            zero = ring.zero
            t1 = {dup.index_of(zero, i) for i in ideal if i != zero}
            t2 = {dup.index_of(ring.neg(i), i) for i in ideal if i != zero}
            assert len(t1) == len(t2) == nonzero
            checked += 1
        assert checked == len(family_instances)


# Rings whose duplications are compared with the materialized path: the
# acceptance family, Z2..Z64 and the benchmark's five products.
FACTORED_FAMILY = list(
    dict.fromkeys(
        FAMILY
        + expand_family("Z2..Z64")
        + ["Z4xZ8", "Z2xZ16", "Z6xZ6", "Z2xZ2xZ8", "Z5xZ7"]
    )
)


def assert_neighbour_rows(classes, graph):
    """The neighbour rows the classes give, on about 32 vertices, against
    the rows of the materialized graph's adjacency: a vertex's neighbours
    are the members of the classes adjacent to its own, and of its own
    class when that is a clique, less the vertex itself."""
    sample = np.array(graph.vertices[:: max(1, graph.vertex_count // 32)], dtype=np.intp)
    near = classes.q | np.diag(classes.clique)
    rows = near[classes.class_of[sample]][:, classes.class_of[classes.vertices]]
    rows[np.arange(len(sample)), np.searchsorted(classes.vertices, sample)] = False
    expected = graph.adjacency[[vertex_position(graph, v) for v in sample]]
    assert np.array_equal(rows, expected), graph


def graph_facts(classes: ClassGraph) -> tuple:
    """The graph facts ``analyze`` reports; whether the graph is complete
    bipartite, and a star, is read off the bipartition."""
    return (
        classes.vertex_count,
        classes.edge_count,
        classes.diameter,
        classes.girth,
        classes.complete,
        classes.bipartition,
        classes.universal_vertices,
    )


def test_base_ring_classes_are_its_key_classes():
    """R is R⋈{0}: a ring's graph classes (its adjacency rows grouped with
    the diagonal set where x^2 = 0) are ``_key_classes`` of its elements
    read with both coordinates r, and every graph fact read off them
    matches the false-twin classes of the same adjacency with no ring and
    the whole-graph oracles, on every ring of FACTORED_FAMILY."""
    with criterion("oracles: base-ring classes against key classes and false twins"):
        rings, smaller = 0, 0
        for spec in FACTORED_FAMILY:
            ring = parse_ring_spec(spec)
            facts = RingFacts(ring)
            classes, graph = facts.graph.classes, facts.graph
            index = np.arange(ring.order)
            keyed = _key_classes(*facts.annihilator_classes, index[:, None])
            verts = classes.vertices
            assert verts.tolist() == keyed.vertices.tolist() == list(graph.vertices), spec
            for part in ("q", "sizes", "clique"):
                assert np.array_equal(getattr(keyed, part), getattr(classes, part)), spec
            assert np.array_equal(keyed.class_of[verts], classes.class_of[verts]), spec
            twins = ZDGraph(graph.vertices, graph.adjacency).classes
            assert graph_facts(classes) == graph_facts(twins), spec
            assert classes.diameter == reach_product_diameter(graph), spec
            assert classes.girth == square_girth(graph), spec
            assert classes.bipartition == bfs_complete_bipartition(graph), spec
            assert classes.universal_vertices == neighbor_count_universal_vertices(graph), spec
            assert classes.complete == eye_mask_is_complete(graph), spec
            assert classes.edge_count == int(graph.adjacency.sum()) // 2, spec
            assert classes.square_zero == gather_zset_square_zero(ring), spec
            assert_neighbour_rows(classes, graph)
            assert len(classes.q) <= len(twins.q), spec
            smaller += len(classes.q) < len(twins.q)
            rings += 1
        # On 15 rings (Z9, Z16, ..., Z2xZ16) a clique class holds true twins,
        # so the annihilator classes are fewer than the false twins.
        assert rings == len(FACTORED_FAMILY) == 75 and smaller == 15


def test_zero_ideal_duplication_is_the_base_ring():
    """R⋈{0} is R, with carrier index r for element r: along the zero ideal
    the duplication's key classes are the base ring's graph classes, on
    every ring of FACTORED_FAMILY."""
    with criterion("R⋈{0}: the zero-ideal duplication's classes are the base ring's"):
        for spec in FACTORED_FAMILY:
            ring = parse_ring_spec(spec)
            inst = Instance(ring, next(i for i in all_ideals(ring) if i.is_zero))
            base, dup = inst.base.graph.classes, inst.dup
            assert [inst.carrier.index_of(r, ring.zero) for r in ring.elements()] == list(
                ring.elements()
            ), spec
            assert dup.vertices.tolist() == base.vertices.tolist(), spec
            for part in ("q", "sizes", "clique"):
                assert np.array_equal(getattr(dup, part), getattr(base, part)), spec
            verts = base.vertices
            assert np.array_equal(dup.class_of[verts], base.class_of[verts]), spec
            assert graph_facts(dup) == graph_facts(base), spec
            assert dup.square_zero == base.square_zero, spec


def test_key_classes_match_the_unique_reference():
    """``_key_classes`` counts the keys over the whole key space; the
    reference numbers the keys present with ``np.unique``.  Both give the
    same classes on every ideal, {0} included, of FACTORED_FAMILY."""
    with criterion("oracles: key classes against np.unique over the keys"):
        instances = 0
        for spec in FACTORED_FAMILY:
            ring = parse_ring_spec(spec)
            base = RingFacts(ring)
            for ideal in all_ideals(ring):
                inst = Instance(ring, ideal, base)
                plus = inst.carrier.plus
                n, k = plus.shape
                classes = _key_classes(*base.annihilator_classes, plus)
                first = np.arange(n).repeat(k)
                reference = unique_key_classes(*base.annihilator_classes, first, plus.ravel())
                got = (classes.q, classes.sizes, classes.clique, classes.class_of)
                for part, want in zip(got, reference):
                    assert np.array_equal(part, want), inst.carrier.spec_name
                instances += 1
        assert instances == 378


def test_factored_duplication_matches_the_materialized_graph():
    """Every fact the sweep reads about a duplication, from the base ring's
    annihilator classes over the carrier, against the duplication's own
    tables, graph and the graph and ring functions, and the structure
    checks against their loop oracle on the materialized graph, on every
    nonzero ideal of FACTORED_FAMILY."""
    with criterion("oracles: factored duplication facts against its tables and graph"):
        instances, cliques = 0, 0
        for spec in FACTORED_FAMILY:
            ring = parse_ring_spec(spec)
            base = RingFacts(ring)
            for ideal in all_ideals(ring):
                if ideal.is_zero:
                    continue
                inst = Instance(ring, ideal, base)
                classes, carrier = inst.dup, inst.carrier
                dup = amalgamated_duplication(ring, ideal)
                graph = build_graph(dup.ring)
                name = dup.ring.spec_name
                assert classes.vertices.tolist() == list(graph.vertices), name
                assert classes.vertex_count == graph.vertex_count, name
                assert classes.diameter == diameter(graph), name
                assert classes.girth == graph.classes.girth, name
                assert classes.complete == graph.classes.complete, name
                assert classes.complete == eye_mask_is_complete(graph), name
                assert classes.universal_vertices == graph.classes.universal_vertices, name
                assert classes.universal_vertices == neighbor_count_universal_vertices(graph), name
                assert classes.bipartition == graph.classes.bipartition, name
                assert graph_facts(classes) == graph_facts(graph.classes), name
                edges = int(graph.adjacency.sum()) // 2
                assert classes.edge_count == graph.classes.edge_count == edges, name
                assert classes.square_zero == graph.classes.square_zero, name
                assert classes.square_zero == gather_zset_square_zero(dup.ring), name
                assert (int(carrier.nilpotents.sum()) == 1) == is_reduced(dup.ring), name
                assert carrier.minimal_primes == [
                    p.members for p in minimal_primes(dup.ring)
                ], name
                for mask, kernel in zip(carrier.kernel_masks, kernel_ideals(dup)):
                    assert set(np.flatnonzero(mask).tolist()) == kernel.members, name
                checks = structure_checks(
                    carrier,
                    base.zero_divisor_mask,
                    base.graph.classes.vertices,
                    classes,
                    base.edge_images_vanish,
                )
                assert checks == loop_structure_checks(dup, base.graph, graph), name
                assert_neighbour_rows(classes, graph)
                cliques += bool((classes.clique & (classes.sizes > 1)).any())
                instances += 1
        assert instances == 303 and cliques == 77


@pytest.mark.parametrize(
    "spec, ideal_spec, vertices, diam, complete, universal",
    [("Z9", "gen(3)", 8, 1, True, 8), ("Z27", "gen(9)", 26, 2, False, 8)],
)
def test_clique_classes_are_not_false_twins(spec, ideal_spec, vertices, diam, complete, universal):
    """Members of a key class that annihilate each other are adjacent, so
    they are no one's false twins: Z9 along (3) is the complete graph K8,
    and Z27 along (9) has eight universal vertices.  Merging such a class
    as false twins reads diameter 2, not complete, and no universal
    vertex."""
    with criterion(f"clique classes: {spec} along {ideal_spec}"):
        ring = parse_ring_spec(spec)
        classes = Instance(ring, parse_ideal_spec(ring, ideal_spec)).dup
        assert classes.vertex_count == vertices
        assert classes.diameter == diam
        assert classes.complete is complete
        assert len(classes.universal_vertices) == universal
        assert classes.girth == 3


def test_sweep_report_bytes_are_pinned(sweep_report):
    with criterion("pinned: acceptance-family JSON and CSV report digests"):
        for fmt, text in (
            ("json", sweep_report.to_json()),
            ("csv", sweep_report.to_csv()),
        ):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == REPORT_SHA256[fmt], fmt


def test_report_writer_matches_json_dumps(sweep_report):
    with criterion("oracles: acceptance-family JSON writer against json.dumps"):
        assert sweep_report.to_json() == dumps_report(sweep_report)


def test_wide_sweep_report_bytes_are_pinned():
    with criterion("pinned: Z17..Z48 and product-ring JSON and CSV report digests"):
        report = sweep(WIDE_FAMILY, "nonzero", workers=1)
        for fmt, text in (("json", report.to_json()), ("csv", report.to_csv())):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == WIDE_REPORT_SHA256[fmt], fmt


def test_all_ideals_sweep_report_bytes_are_pinned():
    with criterion("pinned: acceptance-family JSON and CSV report digests along every ideal"):
        report = sweep(FAMILY, "all", workers=1)
        for fmt, text in (("json", report.to_json()), ("csv", report.to_csv())):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == ALL_IDEALS_REPORT_SHA256[fmt], fmt


def test_large_sweep_report_bytes_are_pinned():
    with criterion("pinned: Z65..Z128 JSON report digest"):
        text = sweep(LARGE_FAMILY, "nonzero", workers=1).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LARGE_REPORT_SHA256


def test_sweep_determinism(sweep_report):
    with criterion("determinism: repeated sweep is byte-identical"):
        again = sweep(FAMILY, "nonzero", workers=2)
        assert again.to_json() == sweep_report.to_json()
        assert again.to_csv() == sweep_report.to_csv()
