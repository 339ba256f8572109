from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from amalgam_zdg import (
    DuplicationCarrier,
    DuplicationTooLargeError,
    FiniteRing,
    Ideal,
    NotAnIdealError,
    ZDGraph,
    all_ideals,
    amalgamated_duplication,
    build_graph,
    classify_zero_divisors,
    ideal_from_generators,
    is_ideal,
    make_zn,
    parse_ideal_spec,
    parse_ring_spec,
    structure_checks,
    verify_ring_axioms,
    zero_divisors,
)
from amalgam_zdg import RingFacts, amalgam, graphs
from oracles import (
    full_zero_divisor_mask,
    gather_idealization,
    gather_pair_tables,
    kernel_ideals,
    loop_structure_checks,
    minimal_primes,
    product_rep,
    verify_product_embedding,
)

Z8 = make_zn(8)
I8 = ideal_from_generators(Z8, [4])


def dup(ring, gens):
    return amalgamated_duplication(ring, ideal_from_generators(ring, gens))


def full_dup(ring):
    return amalgamated_duplication(ring, Ideal(ring, frozenset(ring.elements())))


def checks_of(a, graph=None):
    """``structure_checks`` of a duplication with its base ring's facts
    and the classes of the duplication's graph, by default its own."""
    base = RingFacts(a.base)
    graph = build_graph(a.ring) if graph is None else graph
    return structure_checks(
        a,
        base.zero_divisor_mask,
        base.graph.classes.vertices,
        graph.classes,
        base.edge_images_vanish,
    )


def classes_of(a):
    """The sets t1..t4 of ``classify_zero_divisors``, read off its masks."""
    masks = classify_zero_divisors(a, full_zero_divisor_mask(a.base))
    return tuple(frozenset(mask.nonzero()[0].tolist()) for mask in masks)


class TestConstruction:
    def test_carrier_name_is_formatted_on_first_read(self):
        carrier = DuplicationCarrier(Z8, I8)
        assert "spec_name" not in vars(carrier)
        assert carrier.spec_name == "Z8 join {0, 4}"
        assert repr(carrier) == "DuplicationCarrier('Z8 join {0, 4}')"

    def test_shared_carrier_arrays_are_read_only(self):
        """Every fact of an instance reads these arrays, so a write
        through any of them is refused."""
        carrier = DuplicationCarrier(Z8, I8)
        shared = {
            "members": carrier.members,
            "plus": carrier.plus,
            "times": carrier.times,
        }
        assert carrier.members.tolist() == [0, 4]
        assert carrier.plus.tolist() == [[r, (r + 4) % 8] for r in range(8)]
        assert carrier.times.tolist() == [[0, 4 * r % 8] for r in range(8)]
        for name, array in shared.items():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
            assert array.flags.writeable is False, name

    def test_index_of_finds_members_and_refuses_the_rest(self):
        carrier = DuplicationCarrier(Z8, I8)
        assert [carrier.index_of(3, i) for i in (0, 4)] == [6, 7]
        assert [carrier.pair_of(e) for e in (6, 7)] == [(3, 0), (3, 4)]
        for i in (2, 7):  # between the members, and above the last one
            with pytest.raises(ValueError, match=f"^{i} is not a member of the ideal$"):
                carrier.index_of(3, i)

    def test_order_and_identities(self):
        a = amalgamated_duplication(Z8, I8)
        assert a.ring.order == 16
        assert a.pair_of(a.ring.zero) == (0, 0)
        assert a.pair_of(a.ring.one) == (1, 0)
        assert verify_ring_axioms(a.ring) == []

    def test_known_nonzero_zero_divisors(self):
        a = amalgamated_duplication(Z8, I8)
        got = {a.ring.labels[v] for v in zero_divisors(a.ring) - {a.ring.zero}}
        assert got == {"(0,4)", "(4,4)", "(6,0)", "(2,0)", "(4,0)", "(2,4)", "(6,4)"}

    def test_two_element_field_full_duplication_is_one_edge(self):
        a = full_dup(make_zn(2))
        g = build_graph(a.ring)
        labels = {a.ring.labels[v] for v in g.vertices}
        assert labels == {"(0,1)", "(1,1)"}
        assert a.ring.mul(a.index_of(0, 1), a.index_of(1, 1)) == a.ring.zero

    def test_zero_ideal_reproduces_the_base_graph(self):
        r = make_zn(6)
        a = dup(r, [0])
        assert a.ring.order == r.order
        base, joined = build_graph(r), build_graph(a.ring)
        assert [a.pair_of(v)[0] for v in joined.vertices] == list(base.vertices)
        assert np.array_equal(base.adjacency, joined.adjacency)

    def test_non_ideal_is_rejected_with_detail(self):
        r = make_zn(6)
        with pytest.raises(NotAnIdealError, match="not closed under addition"):
            amalgamated_duplication(r, Ideal(r, frozenset({0, 1, 2})))

    def test_multiplication_rule(self):
        # (r,i)(s,j) = (rs, rj+si+ij) worked out at (1,3)(0,3) in Z6.
        r = make_zn(6)
        a = dup(r, [3])
        product = a.ring.mul(a.index_of(1, 3), a.index_of(0, 3))
        assert a.pair_of(product) == (0, 0)


class TestOrderLimit:
    """The order |R|*|I| of the duplication is checked against
    MAX_DUPLICATION_ORDER = 16384 before any of its tables is built."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Reached

        monkeypatch.setattr(amalgam, "_pair_tables", refuse)

    @pytest.mark.parametrize("build", [amalgamated_duplication])
    def test_oversized_carrier_fails_before_any_table(self, build, no_tables):
        ring = make_zn(131)
        with pytest.raises(DuplicationTooLargeError) as info:
            build(ring, Ideal(ring, frozenset(ring.elements())))
        message = str(info.value)
        assert message.startswith("the duplication of Z131 along {0, 1, 2,")
        assert message.endswith("has order 17161, above the limit of 16384")

    @pytest.mark.parametrize("build", [amalgamated_duplication])
    def test_limit_is_inclusive(self, build, no_tables):
        ring = make_zn(128)
        with pytest.raises(self.Reached):
            build(ring, Ideal(ring, frozenset(ring.elements())))

    @pytest.mark.parametrize("build", [amalgamated_duplication])
    def test_one_above_a_lowered_limit_is_refused(self, build, monkeypatch):
        monkeypatch.setattr(amalgam, "MAX_DUPLICATION_ORDER", 16)
        z4 = make_zn(4)
        assert build(z4, Ideal(z4, frozenset(z4.elements()))) is not None
        z17 = make_zn(17)
        with pytest.raises(DuplicationTooLargeError, match="order 17, above the limit of 16"):
            build(z17, Ideal(z17, frozenset({0})))

    def test_tables_are_written_without_a_wide_intermediate(self):
        ring = make_zn(43)
        ideal = Ideal(ring, frozenset(ring.elements()))
        tracemalloc.start()
        try:
            built = amalgamated_duplication(ring, ideal).ring
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 * built.order**2 * built.mul_table.itemsize


class TestIdealization:
    def test_square_zero_multiplication(self):
        r = make_zn(4)
        ext = gather_idealization(r, ideal_from_generators(r, [2]))
        v = ext.element_index("(1,2)")
        assert ext.labels[ext.mul(v, v)] == "(1,0)"

    def test_second_component_squares_to_zero(self):
        r = make_zn(6)
        ext = gather_idealization(r, ideal_from_generators(r, [3]))
        zero_part = ext.element_index("(0,3)")
        assert ext.mul(zero_part, zero_part) == ext.zero

    def test_tables_match_duplication_when_ideal_squares_to_zero(self):
        a = amalgamated_duplication(Z8, I8)
        ext = gather_idealization(Z8, I8)
        assert np.array_equal(a.ring.mul_table, ext.mul_table)
        assert np.array_equal(a.ring.add_table, ext.add_table)

    def test_tables_differ_when_ideal_square_is_nonzero(self):
        r = make_zn(6)
        ideal = ideal_from_generators(r, [2])
        a = amalgamated_duplication(r, ideal)
        ext = gather_idealization(r, ideal)
        assert not np.array_equal(a.ring.mul_table, ext.mul_table)

    @pytest.mark.parametrize("step", [1, 3], ids=["one-coordinate", "ragged"])
    def test_comparator_reads_the_last_block(self, step, monkeypatch):
        # Z8 along {0, 4} squares to zero.  With 7 + 4 set to 6, (7+4)*4 is
        # 6*4 = 0 where 7*4 = 4, a difference read at first coordinate 7
        # alone.  Three coordinates per block leave a last block of two.
        monkeypatch.setattr(amalgam, "_BLOCK_CELLS", step * 8 * 2 * 2)
        assert amalgam.matches_idealization(DuplicationCarrier(Z8, I8))
        ring, ideal = _planted("Z8", "gen(4)", ("add", 7, 4, 6))
        assert _differing_firsts(ring, ideal) == [7]
        assert not amalgam.matches_idealization(DuplicationCarrier(ring, ideal))

    @pytest.mark.parametrize(
        "spec, ideal_spec, square_zero",
        [("Z43", "full", False), ("Z8", "gen(2)", False), ("Z8", "gen(4)", True)],
    )
    def test_comparator_answers_in_one_coordinate_blocks(
        self, spec, ideal_spec, square_zero, monkeypatch
    ):
        # One first coordinate per block: when I*I != 0 the i*j terms of
        # first coordinate 0 differ; when I*I = 0 every block is compared.
        ring = parse_ring_spec(spec)
        carrier = DuplicationCarrier(ring, parse_ideal_spec(ring, ideal_spec))
        n, k = ring.order, len(carrier.members)
        monkeypatch.setattr(amalgam, "_BLOCK_CELLS", n * k * k)
        assert amalgam.matches_idealization(carrier) is square_zero

    @pytest.mark.parametrize(
        "table, x, y, value, firsts",
        [("mul", 4, 4, 4, [0, 4]), ("mul", 4, 5, 0, [1, 5]), ("add", 7, 4, 6, [7])],
        ids=["origin", "first-block", "last-block"],
    )
    def test_comparator_reports_a_planted_cell(self, table, x, y, value, firsts, monkeypatch):
        # Z8 along {0, 4} squares to zero, so both tables agree until one
        # symmetric pair of base-table cells is planted: 4*4 := 4 puts an
        # i*j term in first coordinate 0, 4*5 := 0 is first read at first
        # coordinate 1, and 7 + 4 := 6 only at 7.  One first coordinate
        # per block.
        monkeypatch.setattr(amalgam, "_BLOCK_CELLS", 8 * 2 * 2)
        ring, ideal = _planted("Z8", "gen(4)", (table, x, y, value))
        assert _differing_firsts(ring, ideal) == firsts
        assert not amalgam.matches_idealization(DuplicationCarrier(ring, ideal))

    @pytest.mark.parametrize(
        "member, matches", [(0, True), (4, False)], ids=["sums-agree", "sums-differ"]
    )
    def test_comparator_compares_the_sums_where_products_differ(self, member, matches):
        # With 0 + 0 set to 4, rows 0 and 4 of Z8's addition table agree on
        # column 0 and differ on column 4.  Then 1 + i := 0 makes (1+i)*4 =
        # 0 where 1*4 = 4, and the cells (1, i)(s, 4) hold 0 + s*i and
        # 4 + s*i: for i = 0, s*i is 0 for every s and the tables agree; for
        # i = 4 they differ at every odd s.
        ring, ideal = _planted("Z8", "gen(4)", ("add", 0, 0, 4), ("add", 1, member, 0))
        assert _differing_firsts(ring, ideal) == ([] if matches else [1])
        assert amalgam.matches_idealization(DuplicationCarrier(ring, ideal)) is matches

    def test_comparator_matches_whole_tables_on_every_planted_cell(self):
        # Every single-cell edit of Z8's tables that keeps {0, 4} an ideal,
        # commutative or not: the comparator against whole-table equality
        # of the element-by-element gathers.
        outcomes = []
        for table, x, y, value in itertools.product(("add", "mul"), range(8), range(8), range(8)):
            tables = {"add": np.array(Z8.add_table), "mul": np.array(Z8.mul_table)}
            if tables[table][x, y] == value:
                continue
            tables[table][x, y] = value
            ring = FiniteRing(8, tables["add"], tables["mul"], 0, 1, Z8.labels, "Z8*")
            if not is_ideal(ring, I8.members):
                continue
            _, mul, ideal_mul = gather_pair_tables(ring, I8.members)
            whole = np.array_equal(mul, ideal_mul)
            carrier = DuplicationCarrier(ring, Ideal(ring, I8.members))
            assert amalgam.matches_idealization(carrier) == whole, (table, x, y, value)
            outcomes.append(whole)
        assert len(outcomes) == 776 and sum(outcomes) == 712


def _planted(spec, ideal_spec, *plants):
    """``spec``'s ring with x op y and y op x set to ``value`` in its
    addition or multiplication table for each plant (table, x, y, value),
    and the members of its ideal ``ideal_spec``, which still form one."""
    base = parse_ring_spec(spec)
    tables = {"add": np.array(base.add_table), "mul": np.array(base.mul_table)}
    for table, x, y, value in plants:
        tables[table][x, y] = tables[table][y, x] = value
    ring = FiniteRing(
        base.order, tables["add"], tables["mul"], base.zero, base.one, base.labels, spec + "*"
    )
    members = parse_ideal_spec(base, ideal_spec).members
    assert is_ideal(ring, members)
    return ring, Ideal(ring, members)


def _differing_firsts(ring, ideal):
    """The first coordinates r whose cells (r, i)(s, j) differ between the
    gathered duplication and idealization tables."""
    _, mul, ideal_mul = gather_pair_tables(ring, ideal.members)
    rows = np.flatnonzero((mul != ideal_mul).any(axis=1))
    return np.unique(rows // len(ideal)).tolist()


@pytest.mark.parametrize("seed", range(40))
def test_exclusivity_on_classes_matches_the_lifted_graph(seed):
    """``_neighbours_inside`` on random class graphs, clique classes
    included, against the neighbour sets of the graph they lift to.  The
    vertices a duplication checks are never in a clique class, so the
    sweep's instances leave that case to this test."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 6))
    q = np.triu(rng.random((c, c)) < 0.5, 1)
    q |= q.T
    sizes = rng.integers(1, 4, size=c)
    clique = rng.random(c) < 0.5
    order = int(sizes.sum()) + 3
    class_of = np.full(order, -1, dtype=np.intp)
    class_of[rng.permutation(order)[: sizes.sum()]] = np.repeat(np.arange(c), sizes)
    classes = graphs.ClassGraph(q, sizes, clique, class_of)
    verts = classes.vertices
    elems = rng.choice(verts, size=int(rng.integers(0, len(verts) + 1)), replace=False)
    allowed = rng.choice(order, size=int(rng.integers(0, order + 1)), replace=False)
    lifted = (q | np.diag(clique))[class_of[verts]][:, class_of[verts]]
    np.fill_diagonal(lifted, False)
    at = {v: t for t, v in enumerate(verts.tolist())}
    expected = all(
        set(verts[lifted[at[v]]].tolist()) <= set(allowed.tolist()) for v in elems.tolist()
    )
    assert amalgam._neighbours_inside(classes, elems, allowed) is expected


class TestProductEmbedding:
    def test_known_images(self):
        a = amalgamated_duplication(Z8, I8)
        assert product_rep(a, a.index_of(4, 4)) == (4, 0)
        assert product_rep(a, a.ring.zero) == (0, 0)

    @pytest.mark.parametrize(
        "ring,gens",
        [(Z8, [4]), (make_zn(6), [3]), (make_zn(4), [1]), (parse_ring_spec("Z2xZ2"), [1])],
    )
    def test_embedding_is_exhaustively_verified(self, ring, gens):
        a = amalgamated_duplication(ring, ideal_from_generators(ring, gens))
        assert verify_product_embedding(a) == []


class TestProjectionKernels:
    def test_kernels_of_z6(self):
        a = dup(make_zn(6), [3])
        o1, o2 = kernel_ideals(a)
        assert {a.ring.labels[m] for m in o1} == {"(0,0)", "(0,3)"}
        assert {a.ring.labels[m] for m in o2} == {"(0,0)", "(3,3)"}

    def test_kernels_are_ideals_of_matching_size(self):
        a = amalgamated_duplication(Z8, I8)
        o1, o2 = kernel_ideals(a)
        assert len(o1) == len(o2) == len(a.ideal)
        assert is_ideal(a.ring, o1.members)
        assert is_ideal(a.ring, o2.members)
        assert o1.members & o2.members == {a.ring.zero}
        for kernel, mask in zip((o1, o2), a.kernel_masks):
            assert frozenset(np.flatnonzero(mask).tolist()) == kernel.members
            assert not mask.flags.writeable

    def test_domain_duplication_minimal_primes_are_the_kernels(self):
        a = full_dup(make_zn(3))
        got = {p.members for p in minimal_primes(a.ring)}
        assert got == {kernel.members for kernel in kernel_ideals(a)}
        assert set(a.minimal_primes) == got

    def test_minimal_primes_match_the_materialized_ring_at_128_idempotents(self):
        """Z6xZ6xZ30 has 2**7 = 128 idempotents, the most of any spec
        within the order limit, so its prime table is the largest; along
        its two smallest nonzero ideals the carrier's minimal primes, read
        on the grid, equal those of the duplication's own tables.  Such an
        ideal lies outside one of the ring's seven primes, whose two lifts
        differ, so each duplication has eight."""
        ring = parse_ring_spec("Z6xZ6xZ30")
        assert len(ring._prime_table[0]) == 128
        nonzero = [ideal for ideal in all_ideals(ring) if not ideal.is_zero]
        for ideal in nonzero[:2]:
            carrier = DuplicationCarrier(ring, ideal)
            dup = amalgamated_duplication(ring, ideal)
            expected = [p.members for p in minimal_primes(dup.ring)]
            assert carrier.minimal_primes == expected, dup.ring.spec_name
            assert len(expected) == 8, dup.ring.spec_name

    @pytest.mark.parametrize("spec", ["Z2xZ8xZ8", "Z128"])
    def test_minimal_prime_masks_hold_no_wide_carrier_copy(self, spec):
        """The primes are read on the (n, k) grid and their minimality on
        packed bits: no intp copy of the carrier's indices or of its prime
        rows, so the peak stays within 24 bytes a carrier element (6 and 2
        rows of one byte an element here)."""
        ring = parse_ring_spec(spec)
        carrier = DuplicationCarrier(ring, Ideal(ring, frozenset(ring.elements())))
        ring._nilpotent_mask
        tracemalloc.start()
        try:
            carrier.minimal_prime_masks
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * carrier.order


class TestClassification:
    def test_z8_classes(self):
        a = amalgamated_duplication(Z8, I8)
        t1, t2, t3, t4 = classes_of(a)
        zero = a.ring.zero
        lab = a.ring.labels
        assert {lab[v] for v in t1 - {zero}} == {"(0,4)"}
        assert {lab[v] for v in t2 - {zero}} == {"(4,4)"}
        assert {lab[v] for v in t3} == {
            "(2,0)", "(2,4)", "(4,0)", "(4,4)", "(6,0)", "(6,4)",
        }
        assert t4 == frozenset()

    def test_domain_case_has_only_kernel_classes(self):
        a = full_dup(make_zn(3))
        t1, t2, t3, t4 = classes_of(a)
        zero = a.ring.zero
        assert t3 == t4 == frozenset()
        vertices = frozenset(build_graph(a.ring).vertices)
        assert (t1 | t2) - {zero} == vertices

    def test_zero_ideal_classes_collapse(self):
        a = dup(make_zn(6), [0])
        t1, t2, _, t4 = classes_of(a)
        zero = a.ring.zero
        assert t1 == t2 == frozenset({zero})
        assert t4 == frozenset()

    def test_t4_disjoint_from_earlier_classes(self):
        a = full_dup(make_zn(4))
        t1, t2, t3, t4 = classes_of(a)
        assert t4
        assert not t4 & (t1 | t2 | t3)
        base_zd = zero_divisors(a.base)
        assert all(a.pair_of(v)[0] not in base_zd for v in t4)

    @pytest.mark.parametrize(
        "spec,ideal_spec",
        [
            ("Z6", "gen(3)"),
            ("Z6", "gen(2)"),
            ("Z8", "gen(2)"),
            ("Z9", "full"),
            ("Z2xZ2", "gen((1,0))"),
            ("Z4", "full"),
            ("Z12", "gen(6)"),
        ],
    )
    def test_union_matches_brute_force(self, spec, ideal_spec):
        ring = parse_ring_spec(spec)
        a = amalgamated_duplication(ring, parse_ideal_spec(ring, ideal_spec))
        t1, t2, t3, t4 = classes_of(a)
        zero = a.ring.zero
        assert (t1 | t2 | t3 | t4) - {zero} == zero_divisors(a.ring) - {zero}


class TestStructure:
    def test_crossing_edges_in_z6(self):
        a = dup(make_zn(6), [3])
        checks = checks_of(a)
        assert "crossings" not in checks
        assert "base embedding" not in checks

    def test_exclusive_neighbors_for_regular_members(self):
        checks = checks_of(full_dup(make_zn(3)))
        assert checks == []

    def test_base_images_missing_from_the_graph_fail_the_embedding(self):
        a = dup(make_zn(6), [3])
        base_graph, full = build_graph(a.base), build_graph(a.ring)
        images = {a.index_of(x, 0) for x in base_graph.vertices}
        keep = [p for p, v in enumerate(full.vertices) if v not in images]
        graph = ZDGraph([full.vertices[p] for p in keep], full.adjacency[np.ix_(keep, keep)])
        checks = checks_of(a, graph)
        assert "base embedding" in checks
        assert checks == loop_structure_checks(a, base_graph, graph)

    def test_zero_ideal_is_vacuous(self):
        checks = checks_of(dup(make_zn(6), [0]))
        assert checks == []
