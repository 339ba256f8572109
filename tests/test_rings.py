from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from amalgam_zdg import (
    FiniteRing,
    expand_family,
    Ideal,
    RingFacts,
    all_ideals,
    amalgamated_duplication,
    annihilator,
    ideal_from_generators,
    ideal_violations,
    is_field,
    is_ideal,
    is_prime_ideal,
    is_reduced,
    make_zn,
    prime_ideals,
    parse_ring_spec,
    principal_ideal,
    product_ring,
    verify_ring_axioms,
    zero_divisors,
)
from amalgam_zdg import rings
from amalgam_zdg.rings import MAX_TABLE_ORDER, cached_fact
from oracles import (
    annihilator_pair,
    brute_zero_divisors,
    minimal_primes,
    subset_scan_ideals,
    unique_closure_ideals,
)


def members(ideal):
    return set(ideal.members)


class _Counted:
    def __init__(self) -> None:
        self.calls = 0

    @cached_fact
    def fact(self) -> object:
        """A fresh object, counted."""
        self.calls += 1
        return object()


class TestCachedFact:
    def test_computed_once_per_object(self):
        a, b = _Counted(), _Counted()
        assert "fact" not in vars(a)
        first = a.fact
        assert a.fact is first and vars(a)["fact"] is first
        assert b.fact is not first
        assert (a.calls, b.calls) == (1, 1)

    def test_class_access_returns_the_descriptor_with_its_doc(self):
        assert isinstance(_Counted.fact, cached_fact)
        assert _Counted.fact.__doc__ == "A fresh object, counted."
        assert isinstance(FiniteRing._nilpotent_mask, cached_fact)

    def test_assignment_plants_a_value(self):
        fresh, read = _Counted(), _Counted()
        fresh.fact = "planted"
        read.fact
        read.fact = "replanted"
        assert (fresh.fact, fresh.calls) == ("planted", 0)
        assert (read.fact, read.calls) == ("replanted", 1)

    def test_prime_table_is_read_only_and_cached(self):
        """Each of the prime table's four arrays is what its docstring
        says, read off the products of Z12, and none of them is writable."""
        ring = make_zn(12)
        table = ring._prime_table
        idempotents, position, below, nil_times = table
        elems = [x for x in range(12) if x * x % 12 == x]
        assert idempotents.tolist() == elems
        assert position.tolist() == [elems.index(x) if x in elems else -1 for x in range(12)]
        assert below.tolist() == [[e * f % 12 == f for f in elems] for e in elems]
        nilpotent = [x for x in range(12) if x**12 % 12 == 0]
        assert nil_times.tolist() == [[x * e % 12 in nilpotent for e in elems] for x in range(12)]
        assert ring._prime_table is table
        assert not any(array.flags.writeable for array in table)


class TestCountHelpers:
    @given(
        hnp.arrays(
            st.sampled_from([np.bool_, np.int8, np.uint16, np.int64]),
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
        )
    )
    @example(np.zeros(0, dtype=bool))
    @example(np.zeros((3, 0), dtype=np.int64))
    @example(np.array([0, 5, 0], dtype=np.int8))
    @example(np.array([[True, True], [True, False]]))
    @settings(deadline=None)
    def test_helpers_agree_with_ndarray_any_and_all(self, values):
        """The whole-array tests are one count each, with the answers of
        ``ndarray.any`` and ``all`` on empty, integer and boolean arrays,
        as Python bools."""
        assert rings._any(values) is bool(values.any())
        assert rings._all(values) is bool(values.all())


class TestMakeZn:
    def test_z2_is_a_field_with_trivial_zero_divisors(self):
        r = make_zn(2)
        assert is_field(r)
        assert zero_divisors(r) == {0}

    def test_z6_has_the_expected_product(self):
        r = make_zn(6)
        assert r.mul(2, 3) == 0
        assert r.add(4, 5) == 3

    def test_z8_zero_divisors_match_brute_force(self):
        r = make_zn(8)
        oracle = brute_zero_divisors(r)
        assert zero_divisors(r) == oracle == {0, 2, 4, 6}

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_degenerate_moduli_rejected(self, n):
        with pytest.raises(ValueError):
            make_zn(n)

    @pytest.mark.parametrize("n", [2, 300, 1024])
    def test_tables_match_integer_arithmetic_across_row_blocks(self, n):
        r = make_zn(n)
        idx = np.arange(n)
        assert np.array_equal(r.add_table, (idx[:, None] + idx) % n)
        assert np.array_equal(r.mul_table, (idx[:, None] * idx) % n)

    def test_labels_and_spec_name(self):
        r = make_zn(5)
        assert r.labels == ("0", "1", "2", "3", "4")
        assert r.spec_name == "Z5"


class TestProducts:
    def test_tables_match_componentwise_arithmetic(self):
        moduli = (4, 6, 3)
        r = product_ring([make_zn(m) for m in moduli])
        digits = np.array(np.unravel_index(np.arange(r.order), moduli))
        for table, op in ((r.add_table, np.add), (r.mul_table, np.multiply)):
            combined = op(digits[:, :, None], digits[:, None, :])
            expected = np.ravel_multi_index(tuple(combined), moduli, mode="wrap")
            assert np.array_equal(table, expected)

    def test_z2xz2_zero_divisors(self):
        r = product_ring([make_zn(2), make_zn(2)])
        nonzero = {r.labels[v] for v in zero_divisors(r) - {r.zero}}
        assert nonzero == {"(1,0)", "(0,1)"}

    def test_z2xz3_matches_z6_zero_divisor_count(self):
        r = product_ring([make_zn(2), make_zn(3)])
        assert len(zero_divisors(r)) == len(zero_divisors(make_zn(6))) == 4

    def test_order_is_multiplicative(self):
        r = product_ring([make_zn(2), make_zn(3), make_zn(4)])
        assert r.order == 24
        assert r.spec_name == "Z2xZ3xZ4"

    def test_componentwise_tables(self):
        r = product_ring([make_zn(2), make_zn(3)])
        a = r.element_index("(1,2)")
        b = r.element_index("(1,1)")
        assert r.labels[r.add(a, b)] == "(0,0)"
        assert r.labels[r.mul(a, b)] == "(1,2)"


class TestTableOwnership:
    def test_package_built_tables_are_frozen_in_place(self, monkeypatch):
        handed = {}
        init = FiniteRing.__init__

        def spy(self, order, add_table, mul_table, *args, **kwargs):
            handed[self] = (add_table, mul_table)
            init(self, order, add_table, mul_table, *args, **kwargs)

        monkeypatch.setattr(FiniteRing, "__init__", spy)
        base = make_zn(6)
        ideal = ideal_from_generators(base, [3])
        built = [
            base,
            product_ring([make_zn(2), make_zn(3)]),
            amalgamated_duplication(base, ideal).ring,
        ]
        for ring in built:
            add, mul = handed[ring]
            assert np.shares_memory(add, ring.add_table), ring.spec_name
            assert np.shares_memory(mul, ring.mul_table), ring.spec_name
            assert not ring.add_table.flags.writeable
            assert not ring.mul_table.flags.writeable

    def test_package_built_tables_are_uint16_and_read_only(self):
        base = make_zn(6)
        ideal = ideal_from_generators(base, [3])
        built = [
            base,
            product_ring([make_zn(2), make_zn(3)]),
            amalgamated_duplication(base, ideal).ring,
        ]
        for ring in built:
            for table in (ring.add_table, ring.mul_table):
                assert table.dtype == np.uint16, ring.spec_name
                assert not table.flags.writeable, ring.spec_name

    @pytest.mark.parametrize(
        "build, bound",
        [
            (lambda: make_zn(1024), 1.25),
            # product_ring holds one gathered factor table besides its two.
            (lambda: product_ring([make_zn(32), make_zn(32)]), 1.75),
        ],
        ids=["make_zn", "product_ring"],
    )
    def test_builders_hold_no_wide_order_squared_intermediate(self, build, bound):
        tracemalloc.start()
        try:
            ring = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_bytes = 2 * ring.order**2 * np.dtype(np.uint16).itemsize
        assert peak < bound * table_bytes

    # 65539 narrowed to two bytes would read as 3, a valid element of Z5.
    @pytest.mark.parametrize("bad", [-1, 5, 65539])
    @pytest.mark.parametrize("which", ["add", "mul"])
    def test_caller_entries_are_range_checked_before_narrowing(self, bad, which):
        z5 = make_zn(5)
        add = np.array(z5.add_table, dtype=np.intp)
        mul = np.array(z5.mul_table, dtype=np.intp)
        (add if which == "add" else mul)[1, 2] = bad
        with pytest.raises(ValueError, match=f"{which}_table entries out of range"):
            FiniteRing(5, add, mul, 0, 1, z5.labels)

    def test_repeated_labels_are_rejected(self):
        # "a" would name element 1 alone, so gen(a) could not reach element 0.
        with pytest.raises(ValueError, match="labels must be distinct"):
            FiniteRing(2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1, ["a", "a"])

    def test_order_above_the_table_range_is_rejected_before_any_table(self):
        rings._check_table_order(MAX_TABLE_ORDER)
        with pytest.raises(ValueError, match="above 65536"):
            FiniteRing(MAX_TABLE_ORDER + 1, [], [], 0, 1, [])
        with pytest.raises(ValueError, match="above 65536"):
            make_zn(MAX_TABLE_ORDER + 1)
        with pytest.raises(ValueError, match="ring order 90000 is above 65536"):
            product_ring([make_zn(300), make_zn(300)])

    def test_caller_tables_are_copied(self):
        add = np.array(make_zn(3).add_table)
        mul = np.array(make_zn(3).mul_table)
        ring = FiniteRing(3, add, mul, 0, 1, ["0", "1", "2"])
        assert not np.shares_memory(add, ring.add_table)
        assert not np.shares_memory(mul, ring.mul_table)
        assert add.flags.writeable and mul.flags.writeable
        add[0, 0] = mul[0, 0] = 2
        assert ring.add(0, 0) == 0 and ring.mul(0, 0) == 0


class TestAxioms:
    def test_valid_rings_have_empty_reports(self):
        for ring in (make_zn(6), make_zn(9), product_ring([make_zn(2), make_zn(4)])):
            assert verify_ring_axioms(ring) == []

    def test_corrupted_multiplication_is_reported(self):
        r = make_zn(4)
        mul = np.array(r.mul_table)
        mul[2, 2] = 1
        broken = FiniteRing(4, r.add_table, mul, 0, 1, r.labels)
        report = verify_ring_axioms(broken)
        assert report
        assert any("associative" in line or "distributivity" in line for line in report)

    def test_zero_equal_one_is_reported(self):
        # Additive group Z2 with all-zero multiplication and "one" = 0.
        broken = FiniteRing(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]], 0, 0, ["0", "1"])
        report = verify_ring_axioms(broken)
        assert any("unity coincides with zero" in line for line in report)

    @given(st.integers(min_value=2, max_value=24))
    @settings(max_examples=23, deadline=None)
    def test_every_zn_satisfies_the_axioms(self, n):
        assert verify_ring_axioms(make_zn(n)) == []


class TestAnnihilators:
    def test_annihilator_of_four_in_z8(self):
        r = make_zn(8)
        assert members(annihilator(r, 4)) == {0, 2, 4, 6}

    def test_annihilator_of_zero_is_everything(self):
        r = make_zn(6)
        assert members(annihilator(r, 0)) == set(range(6))

    def test_annihilator_of_one_is_trivial(self):
        r = make_zn(6)
        assert members(annihilator(r, 1)) == {0}

    def test_pair_annihilator_in_z8(self):
        r = make_zn(8)
        assert members(annihilator_pair(r, 2, 4)) == {0, 4}

    def test_pair_with_zero_reduces_to_single(self):
        r = make_zn(8)
        assert annihilator_pair(r, 3, 0).members == annihilator(r, 3).members

    def test_pair_with_unit_is_trivial(self):
        r = make_zn(8)
        assert members(annihilator_pair(r, 1, 4)) == {0}

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_annihilators_are_ideals(self, n):
        r = make_zn(n)
        for a in r.elements():
            assert is_ideal(r, annihilator(r, a).members)


class TestIdeals:
    def test_principal_ideal_of_three_in_z6(self):
        r = make_zn(6)
        assert members(principal_ideal(r, 3)) == {0, 3}
        assert members(principal_ideal(r, 0)) == {0}
        assert members(principal_ideal(r, 1)) == set(range(6))

    def test_all_ideals_of_z6(self):
        r = make_zn(6)
        got = [set(i.members) for i in all_ideals(r)]
        assert got == [{0}, {0, 3}, {0, 2, 4}, {0, 1, 2, 3, 4, 5}]

    def test_fields_have_only_trivial_ideals(self):
        r = make_zn(7)
        assert [len(i) for i in all_ideals(r)] == [1, 7]

    def test_all_ideals_agree_with_subset_scan(self):
        for ring in (make_zn(4), make_zn(6), product_ring([make_zn(2), make_zn(2)])):
            got = [i.members for i in all_ideals(ring)]
            assert got == subset_scan_ideals(ring)

    def test_all_ideals_agree_with_unique_closure(self):
        """The lattice from packed principal rows and mask-scattered sums
        holds the same member sets, in the same order, as the closure
        built with ``np.unique`` per element and per pair; each principal
        ideal is the ``np.unique`` of its column."""
        specs = expand_family("Z2..Z64") + [
            "Z4xZ8", "Z2xZ16", "Z6xZ6", "Z2xZ2xZ8", "Z5xZ7", "Z4xZ4", "Z8xZ9"
        ]
        for spec in specs:
            ring = parse_ring_spec(spec)
            got = [i.members for i in all_ideals(ring)]
            assert got == unique_closure_ideals(ring), spec
            for a in ring.elements():
                column = np.unique(ring.mul_table[:, a]).tolist()
                assert principal_ideal(ring, a).members == frozenset(column), (spec, a)

    @pytest.mark.parametrize("cells", [1, 2048], ids=["one-ideal", "ragged"])
    def test_closure_rounds_in_groups_give_the_same_lattice(self, cells, monkeypatch):
        """At the default block size each round of the closure over these
        rings is one scatter; "one-ideal" sums one frontier ideal, one
        member at a time, and "ragged" groups of frontier ideals that do
        not divide the frontier."""
        monkeypatch.setattr(rings, "_BLOCK_CELLS", cells)
        for spec in ["Z48", "Z64", "Z4xZ8", "Z6xZ6", "Z2xZ2xZ8", "Z8xZ9"]:
            ring = parse_ring_spec(spec)
            got = [i.members for i in all_ideals(ring)]
            assert got == unique_closure_ideals(ring), spec

    def test_closure_reaches_a_non_principal_ideal(self):
        # F2[x,y]/(x,y)^2, element a + b*x + c*y at index 4a + 2b + c: every
        # ideal of Z_n and of their products is principal, but here the
        # maximal ideal (x, y) is only the sum of (x) and (y).
        idx = np.arange(8)
        a, b, c = idx >> 2, (idx >> 1) & 1, idx & 1
        add = idx[:, None] ^ idx[None, :]
        mul = (
            4 * (a[:, None] & a[None, :])
            + 2 * ((a[:, None] & b[None, :]) ^ (b[:, None] & a[None, :]))
            + ((a[:, None] & c[None, :]) ^ (c[:, None] & a[None, :]))
        )
        ring = FiniteRing(8, add, mul, 0, 4, [str(e) for e in range(8)], "F2[x,y]/(x,y)^2")
        assert verify_ring_axioms(ring) == []
        got = [i.members for i in all_ideals(ring)]
        assert got == subset_scan_ideals(ring) == unique_closure_ideals(ring)
        assert frozenset({0, 1, 2, 3}) in got
        assert all(principal_ideal(ring, e).members != {0, 1, 2, 3} for e in range(8))

    def test_klein_ring_has_four_ideals(self):
        # {0}, the two coordinate lines, and the whole ring; the diagonal
        # is additively closed but not absorbing.
        r = product_ring([make_zn(2), make_zn(2)])
        assert len(all_ideals(r)) == 4

    def test_generated_ideal_closure(self):
        r = make_zn(6)
        assert members(ideal_from_generators(r, [3])) == {0, 3}
        assert members(ideal_from_generators(r, [2, 3])) == set(range(6))

    def test_is_ideal_on_zero_divisor_sets(self):
        assert not is_ideal(make_zn(6), zero_divisors(make_zn(6)))
        assert is_ideal(make_zn(8), zero_divisors(make_zn(8)))
        assert is_ideal(make_zn(6), {0})

    @pytest.mark.parametrize("member", [-1, 6, 3.5], ids=["negative", "order", "float"])
    def test_members_outside_the_carrier_are_rejected(self, member):
        z6 = make_zn(6)
        with pytest.raises(ValueError, match="ideal members out of range"):
            Ideal(z6, frozenset({0, 3, member}))

    @pytest.mark.parametrize(
        "n, given, named",
        [
            (2, [0, -1], -1),
            (6, [0, -3], -3),
            (6, [0, 7], 7),
            (6, [0, 2**70], 2**70),
            (6, [0, 3.5], 3.5),
        ],
        ids=[
            "negative-wraps-to-last",
            "negative-wraps-to-ideal",
            "past-the-end",
            "beyond-intp",
            "float-truncates-to-ideal",
        ],
    )
    def test_members_outside_the_carrier_are_violations(self, n, given, named):
        # A negative index would wrap to the end of the tables: {0, -1} of
        # Z2 read as {0, 1}, and {0, -3} of Z6 as the ideal {0, 3}; a
        # float would be truncated, {0, 3.5} of Z6 read as {0, 3}.
        ring = make_zn(n)
        assert ideal_violations(ring, given) == [f"member {named} is outside 0..{n - 1}"]
        assert not is_ideal(ring, given)

    @pytest.mark.parametrize(
        "build, index",
        [
            (lambda z6: principal_ideal(z6, -1), -1),
            (lambda z6: ideal_from_generators(z6, [-2]), -2),
            (lambda z6: annihilator(z6, -3), -3),
            (lambda z6: annihilator(z6, 7), 7),
        ],
        ids=["principal", "generator", "annihilator", "annihilator-past-the-end"],
    )
    def test_element_indices_outside_the_carrier_are_refused(self, build, index):
        # A negative index would read the column of order + index: (-1) of
        # Z6 as (5), the whole ring, and Ann(-3) as Ann(3).
        with pytest.raises(ValueError, match=f"element index {index} is outside 0..5"):
            build(make_zn(6))

    def test_violation_messages_name_offenders(self):
        r = make_zn(6)
        report = ideal_violations(r, {0, 2, 3})
        assert any("not closed under addition" in line for line in report)
        assert not ideal_violations(r, {0, 3})

    def test_additive_subgroup_that_does_not_absorb_is_refused(self):
        # The diagonal of Z2 x Z2 is closed under addition, but
        # (0,1) * (1,1) = (0,1) lies outside it.
        r = product_ring([make_zn(2), make_zn(2)])
        diagonal = {r.element_index("(0,0)"), r.element_index("(1,1)")}
        assert ideal_violations(r, diagonal) == [
            "not absorbing: (0,1) * (1,1) = (0,1) is outside"
        ]


class TestElementPredicates:
    def test_zset_square_zero(self):
        assert RingFacts(make_zn(4)).graph.classes.square_zero
        assert RingFacts(make_zn(9)).graph.classes.square_zero
        assert not RingFacts(make_zn(6)).graph.classes.square_zero

    def test_domain_reduced_field_trio(self):
        z6 = make_zn(6)
        assert not RingFacts(z6).is_domain and is_reduced(z6) and not is_field(z6)
        z4 = make_zn(4)
        assert not is_reduced(z4)
        z5 = make_zn(5)
        assert is_field(z5) and RingFacts(z5).is_domain and is_reduced(z5)

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=29, deadline=None)
    def test_domain_iff_trivial_zero_divisors(self, n):
        r = make_zn(n)
        assert RingFacts(r).is_domain == (zero_divisors(r) == {r.zero})
        assert zero_divisors(r) == brute_zero_divisors(r)


class TestPrimes:
    def test_minimal_primes_of_z6(self):
        got = [set(p.members) for p in minimal_primes(make_zn(6))]
        assert got == [{0, 3}, {0, 2, 4}]

    def test_prime_of_a_field_is_zero(self):
        got = [set(p.members) for p in minimal_primes(make_zn(5))]
        assert got == [{0}]

    def test_z4_has_one_minimal_prime(self):
        got = [set(p.members) for p in minimal_primes(make_zn(4))]
        assert got == [{0, 2}]

    def test_minimal_rows_drop_strict_supersets_only(self):
        # Every prime of a finite ring is minimal, so the rings never
        # exercise the filter; these sets do: {0,1,2} strictly contains
        # {0,1}, which appears twice and is kept twice.
        sets = [{0, 1, 2}, {0, 1}, {0, 3}, {0, 1}, {0, 2, 3, 4}]
        masks = np.zeros((len(sets), 5), dtype=bool)
        for row, members in zip(masks, sets):
            row[sorted(members)] = True
        got = [set(np.flatnonzero(row).tolist()) for row in rings._minimal_rows(masks)]
        assert got == [s for s in sets if not any(t < s for t in sets)]
        assert got == [{0, 1}, {0, 3}, {0, 1}]

    def test_is_prime_ideal_direct(self):
        r = make_zn(8)
        assert is_prime_ideal(r, {0, 2, 4, 6})
        assert not is_prime_ideal(r, {0, 4})
        assert not is_prime_ideal(r, set(range(8)))
        assert not is_prime_ideal(r, {0, 2, 4, 6, 8})
        assert not is_prime_ideal(r, {-1, 0, 2, 4, 6})
        # Neither truncated to {0, 2, 4}, a prime of Z6, nor overflowing.
        z6 = make_zn(6)
        assert not is_prime_ideal(z6, [0, 2, 4.9])
        assert not is_prime_ideal(z6, [0, 2**70])

    def test_complement_of_primes_multiplicatively_closed(self):
        for spec_ring in (make_zn(12), product_ring([make_zn(2), make_zn(3)])):
            for p in prime_ideals(spec_ring):
                outside = set(spec_ring.elements()) - p.members
                for a in outside:
                    for b in outside:
                        assert spec_ring.mul(a, b) in outside
