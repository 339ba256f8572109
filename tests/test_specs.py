from __future__ import annotations

import tracemalloc

import pytest

from amalgam_zdg import SpecError, expand_family, parse_ideal_spec, parse_ring_spec
from amalgam_zdg import specs
from amalgam_zdg.specs import MAX_RING_ORDER


def _no_tables(*args):
    raise AssertionError("a ring table was built for an oversized spec")


class TestRingSpecs:
    def test_simple_modular_ring(self):
        assert parse_ring_spec("Z6").order == 6

    def test_leading_z_is_case_insensitive(self):
        assert parse_ring_spec("z6").spec_name == "Z6"

    def test_two_and_three_factor_products(self):
        assert parse_ring_spec("Z2xZ3").order == 6
        r = parse_ring_spec("Z2xZ2xZ2")
        assert r.order == 8
        assert r.labels[0] == "(0,0,0)"

    @pytest.mark.parametrize(
        "bad",
        ["", "Z1", "Z0", "Q7", "Z2xZ2xZ2xZ2", "Z2 x Z3", "Zx", "Z-4"],
    )
    def test_rejected_specs(self, bad):
        with pytest.raises(SpecError):
            parse_ring_spec(bad)

    def test_error_names_the_offending_token(self):
        with pytest.raises(SpecError, match="Q7"):
            parse_ring_spec("Q7")

    @pytest.mark.parametrize("big", ["Z100000", "Z20xZ20xZ20"])
    def test_oversized_specs_fail_before_any_table(self, big, monkeypatch):
        monkeypatch.setattr(specs, "make_zn", _no_tables)
        monkeypatch.setattr(specs, "product_ring", _no_tables)
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="above the limit"):
                parse_ring_spec(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("big", ["Z" + "9" * 5000, "Z2xZ" + "1" * 4097])
    def test_overlong_modulus_is_rejected_before_int(self, big):
        with pytest.raises(SpecError, match="digits puts the ring order above the limit"):
            parse_ring_spec(big)

    def test_leading_zeros_do_not_count_as_digits(self):
        zeros = "0" * 5000
        assert parse_ring_spec(f"Z{zeros}6").spec_name == "Z6"
        with pytest.raises(SpecError, match="order 99999, above the limit"):
            parse_ring_spec(f"Z{zeros}99999")

    def test_order_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(specs, "make_zn", lambda n: n)
        monkeypatch.setattr(specs, "product_ring", tuple)
        assert parse_ring_spec(f"Z{MAX_RING_ORDER}") == MAX_RING_ORDER
        assert parse_ring_spec("Z64xZ64") == (64, 64)
        with pytest.raises(SpecError, match="above the limit"):
            parse_ring_spec("Z64xZ65")


class TestFamilies:
    def test_range_expansion(self):
        assert expand_family("Z2..Z5") == ["Z2", "Z3", "Z4", "Z5"]

    def test_mixed_list(self):
        assert expand_family("Z2..Z4,Z2xZ2") == ["Z2", "Z3", "Z4", "Z2xZ2"]

    def test_entries_are_canonicalized(self):
        assert expand_family("z6") == ["Z6"]

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "Z5..Z2", "Z2,,Z3", "Z1..Z4", f"Z2..Z{MAX_RING_ORDER + 1}"],
    )
    def test_rejected_families(self, bad):
        with pytest.raises(SpecError):
            expand_family(bad)

    @pytest.mark.parametrize(
        "bad", ["Z2..Z" + "9" * 5000, "Z" + "9" * 5000 + "..Z" + "9" * 5001]
    )
    def test_overlong_range_end_is_rejected_before_int(self, bad):
        with pytest.raises(SpecError, match="digits puts the ring order above the limit"):
            expand_family(bad)


class TestIdealSpecs:
    def test_zero_and_full(self):
        r = parse_ring_spec("Z6")
        assert set(parse_ideal_spec(r, "zero").members) == {0}
        assert len(parse_ideal_spec(r, "full")) == 6

    def test_generated_ideal(self):
        r = parse_ring_spec("Z6")
        assert set(parse_ideal_spec(r, "gen(3)").members) == {0, 3}

    def test_unit_generates_everything(self):
        r = parse_ring_spec("Z6")
        assert parse_ideal_spec(r, "gen(5)").is_full

    def test_tuple_labels_for_products(self):
        r = parse_ring_spec("Z2xZ2")
        ideal = parse_ideal_spec(r, "gen((1,0))")
        assert ideal.labels() == ("(0,0)", "(1,0)")

    def test_multiple_generators(self):
        r = parse_ring_spec("Z12")
        assert set(parse_ideal_spec(r, "gen(4,6)").members) == {0, 2, 4, 6, 8, 10}

    @pytest.mark.parametrize("bad", ["", "gen()", "gen(7)", "span(2)", "gen((2)"])
    def test_rejected_ideal_specs(self, bad):
        r = parse_ring_spec("Z6")
        with pytest.raises(SpecError):
            parse_ideal_spec(r, bad)

    def test_unknown_label_is_named(self):
        r = parse_ring_spec("Z6")
        with pytest.raises(SpecError, match="'9'"):
            parse_ideal_spec(r, "gen(9)")
