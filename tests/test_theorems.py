from __future__ import annotations

import gc
import json
import os
import pickle
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from functools import cached_property
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amalgam_zdg import (
    ClassGraph,
    DuplicationCarrier,
    DuplicationTooLargeError,
    FiniteRing,
    Instance,
    PreconditionError,
    RingFacts,
    Status,
    TheoremId,
    InstanceRecord,
    SweepReport,
    VerificationOutcome,
    ZDGraph,
    check,
    expand_family,
    instance_invariant_violations,
    parse_ideal_spec,
    parse_ring_spec,
    run_all,
    sweep,
)
from amalgam_zdg import amalgam, graphs, rings, theorems
from amalgam_zdg.theorems import (
    _BLAS_THREAD_VARS,
    _evaluate,
    _graph_invariant_violations,
    _sweep_ring,
    _worker_pool,
)
from oracles import dumps_report, report_json_dict

EXPECTED_ORDER = [
    TheoremId.C3_3,
    TheoremId.C3_4,
    TheoremId.T4_8,
    TheoremId.L4_9,
    TheoremId.C4_10,
    TheoremId.P4_11,
    TheoremId.T4_12,
    TheoremId.P4_13,
    TheoremId.L4_15,
    TheoremId.P4_16,
]


def instance(spec, ideal_spec):
    ring = parse_ring_spec(spec)
    return ring, parse_ideal_spec(ring, ideal_spec)


class TestStatusAssignment:
    @given(st.booleans(), st.booleans())
    def test_status_is_derived_soundly(self, hyp, concl):
        def planted(inst):
            if not hyp:
                raise theorems._Vacuous("hypotheses fail")
            return concl, "note", "w"

        inst = Instance(*instance("Z6", "gen(3)"))
        with patch.dict(theorems._REGISTRY, {TheoremId.C3_3: planted}):
            outcome = _evaluate(TheoremId.C3_3, inst)
        assert (outcome.status is Status.COUNTEREXAMPLE) == (hyp and not concl)
        assert (outcome.status is Status.VACUOUS) == (not hyp)
        if outcome.status is Status.COUNTEREXAMPLE:
            assert outcome.witness == "w"
        else:
            assert outcome.witness is None


class TestGirthClassification:
    def test_triangle_for_non_domain(self):
        out = check(TheoremId.C3_3, *instance("Z6", "gen(3)"))
        assert out.status is Status.VERIFIED and "girth = 3" in out.note

    def test_four_cycle_for_domain_with_large_ideal(self):
        out = check(TheoremId.C3_3, *instance("Z3", "full"))
        assert out.status is Status.VERIFIED and "girth = 4" in out.note

    def test_infinite_for_the_two_element_field(self):
        out = check(TheoremId.C3_3, *instance("Z2", "full"))
        assert out.status is Status.VERIFIED and "girth = inf" in out.note

    def test_zero_ideal_violates_the_precondition(self):
        with pytest.raises(PreconditionError):
            check(TheoremId.C3_3, *instance("Z6", "zero"))


class TestDomainEquivalences:
    def test_all_true_for_a_field(self):
        out = check(TheoremId.C3_4, *instance("Z3", "full"))
        assert out.status is Status.VERIFIED and "domain = True" in out.note

    def test_all_false_for_z6(self):
        out = check(TheoremId.C3_4, *instance("Z6", "gen(3)"))
        assert out.status is Status.VERIFIED and "domain = False" in out.note

    def test_two_element_field_uses_the_infinite_branch(self):
        out = check(TheoremId.C3_4, *instance("Z2", "full"))
        assert out.status is Status.VERIFIED


class TestCompletenessEquivalence:
    def test_triangle_case_all_true(self):
        out = check(TheoremId.T4_8, *instance("Z4", "gen(2)"))
        assert out.status is Status.VERIFIED and "complete = True" in out.note

    def test_prime_square_case_all_false(self):
        out = check(TheoremId.T4_8, *instance("Z9", "full"))
        assert out.status is Status.VERIFIED and "complete = False" in out.note

    def test_klein_line_ideal_all_false(self):
        out = check(TheoremId.T4_8, *instance("Z2xZ2", "gen((1,0))"))
        assert out.status is Status.VERIFIED and "complete = False" in out.note

    def test_two_element_field_is_excluded_not_a_counterexample(self):
        out = check(TheoremId.T4_8, *instance("Z2", "full"))
        assert out.status is Status.VACUOUS
        assert "excluded instance" in out.note


class TestDiameterThreeChecks:
    def test_ideal_zdivs_on_z4_full(self):
        out = check(TheoremId.L4_9, *instance("Z4", "full"))
        assert out.status is Status.VERIFIED
        assert "diameter(duplication graph) = 3" in out.note

    def test_ideal_zdivs_vacuous_when_zdivs_not_ideal(self):
        out = check(TheoremId.L4_9, *instance("Z6", "gen(3)"))
        assert out.status is Status.VACUOUS

    def test_ideal_zdivs_vacuous_for_domains(self):
        out = check(TheoremId.L4_9, *instance("Z5", "full"))
        assert out.status is Status.VACUOUS

    def test_universal_vertex_on_z2xz3_full(self):
        out = check(TheoremId.C4_10, *instance("Z2xZ3", "full"))
        assert out.status is Status.VERIFIED

    def test_universal_vertex_on_klein_full(self):
        out = check(TheoremId.C4_10, *instance("Z2xZ2", "full"))
        assert out.status is Status.VERIFIED

    def test_universal_vertex_vacuous_when_ideal_inside_zdivs(self):
        out = check(TheoremId.C4_10, *instance("Z8", "gen(4)"))
        assert out.status is Status.VACUOUS

    def test_persistence_from_base_diameter_three(self):
        out = check(TheoremId.P4_11, *instance("Z2xZ4", "gen((0,1))"))
        assert out.status is Status.VERIFIED

    def test_persistence_vacuous_for_smaller_diameter(self):
        out = check(TheoremId.P4_11, *instance("Z6", "gen(3)"))
        assert out.status is Status.VACUOUS
        out = check(TheoremId.P4_11, *instance("Z4", "gen(2)"))
        assert out.status is Status.VACUOUS

    def test_nonideal_zdivs_on_z6(self):
        out = check(TheoremId.T4_12, *instance("Z6", "gen(3)"))
        assert out.status is Status.VERIFIED
        assert "diameter(duplication graph) = 3" in out.note

    def test_nonideal_zdivs_on_klein_line(self):
        out = check(TheoremId.T4_12, *instance("Z2xZ2", "gen((1,0))"))
        assert out.status is Status.VERIFIED

    def test_nonideal_zdivs_vacuous_on_z8(self):
        out = check(TheoremId.T4_12, *instance("Z8", "gen(4)"))
        assert out.status is Status.VACUOUS


class TestDiameterTwoPreserved:
    def test_z8_half_ideal(self):
        out = check(TheoremId.P4_13, *instance("Z8", "gen(4)"))
        assert out.status is Status.VERIFIED
        assert "non-reduced variant: hypotheses hold" in out.note
        assert "diameter(duplication graph) = 2" in out.note

    def test_vacuous_when_zdivs_not_ideal(self):
        out = check(TheoremId.P4_13, *instance("Z6", "gen(3)"))
        assert out.status is Status.VACUOUS

    def test_vacuous_when_base_diameter_differs(self):
        out = check(TheoremId.P4_13, *instance("Z4", "gen(2)"))
        assert out.status is Status.VACUOUS


class TestAnnihilatorsMeetIdeal:
    def test_vacuous_when_duplication_diameter_is_not_two(self):
        out = check(TheoremId.L4_15, *instance("Z4", "full"))
        assert out.status is Status.VACUOUS

    def test_vacuous_when_ideal_inside_zdivs(self):
        out = check(TheoremId.L4_15, *instance("Z8", "gen(4)"))
        assert out.status is Status.VACUOUS

    def test_trivially_verified_for_domains_with_diameter_two(self):
        out = check(TheoremId.L4_15, *instance("Z3", "full"))
        assert out.status is Status.VERIFIED


class TestUniversalVertexPrime:
    def test_triangle_duplication(self):
        out = check(TheoremId.P4_16, *instance("Z4", "gen(2)"))
        assert out.status is Status.VERIFIED

    def test_two_element_field(self):
        out = check(TheoremId.P4_16, *instance("Z2", "full"))
        assert out.status is Status.VERIFIED

    def test_vacuous_without_universal_vertex(self):
        out = check(TheoremId.P4_16, *instance("Z6", "gen(3)"))
        assert out.status is Status.VACUOUS


class TestRunAll:
    def test_every_statement_is_a_registered_check(self):
        assert set(TheoremId) == set(theorems._REGISTRY)

    def test_z6_half_ideal_produces_ten_outcomes(self):
        outs = run_all(*instance("Z6", "gen(3)"))
        assert [o.theorem for o in outs] == EXPECTED_ORDER
        assert sum(o.status is Status.COUNTEREXAMPLE for o in outs) == 0
        by_id = {o.theorem: o.status for o in outs}
        assert by_id[TheoremId.C3_3] is Status.VERIFIED
        assert by_id[TheoremId.C3_4] is Status.VERIFIED
        assert by_id[TheoremId.T4_8] is Status.VERIFIED
        assert by_id[TheoremId.T4_12] is Status.VERIFIED
        vacuous = [t for t, s in by_id.items() if s is Status.VACUOUS]
        assert len(vacuous) == 6

    def test_two_element_field_has_no_counterexamples(self):
        outs = run_all(*instance("Z2", "full"))
        assert sum(o.status is Status.COUNTEREXAMPLE for o in outs) == 0

    def test_zero_ideal_reports_precondition_notes(self):
        outs = run_all(*instance("Z6", "zero"))
        noted = {
            o.theorem
            for o in outs
            if o.status is Status.VACUOUS and "precondition" in (o.note or "")
        }
        assert noted == {
            TheoremId.C3_3,
            TheoremId.C3_4,
            TheoremId.T4_8,
            TheoremId.T4_12,
        }


P5 = [(v, v + 1) for v in range(4)]


class TestInstanceInvariants:
    @pytest.mark.parametrize(
        "spec,ideal_spec",
        [("Z6", "gen(3)"), ("Z8", "gen(2)"), ("Z2xZ2", "full"), ("Z9", "full")],
    )
    def test_no_violations_on_healthy_instances(self, spec, ideal_spec):
        ring, ideal = instance(spec, ideal_spec)
        assert instance_invariant_violations(Instance(ring, ideal)) == []

    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([(0, 1), (2, 3), (3, 4)], "graph is disconnected"),
            (P5, "graph has diameter 4 > 3"),
            (P5 + [(4, 0)], "graph has girth 5 outside {3, 4, inf}"),
        ],
        ids=["two-components", "P5", "C5"],
    )
    def test_graph_invariants_report_synthetic_failures(self, edges, expected):
        adj = np.zeros((5, 5), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        classes = ZDGraph(range(5), adj).classes
        violations = _graph_invariant_violations("base", classes)
        assert violations == [f"base {expected}"]

    def test_square_zero_table_identity_reads_the_last_slab(self):
        # Z8 along {0, 4} squares to zero.  With 7 + 4 set to 6 (both
        # orders), (7+4)*4 is 6*4 = 0 where 7*4 = 4, so the tables differ
        # only at the last first coordinate, 7; no zero-divisor changes.
        ring, ideal = instance("Z8", "gen(4)")
        assert instance_invariant_violations(Instance(ring, ideal)) == []
        add = np.array(ring.add_table)
        assert add[7, 4] == add[4, 7] == 3
        add[7, 4] = add[4, 7] = 6
        planted = FiniteRing(8, add, ring.mul_table, 0, 1, ring.labels, "Z8*")
        ideal = parse_ideal_spec(planted, "gen(4)")
        assert instance_invariant_violations(Instance(planted, ideal)) == [
            "[Z8* | I={0,4}] P2.1b: square-zero ideal and table equality disagree"
        ]


class TestDuplicationFacts:
    @pytest.mark.parametrize(
        "cell, value, message",
        [
            ((4, 3), 0, "zero products of Z8\\* are not symmetric"),
            ((0, 3), 3, "zero does not absorb"),
        ],
        ids=["regular-column", "zero-row"],
    )
    def test_tables_without_symmetric_zero_products_are_refused(self, cell, value, message):
        """In Z8 with 4*3 set to 0, 3 stays a non-zero-divisor (3*y = 0
        only for y = 0), so the base graph over Z(R) minus 0 is symmetric;
        the key relation, which assumes x*y = 0 iff y*x = 0 over all of R,
        must refuse the table rather than answer.  With 0*3 set to 3, 0
        no longer absorbs."""
        z8 = parse_ring_spec("Z8")
        mul = np.array(z8.mul_table)
        mul[cell] = value
        ring = FiniteRing(8, z8.add_table, mul, 0, 1, z8.labels, "Z8*")
        assert RingFacts(ring).graph.vertices == (2, 4, 6)
        ideal = parse_ideal_spec(ring, "full")
        with pytest.raises(ValueError, match=message):
            run_all(ring, ideal)
        with pytest.raises(ValueError, match=message):
            instance_invariant_violations(Instance(ring, ideal))


class TestSweep:
    def test_small_family_is_clean(self):
        report = sweep(["Z2", "Z3", "Z4", "Z5", "Z6"], "nonzero", workers=1)
        assert report.counterexample_count == 0
        assert report.invariant_violations == ()
        assert report.succeeded

    def test_instance_counts_follow_the_ideal_lattice(self):
        report = sweep(["Z6"], "all", workers=1)
        assert len(report.instances) == 4
        report = sweep(["Z6"], "nonzero", workers=1)
        assert len(report.instances) == 3
        report = sweep(["Z6"], "proper", workers=1)
        assert len(report.instances) == 2

    def test_all_filter_keeps_zero_ideal_with_notes(self):
        report = sweep(["Z6"], "all", workers=1)
        zero_instance = report.instances[0]
        assert zero_instance.ideal == ("0",)
        notes = [o.note or "" for o in zero_instance.outcomes]
        assert any("precondition" in n for n in notes)

    def test_empty_family_yields_an_empty_report(self):
        report = sweep([], "nonzero", workers=1)
        assert report.instances == ()
        assert report.succeeded

    def test_json_round_trip(self):
        report = sweep(["Z4", "Z6"], "nonzero", workers=1)
        text = report.to_json()
        assert json.loads(text) == report_json_dict(report)

    @pytest.mark.parametrize(
        "family, ideal_filter, generated_at",
        [
            (["Z4", "Z6"], "nonzero", None),
            ([], "nonzero", None),
            ([], "proper", "2026-10-19T09:30:00+00:00"),
            (["Z2xZ2", "Z8"], "nonzero", "2026-10-19T09:30:00+00:00"),
            (["Z6"], "all", None),
        ],
        ids=["two-rings", "empty", "empty-stamped", "stamped", "Z6-all"],
    )
    def test_json_writer_matches_json_dumps(self, family, ideal_filter, generated_at):
        report = sweep(family, ideal_filter, workers=1)
        assert report.to_json(generated_at) == dumps_report(report, generated_at)
        if ideal_filter == "all":
            # R⋈{0} = R for Z6: P4.16's honest counterexample has a witness.
            assert any(o.witness for r in report.instances for o in r.outcomes)

    def test_json_writer_escapes_like_json_dumps(self):
        text = 'q"uote \\back\\slash \x00\x1f\t\n\x7f ⋈ é'
        flagged = VerificationOutcome(TheoremId.P4_16, Status.COUNTEREXAMPLE, text, text)
        bare = VerificationOutcome(TheoremId.C3_3, Status.VACUOUS)
        report = SweepReport(
            family=(text, "Z2"),
            ideal_filter=text,
            instances=(
                InstanceRecord(text, (), (flagged, bare)),
                InstanceRecord("Z2", (text, "é"), ()),
            ),
            invariant_violations=(text, "[Z2 | I={0}] R2.3: base embedding failed"),
        )
        for generated_at in (None, text):
            written = report.to_json(generated_at)
            assert written == dumps_report(report, generated_at)
            assert written.isascii()

    def test_sweep_and_report_run_no_enum_frame(self):
        """The sweep and its JSON report read the members' ``_value_`` and
        hash them by identity, so no frame of the ``enum`` module runs:
        its ``value`` descriptor and ``Enum.__hash__`` are Python."""
        sweep(["Z12"]).to_json()
        files = set()

        def profile(frame, event, arg):
            if event == "call":
                files.add(os.path.basename(frame.f_code.co_filename))

        sys.setprofile(profile)
        try:
            sweep(["Z12"]).to_json()
        finally:
            sys.setprofile(None)
        assert "theorems.py" in files
        assert "enum.py" not in files

    def test_records_survive_a_pickle_round_trip(self):
        """A pool worker's results come back pickled: every outcome and
        record equals the original, with the same enum members."""
        result = _sweep_ring("Z6", "all")
        back = pickle.loads(pickle.dumps(result))
        assert back == result
        for record, copied in zip(result[0], back[0]):
            assert type(copied) is InstanceRecord and copied == record
            for outcome, twin in zip(record.outcomes, copied.outcomes):
                assert type(twin) is VerificationOutcome and twin == outcome
                assert twin.status is outcome.status and twin.theorem is outcome.theorem
        assert any(o.witness for r in back[0] for o in r.outcomes)

    def test_csv_has_a_row_per_check(self):
        report = sweep(["Z4", "Z6"], "nonzero", workers=1)
        rows = report.to_csv().splitlines()
        assert len(rows) == 1 + 10 * len(report.instances)
        assert rows[0] == "ring,ideal,theorem,status,witness,note"

    def test_worker_count_does_not_change_the_bytes(self):
        family = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2"]
        serial = sweep(family, "nonzero", workers=1).to_json()
        parallel = sweep(family, "nonzero", workers=2).to_json()
        assert serial == parallel

    def test_prime_table_is_built_once_per_ring(self, monkeypatch):
        """Every prime listing of a sweep reads its ring's one prime table:
        C3.4's carrier primes on each nonzero ideal and P4.16's Z(R)
        primality on Z16 alike."""
        built, listed = [], []
        build = FiniteRing._prime_table.func

        def counted_build(ring):
            built.append(ring.spec_name)
            return build(ring)

        counted = rings.cached_fact(counted_build)
        counted.__set_name__(FiniteRing, "_prime_table")
        monkeypatch.setattr(FiniteRing, "_prime_table", counted)
        primes = rings._primes_from_idempotents

        def counted_primes(ring, second):
            listed.append(ring.spec_name)
            return primes(ring, second)

        for module in (rings, amalgam):
            monkeypatch.setattr(module, "_primes_from_idempotents", counted_primes)
        report = sweep(["Z30", "Z16"], workers=1)
        assert report.succeeded and len(report.instances) == 11
        assert sorted(built) == ["Z16", "Z30"]
        assert (listed.count("Z30"), listed.count("Z16")) == (7, 5)

    def test_pool_starts_the_largest_rings_first(self, monkeypatch):
        """With workers > 1 the pool is handed the rings in descending
        order, equal orders in family order, and the report is put back
        in family order: the same bytes as the serial sweep."""
        handed = []

        class SerialPool:
            def map(self, fn, specs, filters):
                handed.extend(specs)
                return map(fn, specs, filters)

        @contextmanager
        def serial_pool(workers):
            yield SerialPool()

        monkeypatch.setattr(theorems, "_worker_pool", serial_pool)
        family = ["Z16", "Z2xZ8", "Z4xZ4", "Z7", "Z30", "Z2"]
        pooled = sweep(family, "nonzero", workers=2)
        assert handed == ["Z30", "Z16", "Z2xZ8", "Z4xZ4", "Z7", "Z2"]
        assert pooled.family == tuple(family)
        assert pooled.to_json() == sweep(family, "nonzero", workers=1).to_json()

    @pytest.mark.parametrize(
        "requested, family, size",
        [
            (64, ["Z2", "Z3", "Z4", "Z5", "Z6"], 3),
            (64, ["Z2", "Z3"], 2),
            (None, ["Z2", "Z3", "Z4", "Z5", "Z6"], 3),
            (2, ["Z2", "Z3", "Z4", "Z5", "Z6"], 2),
        ],
        ids=["cores", "rings", "default", "requested"],
    )
    def test_pool_starts_no_more_workers_than_cores_or_rings(
        self, monkeypatch, requested, family, size
    ):
        sizes = []

        class SerialPool:
            def map(self, fn, specs, filters):
                return map(fn, specs, filters)

        @contextmanager
        def recording_pool(workers):
            sizes.append(workers)
            yield SerialPool()

        monkeypatch.setattr(theorems, "_worker_pool", recording_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        sweep(family, "nonzero", workers=requested)
        assert sizes == [size]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_refused(self, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a ring was swept")

        monkeypatch.setattr(theorems, "_sweep_ring", refuse)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            sweep(["Z2", "Z3"], "nonzero", workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_ideal_filter_is_refused_before_any_ring_or_pool(self, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(theorems, "parse_ring_spec", refuse)
        monkeypatch.setattr(theorems, "_worker_pool", refuse)
        with pytest.raises(ValueError, match="unknown ideal filter 'odd'"):
            sweep(["Z4", "Z6"], "odd", workers=workers)

    def test_pool_workers_run_one_blas_thread(self):
        def blas_env():
            return {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}

        before = blas_env()
        with _worker_pool(2) as pool:
            futures = [pool.submit(_blas_thread_probe) for _ in range(2)]
            counts = [f.result(timeout=120) for f in futures]
        assert counts == [1, 1]
        assert blas_env() == before

    def test_exclusivity_reads_the_classes_only_for_members_outside_zdivs(
        self, monkeypatch
    ):
        # A finite ring's ideal escapes Z(R) only when it is R, so on
        # Z2..Z32 R2.3's exclusivity reads the classes on 31 of the 87
        # instances, twice each; on the other 56 it holds with nothing to
        # check.
        calls = []
        inside = amalgam._neighbours_inside

        def spy(*args):
            calls.append(args)
            return inside(*args)

        monkeypatch.setattr(amalgam, "_neighbours_inside", spy)
        report = sweep(expand_family("Z2..Z32"), workers=1)
        assert report.succeeded and len(report.instances) == 87
        assert len(calls) == 2 * 31

    def test_sweep_builds_no_duplication_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a duplication table was built")

        monkeypatch.setattr(amalgam, "_pair_tables", refuse)
        report = sweep([f"Z{n}" for n in range(2, 33)], workers=1)
        assert report.succeeded and len(report.instances) == 87

    def test_oversized_ring_is_refused_before_any_instance(self, monkeypatch):
        # Z200's ideals of 2..50 elements give duplications within the
        # limit; the whole ring, of order 40000, is above it.
        def refuse(*args, **kwargs):
            raise AssertionError("a duplication table was built")

        monkeypatch.setattr(amalgam, "_pair_tables", refuse)
        with pytest.raises(DuplicationTooLargeError, match="Z200 .* has order 40000"):
            sweep(["Z200"], "nonzero", workers=1)

    def test_pool_sweep_raises_the_order_limit_error(self):
        with pytest.raises(DuplicationTooLargeError, match="Z131 .* has order 17161"):
            sweep(["Z2", "Z131"], "nonzero", workers=2)

    def test_bad_spec_aborts(self):
        with pytest.raises(Exception):
            sweep(["Z6", "Q7"], "nonzero", workers=1)


class TestRingFacts:
    def test_one_zero_product_pass_per_graph(self, monkeypatch):
        # Z2..Z32 has 31 base rings and 87 duplications along a nonzero
        # ideal; each base ring's graph is the only pass, and the
        # duplications are read off its annihilator classes.
        passes = []
        adjacency = graphs._zero_product_adjacency

        def spy(ring):
            passes.append(ring.spec_name)
            return adjacency(ring)

        for module in (graphs, rings):
            monkeypatch.setattr(module, "_zero_product_adjacency", spy)
        report = sweep([f"Z{n}" for n in range(2, 33)], workers=1)
        assert report.succeeded and len(report.instances) == 87
        assert len(passes) == len(set(passes)) == 31

    def test_one_zero_divisor_pass_per_graph(self, monkeypatch):
        # The same 31 graphs of Z2..Z32: the base ring's Z(R), which the
        # checks, the zero-divisor classification and the structure checks
        # read, comes from its graph's pass, not from a pass of its own.
        calls = []
        counted = rings.zero_divisors

        def spy(ring):
            calls.append(ring.spec_name)
            return counted(ring)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "amalgam_zdg":
                if getattr(module, "zero_divisors", None) is counted:
                    monkeypatch.setattr(module, "zero_divisors", spy)
        report = sweep([f"Z{n}" for n in range(2, 33)], workers=1)
        assert report.succeeded and len(report.instances) == 87
        assert len(calls) == len(set(calls)) == 31

    def test_ring_only_facts_once_per_ring(self, monkeypatch):
        # Z30 has seven nonzero ideals and Z16 four.  What depends only on
        # the base ring is computed once per ring, however many of its
        # instances read it: the ring itself, its nilpotents, P4.13's joint
        # annihilators and P4.16's "Z(R) is a prime ideal".  Z(R) of Z30 is
        # not an ideal, so neither of the last two is read there.
        computed = []

        def spy_property(cls, name):
            compute = getattr(cls, name).func

            def spy(obj):
                ring = obj if isinstance(obj, FiniteRing) else obj.ring
                computed.append((name, ring.spec_name))
                return compute(obj)

            spied = cached_property(spy)
            spied.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, spied)

        def spy_function(name):
            compute = getattr(theorems, name)

            def spy(*args):
                computed.append((name, getattr(args[0], "spec_name", args[0])))
                return compute(*args)

            monkeypatch.setattr(theorems, name, spy)

        spy_property(FiniteRing, "_nilpotent_mask")
        for name in (
            "edges_share_annihilator",
            "zdivs_prime",
            "zero_divisor_mask",
            "edge_images_vanish",
        ):
            spy_property(RingFacts, name)
        for name in ("parse_ring_spec", "is_prime_ideal"):
            spy_function(name)
        report = sweep(["Z30", "Z16"], workers=1)
        assert report.succeeded and len(report.instances) == 11
        per_ring = [
            ("parse_ring_spec", "Z30"),
            ("parse_ring_spec", "Z16"),
            ("_nilpotent_mask", "Z30"),
            ("_nilpotent_mask", "Z16"),
            ("zero_divisor_mask", "Z30"),
            ("zero_divisor_mask", "Z16"),
            ("edge_images_vanish", "Z30"),
            ("edge_images_vanish", "Z16"),
            ("edges_share_annihilator", "Z16"),
            ("zdivs_prime", "Z16"),
            ("is_prime_ideal", "Z16"),
        ]
        assert sorted(computed) == sorted(per_ring)

    def test_swept_rings_are_freed_without_the_cyclic_collector(self, monkeypatch):
        refs = []
        for cls in (FiniteRing, ZDGraph, DuplicationCarrier, ClassGraph):

            def recording(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", recording)
        gc.collect()
        gc.disable()
        try:
            theorems._sweep_ring("Z12", "nonzero")
            alive = [ref() for ref in refs if ref() is not None]
            monkeypatch.undo()
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                for spec in ("Z30", "Z32"):
                    theorems._sweep_ring(spec, "nonzero")
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            gc.enable()
        # Z12, its graph and the graph's classes, and the carrier and the
        # key classes of each of its five duplications along a nonzero ideal.
        assert len(refs) == 13
        assert alive == []
        # Z32 along itself alone has two 2 MiB tables.
        assert held - start < 2**18

    def test_largest_ring_holds_no_widened_order_squared_index(self):
        """Z4096 along gen(2048): the ring-level facts, the ten checks and
        the invariant pass, traced from the built ring on.  The largest
        intermediates are order x |Z(R)| gathers of the uint16 tables, 16
        MiB each; this bound fails when one of them is widened to an intp
        index (64 MiB), as ``ndarray.take`` does with a uint16 index."""
        ring = parse_ring_spec("Z4096")
        ideal = parse_ideal_spec(ring, "gen(2048)")
        tracemalloc.start()
        try:
            base = RingFacts(ring)
            base.annihilator_classes
            base.zdivs_form_ideal
            base.edge_images_vanish
            inst = Instance(ring, ideal, base)
            outcomes = [_evaluate(theorem, inst) for theorem in EXPECTED_ORDER]
            violations = instance_invariant_violations(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert violations == []
        assert Status.COUNTEREXAMPLE not in {o.status for o in outcomes}
        assert peak < 44 * 2**20

    @pytest.mark.parametrize("spec, ideal_spec", [("Z128", "full"), ("Z4096", "gen(1024)")])
    def test_instance_holds_no_copy_of_the_product_form(self, spec, ideal_spec):
        """The bytes an instance keeps after its ten checks and the
        invariant pass, per carrier element, the base ring's facts read
        first by an instance of the same pair.  The carrier holds the
        product form once, as the uint16 ``plus`` (2 bytes an element),
        and the key classes' int32 ``class_of`` takes 4; a boolean mask
        over the carrier (1 more) breaks the bound on ``Z128``, as does an
        intp copy of every element's two coordinates (16 more)."""
        ring = parse_ring_spec(spec)
        ideal = parse_ideal_spec(ring, ideal_spec)
        base = RingFacts(ring)

        def run(inst):
            outcomes = [_evaluate(theorem, inst) for theorem in EXPECTED_ORDER]
            assert Status.COUNTEREXAMPLE not in {o.status for o in outcomes}
            assert instance_invariant_violations(inst) == []

        run(Instance(ring, ideal, base))
        gc.collect()
        tracemalloc.start()
        try:
            inst = Instance(ring, ideal, base)
            run(inst)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / inst.carrier.order <= 13.5
        assert inst.dup.class_of.dtype == np.int32 == base.graph.classes.class_of.dtype


def _blas_thread_probe() -> int:
    """Threads of this worker after a matmul large enough for BLAS to use
    its whole thread pool."""
    a = np.ones((600, 600), dtype=np.float32)
    a @ a
    return len(os.listdir("/proc/self/task"))
