"""Planted flaws: each test builds an instance whose hypotheses hold, plants
one flaw in what the conclusion reads, and asserts that the check reports
the counterexample or the invariant violation, so the branch that can
falsify a statement is shown to be reachable."""

from __future__ import annotations

from operator import attrgetter

import numpy as np
import pytest

from amalgam_zdg import (
    ClassGraph,
    FiniteRing,
    Instance,
    RingFacts,
    Status,
    TheoremId,
    build_graph,
    instance_invariant_violations,
    parse_ideal_spec,
    parse_ring_spec,
    sweep,
)
from amalgam_zdg import amalgam, theorems
from oracles import representative_relation


def _instance(spec: str, ideal_spec: str) -> Instance:
    ring = parse_ring_spec(spec)
    return Instance(ring, parse_ideal_spec(ring, ideal_spec))


def _run(theorem: TheoremId, inst: Instance) -> theorems.VerificationOutcome:
    """The outcome of one registered check on ``inst``."""
    return theorems._evaluate(theorem, inst)


def _plant_third_row(mins: np.ndarray) -> np.ndarray:
    return np.vstack([mins, mins[0] | mins[1]])


def _plant_one_row(mins: np.ndarray) -> np.ndarray:
    return mins[:1]


def _plant_common_member(mins: np.ndarray) -> np.ndarray:
    # Both rows gain the carrier's last element, so they meet beyond 0.
    grown = mins.copy()
    grown[:, -1] = True
    return grown


@pytest.mark.parametrize(
    "plant", [_plant_third_row, _plant_one_row, _plant_common_member], ids=lambda f: f.__name__
)
def test_planted_minimal_prime_rows_make_c3_4_a_counterexample(plant):
    """Z5 along itself is a domain, so C3.4's four statements all hold and
    its minimal primes are the two kernels.  Planting a third minimal
    prime, dropping one, or making the two meet beyond 0 breaks the
    kernel clause alone, and the equivalence fails."""
    inst = _instance("Z5", "full")
    before = theorems._evaluate(TheoremId.C3_4, inst)
    assert before.status is Status.VERIFIED
    assert "kernel minimal primes = True" in before.note
    inst.carrier.minimal_prime_masks = plant(inst.carrier.minimal_prime_masks)
    after = theorems._evaluate(TheoremId.C3_4, inst)
    assert after.theorem is TheoremId.C3_4
    assert after.status is Status.COUNTEREXAMPLE
    assert after.witness == (
        "domain = True, girth in {4, inf} = True, "
        "kernel minimal primes = False, complete bipartite = True"
    )


def test_planted_nonzero_base_edge_product_fails_r2_3_embedding():
    """With 0 + 0 set to 3 in Z6's addition table, (x, 0)(y, 0) has second
    coordinate 0*0 + y*0 = 0 + 0 = 3 for every base edge {x, y}, which
    the ring-only half of R2.3 computes from the tables.  Given that fact,
    an instance of Z6 reports the embedding as failed, and only it."""
    z6 = parse_ring_spec("Z6")
    add = np.array(z6.add_table)
    add[0, 0] = 3
    planted = FiniteRing(6, add, z6.mul_table, 0, 1, z6.labels, "Z6*")
    assert not amalgam._edge_images_vanish(planted, build_graph(planted))
    assert amalgam._edge_images_vanish(z6, build_graph(z6))

    inst = _instance("Z6", "gen(3)")
    assert instance_invariant_violations(inst) == []
    inst.base.edge_images_vanish = amalgam._edge_images_vanish(planted, build_graph(planted))
    assert instance_invariant_violations(inst) == [
        "[Z6 | I={0,3}] R2.3: base embedding failed"
    ]


# (statement, ring, ideal, planted fact as (owner, attribute, value), witness,
# note).  Each instance satisfies the statement's hypotheses and verifies
# it as built; the planted fact is one the conclusion reads.
PLANTED_FACTS = [
    (
        TheoremId.C3_3, "Z6", "gen(3)", ("dup", "girth", 4),
        "girth = 4, domain = False, |I| = 2",
        "girth = 4, domain = False, |I| = 2",
    ),
    (
        TheoremId.T4_8, "Z4", "gen(2)", ("dup", "square_zero", False),
        "complete = True, base square-zero with I inside Z(R) = True, "
        "duplication square-zero = False",
        "complete = True, base square-zero with I inside Z(R) = True, "
        "duplication square-zero = False",
    ),
    (
        TheoremId.L4_9, "Z4", "full", ("dup", "diameter", 2),
        "diameter(duplication graph) = 2",
        "diameter(duplication graph) = 2",
    ),
    (
        TheoremId.C4_10, "Z4", "full", ("dup", "diameter", 2),
        "universal base vertices {2}; diameter(duplication graph) = 2",
        "universal base vertices {2}; diameter(duplication graph) = 2",
    ),
    (
        TheoremId.P4_11, "Z2xZ4", "full", ("dup", "diameter", 2),
        "diameter(duplication graph) = 2",
        "diameter(duplication graph) = 2",
    ),
    (
        TheoremId.T4_12, "Z6", "gen(3)", ("dup", "diameter", 2),
        "diameter(duplication graph) = 2",
        "diameter(duplication graph) = 2",
    ),
    (
        TheoremId.P4_13, "Z8", "gen(4)", ("dup", "diameter", 3),
        "diameter(duplication graph) = 3; non-reduced variant: hypotheses hold",
        "diameter(duplication graph) = 3; non-reduced variant: hypotheses hold",
    ),
    (
        TheoremId.L4_15, "Z3", "full", ("base", "zero_divisors", frozenset({0, 1})),
        "Ann(1) meets the ideal only in zero",
        "checked 1 nonzero zero-divisors",
    ),
]


@pytest.mark.parametrize(
    "theorem, spec, ideal_spec, plant, witness, note",
    PLANTED_FACTS,
    ids=[row[0].value for row in PLANTED_FACTS],
)
def test_planted_fact_makes_a_counterexample(theorem, spec, ideal_spec, plant, witness, note):
    """The check verifies the instance as built.  With one fact that its
    conclusion reads planted, it reports the counterexample, with the
    planted value in its witness and note."""
    inst = _instance(spec, ideal_spec)
    assert _run(theorem, inst).status is Status.VERIFIED
    owner, name, value = plant
    setattr(attrgetter(owner)(inst), name, value)
    after = _run(theorem, inst)
    assert after.theorem is theorem
    assert after.status is Status.COUNTEREXAMPLE
    assert after.witness == witness
    assert after.note == note


def test_zero_ideal_makes_p4_16_an_honest_counterexample():
    """Z6 along {0} is Z6, whose graph 2 - 3 - 4 has the universal vertex 3,
    while Z(Z6) = {0, 2, 3, 4} is not an ideal, so not prime: P4.16 fails
    with no planted fact."""
    after = _run(TheoremId.P4_16, _instance("Z6", "zero"))
    assert after.status is Status.COUNTEREXAMPLE
    assert after.witness == "universal vertices {(3,0)}; Z(R) prime ideal = False"
    assert after.note == "universal vertices {(3,0)}; Z(R) prime ideal = False"


def test_planted_nilpotent_makes_p2_1a_fail():
    """Z6 is reduced, and so is its duplication along {0, 3}.  With the
    carrier's nilpotent count planted as 2, the duplication reads as not
    reduced, and reducedness no longer transfers."""
    inst = _instance("Z6", "gen(3)")
    assert inst.carrier.nilpotent_count == 1
    inst.carrier.nilpotent_count = 2
    assert instance_invariant_violations(inst) == [
        "[Z6 | I={0,3}] P2.1a: reducedness does not transfer"
    ]


def test_planted_product_makes_p2_1b_disagree():
    """Z4 along {0, 2} squares to zero.  With 2*3 and 3*2 set to 0, the
    ideal still squares to zero, but (1+2)*2 = 0 where 1*2 = 2, so the
    duplication's table differs from the idealization's: P2.1b reports
    the disagreement, and no other invariant fails."""
    z4 = parse_ring_spec("Z4")
    mul = np.array(z4.mul_table)
    assert mul[2, 3] == mul[3, 2] == 2
    mul[2, 3] = mul[3, 2] = 0
    planted = FiniteRing(4, z4.add_table, mul, 0, 1, z4.labels, "Z4*")
    inst = Instance(planted, parse_ideal_spec(planted, "gen(2)"))
    assert instance_invariant_violations(inst) == [
        "[Z4* | I={0,2}] P2.1b: square-zero ideal and table equality disagree"
    ]


def test_planted_kernel_member_makes_p2_2_miss():
    """In Z8 along {0, 4}, (1, 0) is a unit.  Planted into the first
    projection kernel, it joins the classification's T1, whose union then
    holds an element off the zero-divisor graph."""
    inst = _instance("Z8", "gen(4)")
    assert instance_invariant_violations(inst) == []
    first, second = inst.carrier.kernel_masks
    first = first.copy()
    first[inst.carrier.index_of(1, 0)] = True
    inst.carrier.kernel_masks = (first, second)
    assert instance_invariant_violations(inst) == [
        "[Z8 | I={0,4}] P2.2: classification misses the zero-divisor set"
    ]


def _planted_ring(spec: str, table: str, cell: tuple[int, int], value: int) -> FiniteRing:
    """The ring ``spec`` with one symmetric pair of cells of its addition
    or multiplication table set to ``value``."""
    ring = parse_ring_spec(spec)
    tables = {"add": np.array(ring.add_table), "mul": np.array(ring.mul_table)}
    a, b = cell
    tables[table][a, b] = tables[table][b, a] = value
    return FiniteRing(
        ring.order, tables["add"], tables["mul"], ring.zero, ring.one, ring.labels, f"{spec}*"
    )


@pytest.mark.parametrize(
    "spec, table, cell, value",
    [
        ("Z6", "add", (0, 0), 3),
        ("Z4", "mul", (2, 3), 0),
        ("Z4", "mul", (1, 2), 3),
        ("Z6", "add", (2, 2), 0),
    ],
)
def test_planted_tables_relate_their_classes_as_their_representatives(spec, table, cell, value):
    """The annihilator relation of each planted table above, read off its
    graph's classes, is its product table at one representative per
    class, and at every pair of elements."""
    planted = _planted_ring(spec, table, cell, value)
    cls, rel = RingFacts(planted).annihilator_classes
    present, relation = representative_relation(planted, cls)
    assert np.array_equal(rel[np.ix_(present, present)], relation)
    assert np.array_equal(rel[cls[:, None], cls], planted.mul_table == planted.zero)


def test_planted_product_fails_r2_3_crossings():
    """With 1*2 := 3 in Z4 (and 2*1), no zero product appears or goes, so
    the graphs of Z4 and of its duplication along itself are unchanged.
    But (0, 1)(-2, 2) has second coordinate (0+1)*2 + 2*1 = 3 + 3 = 2, so
    one crossing of the two kernels is not an edge: R2.3 reports the
    crossings as failed, and nothing else fails."""
    planted = _planted_ring("Z4", "mul", (1, 2), 3)
    inst = Instance(planted, parse_ideal_spec(planted, "full"))
    assert instance_invariant_violations(inst) == [
        "[Z4* | I={0,1,2,3}] R2.3: crossings failed"
    ]


def test_planted_sum_fails_r2_3_exclusive_neighbors():
    """With 2 + 2 := 0 in Z6, the element (2, 2) of Z6 along itself has
    the product form (2, 0), so (0, 1)(2, 2) = (0, 2 + 2) = (0, 0): the
    regular member 1 gives (0, 1) a neighbour that is not of the form
    (-j, j), since -2 = 4.  R2.3 reports the exclusive neighbours as
    failed, and nothing else fails."""
    planted = _planted_ring("Z6", "add", (2, 2), 0)
    inst = Instance(planted, parse_ideal_spec(planted, "full"))
    assert instance_invariant_violations(inst) == [
        "[Z6* | I={0,1,2,3,4,5}] R2.3: exclusive neighbors failed"
    ]


def test_disconnected_duplication_graph_is_reported_by_the_sweep(monkeypatch):
    """Z6 along {0, 3} with its duplication's key classes planted edgeless:
    the sweep goes on past the checks that read the diameter, reports
    each of them as a counterexample with the error as witness and note,
    and lists the disconnected graph among the invariant violations."""
    key_classes = theorems._key_classes

    def edgeless(cls, rel, second):
        classes = key_classes(cls, rel, second)
        if second.size != 12:  # the carrier of Z6 along {0, 3}
            return classes
        c = len(classes.q)
        empty = np.zeros((c, c), dtype=bool)
        return ClassGraph(empty, classes.sizes, np.zeros(c, dtype=bool), classes.class_of)

    monkeypatch.setattr(theorems, "_key_classes", edgeless)
    report = sweep(["Z6"], workers=1)
    assert not report.succeeded
    assert report.invariant_violations == ("[Z6 | I={0,3}] duplication graph is disconnected",)
    record = report.instances[0]
    assert record.ideal == ("0", "3")
    message = "zero-divisor graph has an isolated vertex; connectivity invariant violated"
    (t4_12,) = [o for o in record.outcomes if o.theorem is TheoremId.T4_12]
    assert t4_12.status is Status.COUNTEREXAMPLE
    assert t4_12.witness == t4_12.note == message
