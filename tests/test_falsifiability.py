"""Planted flaws: each test builds an instance whose hypotheses hold, plants
one flaw in what the conclusion reads, and asserts that the check reports
the counterexample or the invariant violation, so the branch that can
falsify a statement is shown to be reachable."""

from __future__ import annotations

import numpy as np
import pytest

from amalgam_zdg import (
    FiniteRing,
    Instance,
    Status,
    TheoremId,
    build_graph,
    instance_invariant_violations,
    parse_ideal_spec,
    parse_ring_spec,
)
from amalgam_zdg import amalgam, theorems


def _instance(spec: str, ideal_spec: str) -> Instance:
    ring = parse_ring_spec(spec)
    return Instance(ring, parse_ideal_spec(ring, ideal_spec))


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
    before = theorems._domain_equivalences(inst)
    assert before.status is Status.VERIFIED
    assert "kernel minimal primes = True" in before.note
    inst.carrier.minimal_prime_masks = plant(inst.carrier.minimal_prime_masks)
    after = theorems._domain_equivalences(inst)
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
