"""Executable checks for structural statements about duplication graphs.

Each registered check evaluates a hypothesis/conclusion pair on a concrete
(ring, ideal) instance and reports one of verified / vacuous /
counterexample.  The sweep applies every check to every instance of a ring
family and additionally asserts the global invariants (connectivity,
diameter bound, girth values, the zero-divisor classification, reducedness
transfer, the square-zero table identity, and the structure of the
duplication graph around the projection kernels and the base graph).
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .amalgam import (
    DuplicationCarrier,
    _check_duplication_order,
    _edge_images_vanish,
    classify_zero_divisors,
    matches_idealization,
    structure_checks,
)
from .graphs import (
    ClassGraph,
    DisconnectedGraphError,
    ZDGraph,
    build_graph,
    diameter,
)
from .rings import (
    FiniteRing,
    Ideal,
    _all,
    _any,
    _mask,
    all_ideals,
    annihilator,
    cached_fact,
    is_ideal,
    is_prime_ideal,
    is_reduced,
)
from .specs import _ring_moduli, parse_ring_spec, ring_spec_name

__all__ = [
    "TheoremId",
    "Status",
    "PreconditionError",
    "VerificationOutcome",
    "RingFacts",
    "Instance",
    "check",
    "run_all",
    "instance_invariant_violations",
    "InstanceRecord",
    "SweepReport",
    "sweep",
]


# Both enumerations hash their members by identity, as they compare, and
# the sweep reads ``_value_``, the plain attribute behind ``value``: the
# ``Enum`` hash and the ``value`` descriptor are Python functions, and
# these are read on every outcome of every instance.


class TheoremId(enum.Enum):
    """Closed enumeration of the statements tracked by this harness."""

    __hash__ = object.__hash__

    C3_3 = "C3.3"
    C3_4 = "C3.4"
    T4_8 = "T4.8"
    L4_9 = "L4.9"
    C4_10 = "C4.10"
    P4_11 = "P4.11"
    T4_12 = "T4.12"
    P4_13 = "P4.13"
    L4_15 = "L4.15"
    P4_16 = "P4.16"


class Status(enum.Enum):
    __hash__ = object.__hash__

    VERIFIED = "verified"
    VACUOUS = "vacuous"
    COUNTEREXAMPLE = "counterexample"


class PreconditionError(Exception):
    """A check was invoked outside its stated preconditions."""


class VerificationOutcome(NamedTuple):
    """Result of one check on one (ring, ideal) instance.

    ``status`` is derived by ``_evaluate``: counterexample iff the
    hypotheses hold and the conclusion fails, vacuous iff the hypotheses
    fail.  ``witness`` names counterexample evidence by element labels;
    ``note`` carries measured values or the reason a check was vacuous.
    An immutable tuple: a frozen dataclass would set each field by
    ``object.__setattr__``, one call per field of every outcome.
    """

    theorem: TheoremId
    status: Status
    witness: str | None = None
    note: str | None = None

    def to_json_dict(self) -> dict:
        """The outcome's entry in a JSON report: theorem and status, and
        the witness and note when present."""
        entry: dict = {"theorem": self.theorem._value_, "status": self.status._value_}
        if self.witness is not None:
            entry["witness"] = self.witness
        if self.note is not None:
            entry["note"] = self.note
        return entry


def _fmt_girth(g: int | float) -> str:
    return "inf" if math.isinf(g) else str(int(g))


def _fmt_diam(d: int | None) -> str:
    return "empty" if d is None else str(d)


def _key_classes(cls: np.ndarray, rel: np.ndarray, second: np.ndarray) -> ClassGraph:
    """The zero-divisor graph, as key classes, of the elements r*k + t of a
    subring of R x R, whose coordinates are r and ``second[r, t]`` for the
    (n, k) index array ``second`` over the base ring R.

    ``cls`` and ``rel`` are the base ring's annihilator classes (see
    ``RingFacts.annihilator_classes``).  Products are componentwise, so
    e*f = 0 iff both coordinates' products are 0, and an element's
    neighbourhood depends only on its key (class of its first coordinate,
    class of its second).  Key a*c + b stands for the classes (a, b) out
    of c, and the keys present are counted over all c*c of them; the zero
    key is 0 and holds only 0.  Keys are related when both
    coordinates' classes are.  A self-related key is a clique class, whose
    members annihilate each other; any other key is an independent class
    of false twins.  A key is on the graph when it is self-related or
    related to another nonzero key.
    """
    c = len(rel)
    # cls[...] by the carrier-sized uint16 second, which take would widen.
    keys = cls[second]
    keys += (cls * c)[:, None]
    keys = keys.ravel()
    counts = np.bincount(keys, minlength=c * c)
    present = counts.nonzero()[0]
    a, b = np.divmod(present, c)
    related = rel.take(a, axis=0).take(a, axis=1) & rel.take(b, axis=0).take(b, axis=1)
    nonzero = present != 0
    at = (nonzero & (related & nonzero).any(axis=1)).nonzero()[0]
    on_graph = present[at]
    q = related.take(at, axis=0).take(at, axis=1)
    clique = q.diagonal().copy()
    q.flat[:: len(q) + 1] = False
    # Class numbers fit int32: there are fewer classes than carrier elements.
    position = np.empty(c * c, dtype=np.int32)
    position.fill(-1)
    position[on_graph] = np.arange(len(on_graph))
    return ClassGraph(q, counts[on_graph], clique, position[keys])


class RingFacts:
    """What the checks read about one ring, each computed on first read.

    One object serves every instance of a base ring.  It holds the ring,
    and the ring holds nothing of it, so the ring's tables and graph are
    freed with the last reference to the facts, without waiting for the
    cyclic collector.
    """

    def __init__(self, ring: FiniteRing) -> None:
        self.ring = ring

    @cached_fact
    def graph(self) -> ZDGraph:
        return build_graph(self.ring)

    @cached_fact
    def zero_divisors(self) -> frozenset[int]:
        """Z(R), read off the graph's pass: its vertices, and 0 when 0*y = 0
        for some y != 0.  That is the definition ``rings.zero_divisors``
        uses, so no ring axiom is assumed."""
        zero = self.ring.zero
        kills = self.ring.mul_table[zero] == zero
        kills[zero] = False
        vertices = frozenset(self.graph.vertices)
        return vertices | {zero} if _any(kills) else vertices

    @cached_fact
    def zero_divisor_mask(self) -> np.ndarray:
        """Z(R) as a read-only boolean mask over the elements."""
        mask = _mask(self.ring.order, list(self.zero_divisors))
        mask.setflags(write=False)
        return mask

    @cached_fact
    def zdivs_form_ideal(self) -> bool:
        return is_ideal(self.ring, self.zero_divisors)

    @cached_fact
    def is_domain(self) -> bool:
        return self.zero_divisors == {self.ring.zero}

    @cached_fact
    def zdivs_prime(self) -> bool:
        """Z(R) is a prime ideal."""
        return self.zdivs_form_ideal and is_prime_ideal(self.ring, self.zero_divisors)

    @cached_fact
    def is_reduced(self) -> bool:
        return is_reduced(self.ring)

    @cached_fact
    def edge_images_vanish(self) -> bool:
        """R2.3's ring-only half: x -> (x, 0) takes every edge of the graph
        to a zero product in every duplication (``_edge_images_vanish``)."""
        return _edge_images_vanish(self.ring, self.graph)

    @cached_fact
    def edges_share_annihilator(self) -> bool:
        """Both ends of every edge are killed by one nonzero element:
        Ann(a) ∩ Ann(b) != 0 for each edge {a, b}, read on the graph's
        classes.  Such an element is a vertex, and the members of class X
        kill those of class a when X and a are adjacent or X = a is a
        clique class: ``kills``.  Two classes have a common annihilator
        when some X kills both, which one boolean product of ``kills``
        marks, so it must mark every pair of classes adjacent in the
        quotient.  The other edges join two members of one clique class,
        and either of them kills both."""
        classes = self.graph.classes
        kills = classes.q | np.diag(classes.clique)
        return _all((kills.T @ kills)[classes.q])

    @cached_fact
    def annihilator_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The ring's annihilator classes, read off the graph's classes:
        ``cls[x]`` numbers the class of x, and ``rel[a, b]`` says that the
        members of classes a and b multiply to zero.

        Class 0 is {0}, class 1 the elements outside Z(R), and class 2 + c
        the graph's class c (Ann(x) minus 0).  0 is related to every
        class, an element outside Z(R) to 0 only, and two graph classes
        when they are adjacent or are one clique class.  R is R⋈{0}, whose
        element r has both coordinates r, so these are also its key
        classes (see ``_key_classes``).  All this rests on x*y = 0 iff
        y*x = 0 over all of R and on 0 absorbing, which the graph's
        symmetry check covers only on Z(R) minus 0; the rest is checked
        here, and a table that breaks either raises ValueError.
        """
        ring, graph = self.ring, self.graph
        classes = graph.classes
        mul, zero = ring.mul_table, ring.zero
        verts = np.array(graph.vertices, dtype=np.intp)
        cls = np.ones(ring.order, dtype=np.intp)
        cls[zero] = 0
        cls[verts] = 2 + classes.class_of[verts]
        regular = (cls == 1).nonzero()[0]
        if _any(mul[zero] != zero) or _any(mul[:, zero] != zero):
            raise ValueError(f"zero does not absorb every element of {ring.spec_name}")
        # One 2-D gather: a row gather first would copy |Z(R)| whole rows.
        killed = mul[verts[:, None], regular] == zero
        if _any(killed):
            x, u = np.argwhere(killed)[0]
            raise ValueError(
                f"zero products of {ring.spec_name} are not symmetric: "
                f"{ring.labels[verts[x]]}*{ring.labels[regular[u]]} = 0 but "
                f"{ring.labels[regular[u]]} is not a zero-divisor"
            )
        rel = np.zeros((2 + len(classes.q),) * 2, dtype=bool)
        rel[0] = rel[:, 0] = True
        rel[2:, 2:] = classes.q | np.diag(classes.clique)
        return cls, rel


class Instance:
    """One (ring, ideal) pair as the checks see it: the facts of the base
    ring (``base``, which a caller may share between the ring's instances),
    the duplication's carrier and its graph (``dup``), and what depends on
    the ideal."""

    def __init__(self, ring: FiniteRing, ideal: Ideal, base: RingFacts | None = None) -> None:
        if ideal.ring is not ring:
            raise ValueError("ideal belongs to a different ring")
        self.ring = ring
        self.ideal = ideal
        self.base = RingFacts(ring) if base is None else base
        if self.base.ring is not ring:
            raise ValueError("base facts belong to a different ring")

    @cached_fact
    def ideal_labels(self) -> tuple[str, ...]:
        return self.ideal.labels()

    @cached_fact
    def carrier(self) -> DuplicationCarrier:
        return DuplicationCarrier(self.ring, self.ideal)

    @cached_fact
    def dup(self) -> ClassGraph:
        """The duplication's graph, read off the base ring's annihilator
        classes over the carrier, with no table or graph of the
        duplication: under (r, i) -> (a, b) = (r, r+i) the product is
        componentwise, so the graph is ``_key_classes`` of the carrier's
        second coordinates ``plus``."""
        return _key_classes(*self.base.annihilator_classes, self.carrier.plus)

    @cached_fact
    def ideal_inside_zdivs(self) -> bool:
        return self.ideal.members <= self.base.zero_divisors


# ---------------------------------------------------------------------------
# Individual checks
#
# A check returns (holds, note): whether the conclusion holds, and the note
# the report carries.  A check whose witness is not its note returns
# (holds, note, witness).  When its hypotheses fail, a check raises
# _Vacuous with the note that says why.  ``_evaluate`` derives the status.


class _Vacuous(Exception):
    """The check's hypotheses fail; the one argument is the note."""


def _dup_diameter_is(inst: Instance, d: int) -> tuple[bool, str]:
    diam = inst.dup.diameter
    return diam == d, f"diameter(duplication graph) = {_fmt_diam(diam)}"


def _girth_classification(inst: Instance) -> tuple[bool, str]:
    """Girth of the duplication graph is 3 iff the base ring has nonzero
    zero-divisors, 4 iff the base is a domain with |I| >= 3, and infinite
    iff I is the whole two-element field."""
    g = inst.dup.girth
    dom = inst.base.is_domain
    k = len(inst.ideal)
    clauses = (
        (g == 3) == (not dom),
        (g == 4) == (dom and k >= 3),
        math.isinf(g) == (k == inst.ring.order == 2),
    )
    return all(clauses), f"girth = {_fmt_girth(g)}, domain = {dom}, |I| = {k}"


def _domain_equivalences(inst: Instance) -> tuple[bool, str]:
    """Four statements agree on every instance: the base is a domain; the
    duplication graph has girth 4 or infinity; the duplication ring has
    exactly the two projection kernels as minimal primes, meeting in zero;
    the duplication graph is complete bipartite."""
    a = inst.base.is_domain
    b = inst.dup.girth == 4 or math.isinf(inst.dup.girth)
    mins = inst.carrier.minimal_prime_masks
    k1, k2 = inst.carrier.kernel_masks
    c = (
        len(mins) == 2
        and (mins[0] & mins[1]).nonzero()[0].tolist() == [inst.carrier.zero]
        and (
            (_all(mins[0] == k1) and _all(mins[1] == k2))
            or (_all(mins[0] == k2) and _all(mins[1] == k1))
        )
    )
    d = inst.dup.bipartition is not None
    note = (
        f"domain = {a}, girth in {{4, inf}} = {b}, "
        f"kernel minimal primes = {c}, complete bipartite = {d}"
    )
    return a == b == c == d, note


def _completeness_equivalence(inst: Instance) -> tuple[bool, str]:
    """Three statements agree: the duplication graph is complete; the base
    zero-divisors square to zero and the ideal sits inside them; the
    duplication zero-divisors square to zero.

    The duplication of the two-element field along itself is excluded: its
    graph is a single edge (complete) while both square-zero clauses fail,
    so the equivalence holds only away from that instance.
    """
    if inst.ring.order == 2 and len(inst.ideal) == 2:
        raise _Vacuous(
            "excluded instance: duplication of the two-element field along "
            "itself has a complete single-edge graph while both square-zero "
            "clauses fail"
        )
    a = inst.dup.complete
    b = inst.base.graph.classes.square_zero and inst.ideal_inside_zdivs
    c = inst.dup.square_zero
    note = (
        f"complete = {a}, base square-zero with I inside Z(R) = {b}, "
        f"duplication square-zero = {c}"
    )
    return a == b == c, note


def _ideal_zdivs_diam_three(inst: Instance) -> tuple[bool, str]:
    """If the base has nonzero zero-divisors forming an ideal and the ideal
    escapes them, the duplication graph has diameter 3."""
    reasons = [
        reason
        for reason, failed in (
            ("base ring is a domain", inst.base.is_domain),
            ("I lies inside Z(R)", inst.ideal_inside_zdivs),
            ("Z(R) is not an ideal", not inst.base.zdivs_form_ideal),
        )
        if failed
    ]
    if reasons:
        raise _Vacuous("; ".join(reasons))
    return _dup_diameter_is(inst, 3)


def _universal_vertex_diam_three(inst: Instance) -> tuple[bool, str]:
    """If the ideal escapes Z(R) and the base graph has a universal vertex,
    the duplication graph has diameter 3."""
    universal = inst.base.graph.classes.universal_vertices
    if inst.ideal_inside_zdivs:
        raise _Vacuous("I lies inside Z(R)")
    if not universal:
        raise _Vacuous("base graph has no universal vertex")
    holds, note = _dup_diameter_is(inst, 3)
    return holds, f"universal base vertices {inst.ring.format_subset(universal)}; {note}"


def _diam_three_persists(inst: Instance) -> tuple[bool, str]:
    """Diameter 3 of the base graph forces diameter 3 of the duplication."""
    base_diameter = diameter(inst.base.graph)
    if base_diameter != 3:
        raise _Vacuous(f"diameter(base graph) = {_fmt_diam(base_diameter)}")
    return _dup_diameter_is(inst, 3)


def _nonideal_zdivs_diam_three(inst: Instance) -> tuple[bool, str]:
    """If Z(R) is not an ideal, the duplication graph has diameter 3."""
    if inst.base.zdivs_form_ideal:
        raise _Vacuous("Z(R) is an ideal")
    return _dup_diameter_is(inst, 3)


def _diam_two_preserved(inst: Instance) -> tuple[bool, str]:
    """Diameter 2 carries over to the duplication when Z(R) is an ideal
    containing I and either every adjacent base pair has a nonzero joint
    annihilator, or (variant) the base ring is non-reduced."""
    core = (
        inst.base.zdivs_form_ideal
        and inst.ideal_inside_zdivs
        and diameter(inst.base.graph) == 2
    )
    pair_hyp = core and inst.base.edges_share_annihilator
    variant_hyp = core and not inst.base.is_reduced
    variant = "hypotheses hold" if variant_hyp else "vacuous"
    variant_text = f"non-reduced variant: {variant}"
    if not core:
        why = "Z(R) not an ideal, I escapes Z(R), or base diameter is not 2"
        raise _Vacuous(f"{why}; {variant_text}")
    if not (pair_hyp or variant_hyp):
        raise _Vacuous(f"an adjacent base pair has zero joint annihilator; {variant_text}")
    holds, note = _dup_diameter_is(inst, 2)
    return holds, f"{note}; {variant_text}"


def _annihilators_meet_ideal(inst: Instance) -> tuple[bool, str] | tuple[bool, str, str]:
    """If the ideal escapes Z(R) and the duplication graph has diameter 2,
    every nonzero zero-divisor of the base has an annihilator meeting I.

    On a finite ring this cannot fail.  Multiplication by an x outside
    Z(R) is injective on the finite set R, hence onto, so x*y = 1 for
    some y: x is a unit.  An I that escapes Z(R) thus holds a unit and is
    R, and then Ann(y) ∩ I = Ann(y), which is nonzero for every
    zero-divisor y by definition.  The offender branch is reached only
    through planted facts."""
    if inst.ideal_inside_zdivs:
        raise _Vacuous("I lies inside Z(R)")
    diameter_two, why = _dup_diameter_is(inst, 2)
    if not diameter_two:
        raise _Vacuous(why)
    zero = inst.ring.zero
    note = f"checked {len(inst.base.zero_divisors) - 1} nonzero zero-divisors"
    for y in sorted(inst.base.zero_divisors - {zero}):
        if annihilator(inst.ring, y).members & inst.ideal.members == {zero}:
            return False, note, f"Ann({inst.ring.labels[y]}) meets the ideal only in zero"
    return True, note


def _universal_vertex_prime_zdivs(inst: Instance) -> tuple[bool, str]:
    """A universal vertex in the duplication graph forces Z(R) to be a
    prime ideal of the base ring (implication only)."""
    if not _any(inst.dup.universal_classes):
        raise _Vacuous("duplication graph has no universal vertex")
    holds = inst.base.zdivs_prime
    labels = inst.carrier.format_subset(inst.dup.universal_vertices)
    return holds, f"universal vertices {labels}; Z(R) prime ideal = {holds}"


_REGISTRY: dict[TheoremId, Callable[[Instance], tuple]] = {
    TheoremId.C3_3: _girth_classification,
    TheoremId.C3_4: _domain_equivalences,
    TheoremId.T4_8: _completeness_equivalence,
    TheoremId.L4_9: _ideal_zdivs_diam_three,
    TheoremId.C4_10: _universal_vertex_diam_three,
    TheoremId.P4_11: _diam_three_persists,
    TheoremId.T4_12: _nonideal_zdivs_diam_three,
    TheoremId.P4_13: _diam_two_preserved,
    TheoremId.L4_15: _annihilators_meet_ideal,
    TheoremId.P4_16: _universal_vertex_prime_zdivs,
}

# The checks whose statements assume a nonzero ideal.
_NONZERO_IDEAL_CHECKS = frozenset(
    {TheoremId.C3_3, TheoremId.C3_4, TheoremId.T4_8, TheoremId.T4_12}
)
_ZERO_IDEAL = "the ideal is {0}; a nonzero ideal is required"


def _evaluate(theorem: TheoremId, inst: Instance) -> VerificationOutcome:
    """Run the registered check for ``theorem`` on ``inst``: the one place
    a status is derived.  A check that assumes a nonzero ideal is vacuous
    on {0}, with a precondition note; otherwise it is vacuous when it
    raises ``_Vacuous``, a counterexample when its conclusion fails, and
    verified when it holds.  A graph found disconnected falsifies the
    connectivity invariant that the check reads through, so the check is
    a counterexample with the error as its witness and note.  Only a
    counterexample carries a witness: the check's own, or else its note."""
    try:
        if theorem in _NONZERO_IDEAL_CHECKS and inst.ideal.is_zero:
            raise _Vacuous(f"precondition not met: {_ZERO_IDEAL}")
        holds, note, *named = _REGISTRY[theorem](inst)
    except _Vacuous as exc:
        return VerificationOutcome(theorem, Status.VACUOUS, None, exc.args[0])
    except DisconnectedGraphError as exc:
        return VerificationOutcome(theorem, Status.COUNTEREXAMPLE, str(exc), str(exc))
    if holds:
        return VerificationOutcome(theorem, Status.VERIFIED, None, note)
    return VerificationOutcome(theorem, Status.COUNTEREXAMPLE, named[0] if named else note, note)


def check(theorem: TheoremId, ring: FiniteRing, ideal: Ideal) -> VerificationOutcome:
    """Apply the registered check for ``theorem`` to one (ring, ideal).

    Raises PreconditionError when the instance is outside the check's
    preconditions.
    """
    inst = Instance(ring, ideal)
    if theorem in _NONZERO_IDEAL_CHECKS and ideal.is_zero:
        raise PreconditionError(_ZERO_IDEAL)
    return _evaluate(theorem, inst)


def run_all(ring: FiniteRing, ideal: Ideal) -> list[VerificationOutcome]:
    """Apply every registered check once, in registry order.

    Checks whose preconditions fail are reported as vacuous with a note,
    never skipped silently.
    """
    inst = Instance(ring, ideal)
    return [_evaluate(theorem, inst) for theorem in _REGISTRY]


# ---------------------------------------------------------------------------
# Per-instance global invariants


def _graph_invariant_violations(prefix: str, tag: str, classes: ClassGraph) -> list[str]:
    out = []
    if classes.vertex_count == 0:
        return out
    try:
        d = classes.diameter
    except DisconnectedGraphError:
        out.append(f"{prefix} {tag} graph is disconnected")
        return out
    if d is not None and d > 3:
        out.append(f"{prefix} {tag} graph has diameter {d} > 3")
    g = classes.girth
    if not math.isinf(g) and g not in (3, 4):
        out.append(f"{prefix} {tag} graph has girth {_fmt_girth(g)} outside {{3, 4, inf}}")
    return out


def instance_invariant_violations(inst: Instance) -> list[str]:
    """Check the global invariants on one instance; returns violations."""
    prefix = f"[{inst.ring.spec_name} | I={{{','.join(inst.ideal_labels)}}}]"
    out: list[str] = []
    carrier = inst.carrier

    out.extend(_graph_invariant_violations(prefix, "base", inst.base.graph.classes))
    out.extend(_graph_invariant_violations(prefix, "duplication", inst.dup))

    # The duplication graph's vertices are Z(R⋈I) without 0.
    t1, t2, t3, t4 = classify_zero_divisors(carrier, inst.base.zero_divisor_mask)
    classified = t1 | t2 | t3 | t4
    classified[carrier.zero] = False
    if _any(classified != (inst.dup.class_of >= 0)):
        out.append(f"{prefix} P2.2: classification misses the zero-divisor set")

    # A reduced ring has 0 as its only nilpotent.
    if (np.count_nonzero(carrier.nilpotents) == 1) != inst.base.is_reduced:
        out.append(f"{prefix} P2.1a: reducedness does not transfer")

    square_zero = _all(carrier.times.take(carrier.members, axis=0) == inst.ring.zero)
    if square_zero != matches_idealization(carrier):
        out.append(f"{prefix} P2.1b: square-zero ideal and table equality disagree")

    failing = structure_checks(
        carrier,
        inst.base.zero_divisor_mask,
        inst.base.graph.classes.vertices,
        inst.dup,
        inst.base.edge_images_vanish,
    )
    if failing:
        out.append(f"{prefix} R2.3: {', '.join(failing)} failed")

    return out


# ---------------------------------------------------------------------------
# Sweeps


class InstanceRecord(NamedTuple):
    ring: str
    ideal: tuple[str, ...]
    outcomes: tuple[VerificationOutcome, ...]


# The ideals of a ring that each ideal filter keeps.
_IDEAL_FILTERS: dict[str, Callable[[Ideal], bool]] = {
    "all": lambda ideal: True,
    "nonzero": lambda ideal: not ideal.is_zero,
    "proper": lambda ideal: not ideal.is_zero and not ideal.is_full,
}


def _sweep_ring(spec: str, ideal_filter: str) -> tuple[list[InstanceRecord], list[str]]:
    ring = parse_ring_spec(spec)
    keep = _IDEAL_FILTERS[ideal_filter]
    ideals = [ideal for ideal in all_ideals(ring) if keep(ideal)]
    # Ideals come sorted by size, so a ring whose largest duplication is
    # above the order limit is refused before any of its instances runs.
    if ideals:
        _check_duplication_order(ring, ideals[-1])
    base = RingFacts(ring)
    records: list[InstanceRecord] = []
    violations: list[str] = []
    for ideal in ideals:
        inst = Instance(ring, ideal, base)
        outcomes = tuple([_evaluate(theorem, inst) for theorem in _REGISTRY])
        violations.extend(instance_invariant_violations(inst))
        records.append(InstanceRecord(ring.spec_name, inst.ideal_labels, outcomes))
    return records, violations


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A process pool whose workers each run a single BLAS thread.

    A BLAS library sizes its thread pool once, from these variables, when
    numpy loads it, so they are set while the pool lives: a spawned worker
    starts from a fresh interpreter, whenever the pool decides to start
    it, and inherits the environment of that moment.  Without them every
    worker would start one BLAS thread per core.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


_encode = json.encoder.encode_basestring_ascii
_STATUS_VALUES = tuple(status.value for status in Status)
# Between the members of an outcome's JSON object, and after its last one.
_SEP, _END = ",\n" + " " * 10, "\n" + " " * 8 + "}"
# The "status" and "theorem" members of an outcome's JSON object.
_STATUS_THEOREM_JSON = {
    (status, theorem): f'"status": "{status.value}"{_SEP}"theorem": "{theorem.value}"'
    for status in Status
    for theorem in TheoremId
}


def _json_block(items: list[str], pad: int, brackets: str = "[]") -> str:
    """Encoded array ``items``, or with ``brackets`` "{}" encoded object
    members ``"key": value`` in key order, in the layout of ``json.dumps``
    with ``indent=2``: one item a line, indented by ``pad`` spaces, and
    the bare brackets when there is none."""
    if not items:
        return brackets
    inner = ",\n" + " " * pad
    return brackets[0] + inner[1:] + inner.join(items) + "\n" + " " * (pad - 2) + brackets[1]


# Every report's totals hold every check and every status, so their block
# is laid out once, keys sorted, with a %d where each count goes.
_TOTALS_THEOREMS = sorted(theorem._value_ for theorem in _REGISTRY)
_TOTALS_STATUSES = sorted(_STATUS_VALUES)
_TOTALS_JSON = _json_block(
    [
        f'"{theorem}": ' + _json_block([f'"{status}": %d' for status in _TOTALS_STATUSES], 6, "{}")
        for theorem in _TOTALS_THEOREMS
    ],
    4,
    "{}",
)


@dataclass(frozen=True)
class SweepReport:
    family: tuple[str, ...]
    ideal_filter: str
    instances: tuple[InstanceRecord, ...]
    invariant_violations: tuple[str, ...]

    @cached_fact
    def totals(self) -> dict[str, dict[str, int]]:
        counts = {theorem._value_: dict.fromkeys(_STATUS_VALUES, 0) for theorem in _REGISTRY}
        for record in self.instances:
            for outcome in record.outcomes:
                counts[outcome.theorem._value_][outcome.status._value_] += 1
        return counts

    @property
    def counterexample_count(self) -> int:
        return sum(t[Status.COUNTEREXAMPLE._value_] for t in self.totals.values())

    @property
    def succeeded(self) -> bool:
        return self.counterexample_count == 0 and not self.invariant_violations

    def to_json(self, generated_at: str | None = None) -> str:
        """The JSON report: the bytes of ``json.dumps(report, indent=2,
        sort_keys=True)`` plus a newline, written in that fixed layout
        directly, with every string escaped by the C function
        ``json.dumps`` itself uses.  (``json.dumps`` with an indent runs
        its pure-Python encoder.)  An outcome always has a status and a
        theorem, so its object is written in one piece, as ``_json_block``
        would lay it out, those two members from ``_STATUS_THEOREM_JSON``;
        the totals fill the fixed layout ``_TOTALS_JSON``."""
        sep, end = _SEP, _END
        instances = []
        for record in self.instances:
            outcomes = []
            for o in record.outcomes:
                note = "" if o.note is None else f'"note": {_encode(o.note)}{sep}'
                witness = "" if o.witness is None else f'{sep}"witness": {_encode(o.witness)}'
                pair = _STATUS_THEOREM_JSON[o.status, o.theorem]
                outcomes.append(f"{{{sep[1:]}{note}{pair}{witness}{end}")
            ideal = _json_block([_encode(label) for label in record.ideal], 8)
            members = [
                f'"ideal": {ideal}',
                f'"outcomes": {_json_block(outcomes, 8)}',
                f'"ring": {_encode(record.ring)}',
            ]
            instances.append(_json_block(members, 6, "{}"))
        totals = self.totals
        counts = tuple([totals[t][s] for t in _TOTALS_THEOREMS for s in _TOTALS_STATUSES])
        violations = [_encode(v) for v in self.invariant_violations]
        members = [f'"family": {_json_block([_encode(s) for s in self.family], 4)}']
        if generated_at is not None:
            members.append(f'"generated_at": {_encode(generated_at)}')
        members += [
            f'"ideal_filter": {_encode(self.ideal_filter)}',
            f'"instances": {_json_block(instances, 4)}',
            f'"invariant_violations": {_json_block(violations, 4)}',
            f'"totals": {_TOTALS_JSON % counts}',
        ]
        return _json_block(members, 2, "{}") + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["ring", "ideal", "theorem", "status", "witness", "note"])
        for record in self.instances:
            ideal_text = "{" + ",".join(record.ideal) + "}"
            for o in record.outcomes:
                writer.writerow(
                    [
                        record.ring,
                        ideal_text,
                        o.theorem._value_,
                        o.status._value_,
                        o.witness or "",
                        o.note or "",
                    ]
                )
        return buffer.getvalue()


def sweep(
    family: Sequence[str],
    ideal_filter: str = "nonzero",
    workers: int | None = None,
) -> SweepReport:
    """Run every registered check over every (ring, ideal) of a family.

    A pool of workers is handed the rings largest first, by the order
    read off each spec's moduli (ties in family order), so that no large
    ring starts last.  The report is assembled in family order regardless
    of worker count, so identical inputs produce byte-identical
    serializations.  An unknown ideal filter or a worker count below 1
    raises ValueError before any ring is built; the pool starts no more
    workers than there are rings or cores.
    """
    if ideal_filter not in _IDEAL_FILTERS:
        raise ValueError(f"unknown ideal filter '{ideal_filter}'")
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    specs = [ring_spec_name(spec) for spec in family]
    if workers == 1 or len(specs) <= 1:
        results = [_sweep_ring(spec, ideal_filter) for spec in specs]
    else:
        start = sorted(range(len(specs)), key=lambda t: -math.prod(_ring_moduli(specs[t])))
        ordered = [specs[t] for t in start]
        with _worker_pool(min(workers, len(specs), os.cpu_count() or 1)) as pool:
            done = dict(zip(start, pool.map(_sweep_ring, ordered, itertools.repeat(ideal_filter))))
        results = [done[t] for t in range(len(specs))]
    records: list[InstanceRecord] = []
    violations: list[str] = []
    for recs, viols in results:
        records.extend(recs)
        violations.extend(viols)
    return SweepReport(
        family=tuple(specs),
        ideal_filter=ideal_filter,
        instances=tuple(records),
        invariant_violations=tuple(violations),
    )
