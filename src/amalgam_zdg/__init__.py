"""Finite commutative rings, duplications along an ideal, and their
zero-divisor graphs, with an exhaustive verification harness."""

from .amalgam import (
    AmalgamRing,
    DuplicationCarrier,
    DuplicationTooLargeError,
    NotAnIdealError,
    amalgamated_duplication,
    classify_zero_divisors,
    matches_idealization,
    structure_checks,
    verify_product_embedding,
)
from .graphs import (
    ClassGraph,
    DisconnectedGraphError,
    ZDGraph,
    build_graph,
    diameter,
    export_dot,
    graph_invariants,
)
from .rings import (
    FiniteRing,
    Ideal,
    all_ideals,
    annihilator,
    ideal_from_generators,
    ideal_violations,
    is_field,
    is_ideal,
    is_prime_ideal,
    is_reduced,
    make_zn,
    prime_ideals,
    principal_ideal,
    product_ring,
    verify_ring_axioms,
    zero_divisors,
)
from .specs import SpecError, expand_family, parse_ideal_spec, parse_ring_spec
from .theorems import (
    Instance,
    InstanceRecord,
    PreconditionError,
    RingFacts,
    Status,
    SweepReport,
    TheoremId,
    VerificationOutcome,
    check,
    instance_invariant_violations,
    run_all,
    sweep,
)

__version__ = "0.1.0"
