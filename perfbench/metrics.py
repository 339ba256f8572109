"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; the
self-test checks that the two agree.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median a metric may worsen)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_vs_ref", "x", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Printed with the end-to-end metrics but not gated: raw times follow the
# host's speed, which wanders by a third from one minute to the next.
UNGATED = (
    ("wall_s", "s"),
    ("ref_wall_s", "s"),
    ("instances_per_s", "1/s"),
)

# Public functions whose calls and self time are reported, by layer module.
TRACED = {
    "specs": ("parse_ring_spec",),
    "rings": (
        "make_zn",
        "principal_ideal",
        "all_ideals",
        "prime_ideals",
        "minimal_primes",
        "zero_divisors",
        "is_reduced",
        "is_ideal",
        "annihilator_pair",
        "zset_square_zero",
        "is_prime_ideal",
    ),
    "amalgam": (
        "amalgamated_duplication",
        "idealization",
        "classify_zero_divisors",
        "structure_checks",
    ),
    "graphs": (
        "build_graph",
        "diameter",
        "girth",
        "is_connected",
        "complete_bipartition",
        "universal_vertices",
    ),
    "theorems": ("sweep", "instance_invariant_violations"),
}

COUNTERS = (
    ("rings.all_ideals.ideals", "count"),
    ("rings.prime_ideals.primes", "count"),
    ("amalgam.table_cells", "count"),
    ("amalgam.table_bytes_computed", "bytes"),
    ("graphs.vertices", "count"),
    ("graphs.edges", "count"),
    ("graphs.diameter.bfs_work", "count"),
)

CHECKS = ("C3.3", "C3.4", "T4.8", "L4.9", "C4.10", "P4.11", "T4.12", "P4.13", "L4.15", "P4.16")


def nonvacuous_metric(theorem: str) -> str:
    return f"theorems.{theorem.replace('.', '_')}.nonvacuous"


def _per_layer() -> tuple:
    out = []
    for layer, names in TRACED.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            out.append((f"{layer}.{name}.self_s", "s", "lower"))
    for layer in ("rings", "amalgam", "graphs", "bench"):
        out.append((f"{layer}.self_s", "s", "lower"))
    out.extend((name, unit, "lower") for name, unit in COUNTERS)
    out.extend((nonvacuous_metric(t), "count", "higher") for t in CHECKS)
    out.extend(
        (
            ("theorems.sweep.pool_wall_s", "s", "lower"),
            ("theorems.sweep.worker_busy_frac", "frac", "higher"),
            ("theorems.sweep.ring_median_s", "s", "lower"),
            ("theorems.sweep.ring_max_s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.attributed_frac", "frac", "higher"),
        )
    )
    return tuple(out)


PER_LAYER = _per_layer()
