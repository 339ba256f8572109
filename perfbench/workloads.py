"""The benchmark's workloads and the per-instance records they produce.

Every workload is an exhaustive ring family with the ``nonzero`` ideal
filter.  The seed only permutes ring order within the family; records are
keyed per (ring, ideal) instance, so the golden check does not depend on
order.  The package is reached through ``amalgam_zdg`` attribute lookups at
call time, so the tracer's rebinding of public functions is seen here.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import amalgam_zdg as az

IDEAL_FILTER = "nonzero"
GOLDEN = Path(__file__).resolve().parent / "golden"

_VIOLATION_RE = re.compile(r"\[(\S+) \| I=(\{.*?\})\]")


def instance_key(ring: str, ideal) -> str:
    return f"{ring} {{{','.join(ideal)}}}"


@dataclass
class Outcome:
    """Records of one pass over a family, keyed by instance.

    ``problems`` names instances that broke a rule checked on every run
    (a counterexample, an invariant violation, a diameter above 3 or a girth
    outside {3, 4, inf}), whatever the golden record says.
    """

    records: dict
    problems: dict
    nonvacuous: dict

    def merge(self, other: "Outcome") -> None:
        self.records.update(other.records)
        for key, msgs in other.problems.items():
            self.problems.setdefault(key, []).extend(msgs)
        for theorem, count in other.nonvacuous.items():
            self.nonvacuous[theorem] = self.nonvacuous.get(theorem, 0) + count


@dataclass(frozen=True)
class Workload:
    """A ring family and the user path run on it.

    ``pool``: the traced run also times one ``workers=nproc`` sweep, for
    the process-pool metrics.
    """

    name: str
    family: str
    kind: str  # "sweep" or "graph"
    golden: str
    pool: bool = False

    def call(self, specs: list[str], workers: int = 1, lib=az):
        """The timed user-path call on rings in the given order, made with
        ``lib``: the program, or the pinned reference copy of it."""
        if self.kind == "sweep":
            report = lib.sweep(specs, ideal_filter=IDEAL_FILTER, workers=workers)
            return report.to_json()
        return _graph_records(specs, lib)

    def outcome(self, payload) -> Outcome:
        if self.kind == "sweep":
            return _sweep_outcome(payload)
        return _graph_outcome(payload)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-zn", "Z2..Z32", "sweep", golden="zn", pool=True),
        Workload("sweep-large", "Z37,Z41,Z43", "sweep", golden="large"),
        Workload(
            "graph-invariants", "Z4xZ8,Z2xZ16,Z6xZ6,Z2xZ2xZ8,Z5xZ7", "graph", golden="graph"
        ),
    )
}


def _sweep_outcome(text: str) -> Outcome:
    data = json.loads(text)
    records, problems = {}, {}
    for inst in data["instances"]:
        key = instance_key(inst["ring"], inst["ideal"])
        records[key] = inst["outcomes"]
        for o in inst["outcomes"]:
            if o["status"] == "counterexample":
                problems.setdefault(key, []).append(f"{o['theorem']} counterexample")
    for violation in data["invariant_violations"]:
        m = _VIOLATION_RE.match(violation)
        key = f"{m.group(1)} {m.group(2)}" if m else "unattributed"
        problems.setdefault(key, []).append(violation)
    nonvacuous = {
        theorem: counts["verified"] + counts["counterexample"]
        for theorem, counts in data["totals"].items()
    }
    return Outcome(records, problems, nonvacuous)


def _graph_records(specs: list[str], lib) -> list[tuple[str, dict]]:
    """The library path: duplicate along each nonzero ideal, build the
    graph, and read its invariants."""
    out = []
    for spec in specs:
        ring = lib.parse_ring_spec(spec)
        for ideal in lib.all_ideals(ring):
            if ideal.is_zero:
                continue
            dup = lib.amalgamated_duplication(ring, ideal)
            inv = lib.graph_invariants(lib.build_graph(dup.ring))
            record = {
                "vertices": inv.vertex_count,
                "edges": inv.edge_count,
                "diameter": inv.diameter,
                "girth": "inf" if math.isinf(inv.girth) else int(inv.girth),
                "bipartition": list(inv.bipartition) if inv.bipartition else None,
                "universal": len(inv.universal_vertices),
            }
            out.append((instance_key(ring.spec_name, ideal.labels()), record))
    return out


def _graph_outcome(pairs: list[tuple[str, dict]]) -> Outcome:
    records, problems = {}, {}
    for key, record in pairs:
        records[key] = record
        d, g = record["diameter"], record["girth"]
        if d is None or d > 3:
            problems.setdefault(key, []).append(f"diameter {d} is not in 1..3")
        if g not in (3, 4, "inf"):
            problems.setdefault(key, []).append(f"girth {g} is not in {{3, 4, inf}}")
    return Outcome(records, problems, {})


def failed_instances(outcome: Outcome, golden: dict) -> set[str]:
    """Instances whose record differs from the golden one, that are missing
    or unexpected, or that broke a rule checked on every run."""
    wrong = {k for k, v in golden.items() if outcome.records.get(k) != v}
    extra = outcome.records.keys() - golden.keys()
    return wrong | extra | set(outcome.problems)


def load_golden(workload: Workload) -> dict:
    with open(GOLDEN / f"{workload.golden}.json", encoding="utf-8") as handle:
        return json.load(handle)


class Gate:
    """Counts instances attempted and failed against the golden records."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def check(self, outcome: Outcome) -> None:
        bad = failed_instances(outcome, self.golden)
        self.attempted += max(len(self.golden), len(outcome.records))
        self.failed += len(bad)
        for key in sorted(bad)[:5]:
            msgs = outcome.problems.get(key) or ["record differs from the golden"]
            print(f"FAILED {key}: {'; '.join(msgs)}", file=sys.stderr)

    def fail_all(self) -> None:
        """A call that raised fails every instance it was to produce."""
        self.attempted += len(self.golden)
        self.failed += len(self.golden)
