"""Self-test of the benchmark's own machinery, on small ring families.

Run from the repository root:  python3 perfbench/selftest.py

Checks that BENCHMARK.json lists the metrics and workloads the code
reports, that the golden records match the CLI's JSON serialization, that
the golden gate catches a corrupted, missing or unexpected record and makes
a run exit nonzero, and that the tracer sees calls made through
``theorems.Instance`` and restores every binding.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import amalgam_zdg  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = "Z2..Z12"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS), "workload names disagree")
    expect(
        {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES),
        "BENCHMARK.json lists an unknown workload",
    )
    expect(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        == [tuple(m) for m in END_TO_END],
        "end_to_end metrics disagree with metrics.py",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [tuple(m) for m in PER_LAYER],
        "per_layer metrics disagree with metrics.py",
    )


def small_outcome():
    workload = workloads.WORKLOADS["sweep-zn"]
    family = amalgam_zdg.expand_family(SMALL)
    return workload.outcome(workload.call(family, 1))


def test_golden_matches_cli() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "amalgam_zdg", "sweep", "--family", SMALL,
         "--format", "json", "--workers", "1"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    cli = workloads._sweep_outcome(proc.stdout)
    golden = workloads.load_golden(workloads.WORKLOADS["sweep-zn"])
    expect(cli.records and not cli.problems, "CLI sweep reported problems")
    expect(
        all(golden[key] == record for key, record in cli.records.items()),
        "golden records differ from the CLI's JSON",
    )


def test_gate() -> None:
    outcome = small_outcome()
    pinned = workloads.load_golden(workloads.WORKLOADS["sweep-zn"])
    golden = {k: v for k, v in pinned.items() if k in outcome.records}
    expect(len(golden) == len(outcome.records), "golden lacks a small-family instance")
    expect(not workloads.failed_instances(outcome, golden), "clean records fail the gate")

    key = sorted(golden)[3]
    corrupted = dict(golden)
    corrupted[key] = [dict(o, status="verified") for o in golden[key]]
    expect(corrupted[key] != golden[key], "corruption left the record unchanged")
    expect(workloads.failed_instances(outcome, corrupted) == {key}, "corrupted record passed")

    without_key = {k: v for k, v in golden.items() if k != key}
    expect(workloads.failed_instances(outcome, without_key) == {key},
           "unexpected record passed")
    with_phantom = dict(golden, **{"Z99 {0}": []})
    expect(workloads.failed_instances(outcome, with_phantom) == {"Z99 {0}"},
           "missing record passed")


def test_corrupted_golden_fails_run() -> None:
    """A whole run against one corrupted golden record exits 1 with correct
    false and one failure per pass; the family is shrunk for speed."""
    tiny = replace(workloads.WORKLOADS["graph-invariants"], family="Z2xZ2,Z6")
    pairs = tiny.call(amalgam_zdg.expand_family(tiny.family), 1)
    golden = dict(pairs)
    key = sorted(golden)[0]
    golden[key] = dict(golden[key], girth=4 if golden[key]["girth"] != 4 else 3)
    saved = (workloads.WORKLOADS["graph-invariants"], workloads.load_golden)
    workloads.WORKLOADS["graph-invariants"] = tiny
    workloads.load_golden = lambda workload: golden
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "graph-invariants", "--seconds", "0"])
    finally:
        workloads.WORKLOADS["graph-invariants"], workloads.load_golden = saved
    result = json.loads(out.getvalue().splitlines()[-1])
    expect(code == 1, f"corrupted golden gave exit code {code}")
    passes = result["attempted"] // len(golden)
    expect(result["correct"] is False and result["failed"] == passes >= 1, f"result {result}")


def test_tracer() -> None:
    from amalgam_zdg import graphs, theorems

    original = theorems.diameter
    tracer = Tracer()
    with tracer.installed():
        expect(theorems.diameter is not original, "theorems binding not wrapped")
        with tracer.span("bench.ring", instance="Z8"):
            amalgam_zdg.sweep(["Z8"], workers=1)
    expect(theorems.diameter is original and graphs.diameter is original,
           "bindings not restored")
    calls, self_s = tracer.totals()
    expect(calls["graphs.diameter"] > 0, "diameter calls through Instance were missed")
    expect(calls["theorems.sweep"] == 1, "sweep not traced once")
    root = tracer.spans[0]
    expect(root[0] == "bench.ring" and root[3] == -1, "root span is not the bench span")
    total = sum(self_s.values())
    expect(abs(total - (root[2] - root[1])) < 1e-6, "self times do not sum to the wall")
    expect(tracer.counters["rings.all_ideals.ideals"] > 0, "ideal counter not taken")


def main() -> int:
    for test in (
        test_benchmark_json,
        test_golden_matches_cli,
        test_gate,
        test_corrupted_golden_fails_run,
        test_tracer,
    ):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
