"""Sweep benchmark for amalgam-zdg: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-zn --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` times the workload's user-path call ring by ring in one fresh
process (rep.py), in passes over the family while ``--seconds`` allows, each
call paired with the same call into the reference copy of the program pinned
in ``perfbench/ref/``.  It reports wall_vs_ref, the program's time over the
copy's, peak_rss_mb after the first pass, and setup_s from fresh
interpreters afterwards; the raw wall_s and instances_per_s are printed but
not in the result.  ``--trace 1`` runs the family ring by ring in this process,
once untraced and once with every public layer function wrapped, and
reports per-layer calls, self times, exact counters and the tracing
overhead; spans are written to ``.bench_out/``.  ``--workload all`` runs
each workload in a fresh process and prints every metric.

Every pass is checked per (ring, ideal) instance against the golden records
in ``perfbench/golden/``.  The last line on stdout is one JSON object with
keys correct, attempted, failed and metrics.  Exit code 0 when every
instance passed, 1 otherwise, 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER, TRACED, UNGATED, nonvacuous_metric

# workloads.py and spans.py import amalgam_zdg, so they are imported inside
# functions, after run_one has found the program sources.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep-zn", "sweep-large", "graph-invariants")

# NumPy asks for transparent huge pages for large arrays; whether the host
# grants them varies, and peak RSS with it by several MB from run to run.
REP_ENV = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")

# setup_s is the median over fresh interpreters, each importing the package
# and parsing the workload's family.  The probes run after the timed passes,
# in the last PROBE_SHARE of the run, and at least MIN_PROBES of them.
PROBE_SHARE = 0.12
MIN_PROBES = 15
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from amalgam_zdg.specs import expand_family, parse_ring_spec; "
    "[parse_ring_spec(s) for s in expand_family(sys.argv[2])]"
)


def probe_setup(family: str, until: float) -> list[float]:
    times = []
    while len(times) < MIN_PROBES or perf_counter() < until:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), family], cwd=ROOT, check=True
        )
        times.append(perf_counter() - start)
    return times


def run_rep(workload, args, gate):
    """rep.py in a fresh process (see there for ``args``).  Every pass it
    made is checked by the gate; returns its result, or None if it failed."""
    from workloads import Outcome

    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), args[0], workload.name, *map(str, args[1:])],
        cwd=ROOT,
        env=REP_ENV,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        gate.fail_all()
        return None
    rep = json.loads(proc.stdout.splitlines()[-1])
    for done in rep.get("passes", [rep]):
        gate.check(Outcome(done["records"], done["problems"], done["nonvacuous"]))
    return rep


def run_untraced(workload, family, seed, seconds, gate) -> dict:
    """Times every ring of the family in repeated passes, in one fresh
    process, each call of the program paired with one of the reference copy
    pinned in ``ref/``.  A ring's time is its median over the passes and a
    workload's time the sum of those medians.  The host's speed wanders by
    a third from one minute to the next, and the paired calls see the same
    speed, so wall_vs_ref, the program's time over the copy's, repeats where
    wall_s does not."""
    begin = perf_counter()
    timed = seconds * (1 - PROBE_SHARE)
    rep = run_rep(workload, ("passes", ",".join(family), seed, timed), gate)
    if rep is None:
        return {}
    passes = rep["passes"]
    wall, ref = (
        sum(statistics.median(done[clock][spec] for done in passes) for spec in family)
        for clock in ("wall_s", "ref_s")
    )
    print(f"{workload.name}: {len(passes)} passes, program "
          f"{[round(sum(done['wall_s'].values()), 3) for done in passes]} s, reference "
          f"{[round(sum(done['ref_s'].values()), 3) for done in passes]} s")
    return {
        "setup_s": statistics.median(probe_setup(workload.family, begin + seconds)),
        "wall_vs_ref": wall / ref,
        "peak_rss_mb": rep["peak_rss_mb"],
        "wall_s": wall,
        "ref_wall_s": ref,
        "instances_per_s": len(gate.golden) / wall,
    }


def run_traced(workload, family, seed, gate) -> dict:
    from spans import LAYERS, Tracer
    from workloads import Outcome

    order = family[:]
    random.Random(seed).shuffle(order)

    # Each ring runs once untraced and once traced, alternating which goes
    # first, so warm-up inside the process does not bias the overhead.
    tracer = Tracer()
    untraced, traced = Outcome({}, {}, {}), Outcome({}, {}, {})
    ring_times = []
    for k, spec in enumerate(order):
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if with_trace:
                with tracer.installed(), tracer.span("bench.ring", instance=spec):
                    payload = workload.call([spec], 1)
                traced.merge(workload.outcome(payload))
            else:
                start = perf_counter()
                payload = workload.call([spec], 1)
                ring_times.append(perf_counter() - start)
                untraced.merge(workload.outcome(payload))
    gate.check(untraced)
    gate.check(traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.jsonl")

    busy = sum(ring_times)
    values = {}
    if workload.pool:
        workers = os.cpu_count() or 1
        rep = run_rep(workload, ("call", ",".join(order), workers), gate)
        if rep:
            values["theorems.sweep.pool_wall_s"] = rep["wall_s"]
            values["theorems.sweep.worker_busy_frac"] = busy / (workers * rep["wall_s"])

    calls, self_s = tracer.totals()
    traced_wall = sum(end - start for name, start, end, *_ in tracer.spans
                      if name == "bench.ring")
    for layer, names in TRACED.items():
        for name in names:
            values[f"{layer}.{name}.calls"] = calls.get(f"{layer}.{name}", 0)
            values[f"{layer}.{name}.self_s"] = self_s.get(f"{layer}.{name}", 0.0)
    for layer in LAYERS + ("bench",):
        values[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")
        )
    values.update(tracer.counters)
    for theorem, count in traced.nonvacuous.items():
        values[nonvacuous_metric(theorem)] = count
    values.update(
        {
            "theorems.sweep.ring_median_s": statistics.median(ring_times),
            "theorems.sweep.ring_max_s": max(ring_times),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": busy,
            "trace.overhead_s": traced_wall - busy,
            "trace.attributed_frac": 1 - values["bench.self_s"] / traced_wall,
        }
    )
    return values


def run_one(args) -> int:
    if not (SRC / "amalgam_zdg" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import amalgam_zdg
    from workloads import WORKLOADS, Gate, load_golden

    workload = WORKLOADS[args.workload]
    family = amalgam_zdg.expand_family(workload.family)
    gate = Gate(load_golden(workload))
    if args.trace:
        values = run_traced(workload, family, args.seed, gate)
        spec = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = run_untraced(workload, family, args.seed, args.seconds, gate)
        spec = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in spec}
    for name, unit in spec + [(name, unit) for name, unit in UNGATED if name in values]:
        print(f"  {name:<48} {values.get(name, 0):>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {gate.failed / max(gate.attempted, 1):>14.6g} frac")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": max(gate.attempted, 1),
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if gate.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one table and one combined result."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if not lines or not lines[-1].startswith("{"):
            return max(code, 1)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
