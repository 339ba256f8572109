"""Timed calls of a workload in a fresh process.

Invoked by run.py in one of two forms, from the repository root:

    python3 perfbench/rep.py call <workload> <ring,...> <workers>
    python3 perfbench/rep.py passes <workload> <ring,...> <seed> <seconds>

``call`` makes one workload call on the rings in the given order and prints
its wall time.  ``passes`` calls the workload ring by ring, a pass over the
whole family at a time: the first pass in the given order, every further
pass in a new order drawn from ``seed``, while one more pass of the mean
length still ends within ``seconds``, and at least MIN_PASSES of them.
Each ring is called twice in a row, once with the program and once with
the reference copy of it pinned in ``perfbench/ref``.  Which goes first
alternates from pass to pass for every ring, and from ring to ring of the
family as written, as the second call of a pair runs a few per cent
faster.  Each call is timed by the wall clock after a
garbage collection that is not timed.  Before the first pass the copy runs
the family's last ring untimed: the first heavy call in a fresh process
runs several per cent slower, and would count against whichever side
went first.  Peak RSS is read after the first pass, so it does not depend
on the seed.

Both print one JSON line with the per-instance records of every pass for
run.py to check against the golden ones.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "ref"))

import amalgam_zdg  # noqa: E402
import amalgam_zdg_ref  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

MIN_PASSES = 2


def peak_rss_mb() -> float:
    """This process's own peak RSS.  On Linux ru_maxrss starts from the
    parent's peak at the time of the spawn, so VmHWM is read instead."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def outcome_json(outcome: Outcome) -> dict:
    return {
        "records": outcome.records,
        "problems": outcome.problems,
        "nonvacuous": outcome.nonvacuous,
    }


def one_call(workload, order: list[str], workers: int) -> dict:
    start = perf_counter()
    payload = workload.call(order, workers)
    wall = perf_counter() - start
    return dict(outcome_json(workload.outcome(payload)), wall_s=wall, peak_rss_mb=peak_rss_mb())


def passes(workload, order: list[str], seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    begin = perf_counter()
    workload.call(order[-1:], 1, amalgam_zdg_ref)
    phase = {spec: k % 2 for k, spec in enumerate(order)}
    out, peak = [], None
    while len(out) < MIN_PASSES or (perf_counter() - begin) * (len(out) + 1) / len(out) <= seconds:
        times = {"wall_s": {}, "ref_s": {}}
        outcome = Outcome({}, {}, {})
        libs = [("wall_s", amalgam_zdg), ("ref_s", amalgam_zdg_ref)]
        for spec in order:
            for clock, lib in libs if (phase[spec] + len(out)) % 2 == 0 else libs[::-1]:
                gc.collect()
                start = perf_counter()
                payload = workload.call([spec], 1, lib)
                times[clock][spec] = perf_counter() - start
                if lib is amalgam_zdg:
                    outcome.merge(workload.outcome(payload))
        out.append(dict(outcome_json(outcome), **times))
        if peak is None:
            peak = peak_rss_mb()
        order = order[:]
        rng.shuffle(order)
    return {"peak_rss_mb": peak, "passes": out}


def main(argv: list[str]) -> int:
    mode, workload, order = argv[1], WORKLOADS[argv[2]], argv[3].split(",")
    if mode == "call":
        result = one_call(workload, order, int(argv[4]))
    else:
        result = passes(workload, order, int(argv[4]), float(argv[5]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
