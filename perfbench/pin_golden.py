"""Pin the golden per-instance records from the current program.

Run from the repository root:  python3 perfbench/pin_golden.py

Writes one file per workload to perfbench/golden/, one instance per
line.  Re-pin only when a change is meant to alter the sweep's output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import amalgam_zdg  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    (HERE / "golden").mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        family = amalgam_zdg.expand_family(workload.family)
        outcome = workload.outcome(workload.call(family, 1))
        if outcome.problems:
            print(f"refusing to pin {workload.golden}: {outcome.problems}", file=sys.stderr)
            return 1
        lines = [
            f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
            for key, record in sorted(outcome.records.items())
        ]
        path = HERE / "golden" / f"{workload.golden}.json"
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{path.name}: {len(lines)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
