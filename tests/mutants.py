"""Mutant gate: the checks must still be able to fail.

Each entry plants one fault in a copy of the package: in ``module``, the
exact ``snippet``, which must occur once, becomes ``replacement``.  The
tests named in ``killers`` then run against the copy, and at least one of
them must fail.  Before any mutant, the named tests run once against an
unmutated copy and must all pass there.

    python3 tests/mutants.py

Exit code 0 when every mutant is killed; 1 when a mutant survives, when a
snippet is missing or occurs more than once (a refactor must update the
entry, not drop it), when a named test is not found, or when the named
tests fail on the unmutated copy.  Pytest does not collect this file; it
is slow, and CI runs it as its own step.  An entry is never deleted or
weakened to make the gate pass.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "amalgam_zdg"


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    killers: tuple[str, ...]


# matches_idealization's test of the sums at a product w that differs.
_SUMS_DIFFER = (
    "            if _any(add[w_dup[h, i, j]].take(si) != add[w_ideal[h, 0, j]].take(si)):\n"
)

# The DOT written from the classes against the table path's, and the
# pinned bytes of export-dot.
_DOT_KILLERS = (
    "tests/test_graphs.py::TestDot::test_key_classes_match_the_table_path",
    "tests/test_cli.py::TestExportDot::test_output_is_pinned",
)

MUTANTS = (
    Mutant(
        "ideal test: closure under addition always holds",
        "rings.py",
        "    inside = mask[sums]\n",
        "    inside = mask[sums] | True\n",
        (
            "tests/test_rings.py::TestIdeals::test_violation_messages_name_offenders",
            "tests/test_amalgam.py::TestConstruction::test_non_ideal_is_rejected_with_detail",
        ),
    ),
    Mutant(
        "ideal test: absorption always holds",
        "rings.py",
        "    inside = mask[times]\n",
        "    inside = mask[times] | True\n",
        (
            "tests/test_rings.py::TestIdeals"
            "::test_additive_subgroup_that_does_not_absorb_is_refused",
        ),
    ),
    Mutant(
        "P2.1b comparator: a differing product decides without its sums",
        "amalgam.py",
        _SUMS_DIFFER,
        "            if True:\n",
        (
            "tests/test_amalgam.py::TestIdealization"
            "::test_comparator_compares_the_sums_where_products_differ",
        ),
    ),
    Mutant(
        "P2.1b comparator: the sums never differ",
        "amalgam.py",
        _SUMS_DIFFER,
        "            if False:\n",
        (
            "tests/test_amalgam.py::TestIdealization"
            "::test_comparator_matches_whole_tables_on_every_planted_cell",
        ),
    ),
    Mutant(
        "C3.4: the kernel minimal primes clause always holds",
        "theorems.py",
        "    c = (\n        len(mins) == 2\n",
        "    c = True or (\n        len(mins) == 2\n",
        (
            "tests/test_falsifiability.py"
            "::test_planted_minimal_prime_rows_make_c3_4_a_counterexample",
        ),
    ),
    Mutant(
        "evaluator: no zero-ideal precondition",
        "theorems.py",
        "        if theorem in _NONZERO_IDEAL_CHECKS and inst.ideal.is_zero:\n"
        '            raise _Vacuous(f"precondition not met: {_ZERO_IDEAL}")\n',
        "",
        (
            "tests/test_theorems.py::TestRunAll::test_zero_ideal_reports_precondition_notes",
            "tests/test_theorems.py::TestSweep::test_all_filter_keeps_zero_ideal_with_notes",
        ),
    ),
    Mutant(
        "R2.3: the crossings always vanish",
        "amalgam.py",
        "    crossings = _all(\n",
        "    crossings = True or _all(\n",
        ("tests/test_falsifiability.py::test_planted_product_fails_r2_3_crossings",),
    ),
    Mutant(
        "R2.3: the exclusive neighbours always hold",
        "amalgam.py",
        "        exclusive = first and second\n",
        "        exclusive = True\n",
        ("tests/test_falsifiability.py::test_planted_sum_fails_r2_3_exclusive_neighbors",),
    ),
    Mutant(
        "C3.4 minimality: every prime row is kept",
        "rings.py",
        "    return masks if _all(keep) else masks[keep]\n",
        "    return masks\n",
        ("tests/test_rings.py::TestPrimes::test_minimal_rows_drop_strict_supersets_only",),
    ),
    Mutant(
        "C3.4 primes: the masks drop their second-coordinate factor",
        "rings.py",
        "    masks = first & rows.take(b[primitive], axis=0)[:, second]\n",
        "    masks = first & (rows.take(b[primitive], axis=0)[:, second] | True)\n",
        ("tests/test_acceptance.py::test_factored_duplication_matches_the_materialized_graph",),
    ),
    Mutant(
        "C3.4 primes: every idempotent pair passes the primitive test",
        "rings.py",
        "    primitive = related.sum(axis=1) == 1\n",
        "    primitive = related.sum(axis=1) >= 1\n",
        (
            "tests/test_rings.py::TestPrimes::test_minimal_primes_of_z6",
            "tests/test_acceptance.py::test_duplication_primes_lift_base_primes",
        ),
    ),
    Mutant(
        "C3.4 primes: the prime table reads the pair relation transposed",
        "rings.py",
        "        below = columns.take(idempotents, axis=0) == idempotents\n",
        "        below = (columns.take(idempotents, axis=0) == idempotents).T\n",
        (
            "tests/test_rings.py::TestPrimes::test_minimal_primes_of_z6",
            "tests/test_acceptance.py::test_duplication_primes_lift_base_primes",
        ),
    ),
    Mutant(
        "count helpers: any needs two nonzero entries",
        "rings.py",
        "    return int(np.count_nonzero(values)) > 0\n",
        "    return int(np.count_nonzero(values)) > 1\n",
        ("tests/test_rings.py::TestCountHelpers::test_helpers_agree_with_ndarray_any_and_all",),
    ),
    Mutant(
        "export-dot: members of a clique class are never joined",
        "graphs.py",
        "        if clique[a]:\n            row |= later == a\n",
        "",
        _DOT_KILLERS,
    ),
    Mutant(
        "export-dot: each vertex's edge row is read one vertex late",
        "graphs.py",
        "        later = of[u + 1 :]\n",
        "        later = of[u + 2 :]\n",
        _DOT_KILLERS,
    ),
    Mutant(
        "annihilator classes: the clique classes are not related to themselves",
        "theorems.py",
        "        rel[2:, 2:] = classes.q | np.diag(classes.clique)\n",
        "        rel[2:, 2:] = classes.q\n",
        ("tests/test_acceptance.py::test_factored_duplication_matches_the_materialized_graph",),
    ),
    Mutant(
        "P4.13 joint annihilators: a clique class does not kill itself",
        "theorems.py",
        "        kills = classes.q | np.diag(classes.clique)\n",
        "        kills = classes.q\n",
        ("tests/test_acceptance.py::test_vectorized_checks_match_loops",),
    ),
    Mutant(
        "P2.1b comparator: the last block of first coordinates is dropped",
        "amalgam.py",
        "    for rows in [zero, *[slice(lo, lo + step) for lo in range(0, n, step)]]:\n",
        "    for rows in [zero, *[slice(lo, lo + step) for lo in range(0, n - step, step)]]:\n",
        ("tests/test_amalgam.py::TestIdealization::test_comparator_reads_the_last_block",),
    ),
    Mutant(
        "diameter: the step count is capped at 3",
        "graphs.py",
        "        while len(before):\n",
        "        while len(before) and steps < 3:\n",
        ("tests/test_graphs.py::TestDiameter::test_no_cap_at_three",),
    ),
    Mutant(
        "key classes: every size is one too large",
        "theorems.py",
        "    return ClassGraph(q, counts[on_graph], clique, position[keys])\n",
        "    return ClassGraph(q, counts[on_graph] + 1, clique, position[keys])\n",
        ("tests/test_acceptance.py::test_factored_duplication_matches_the_materialized_graph",),
    ),
)


def run_tests(src: Path, node_ids) -> int:
    """Pytest's exit code for ``node_ids`` with the package imported from
    ``src``: 0 all passed, 1 some failed, anything else an error."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True).returncode


def imported_from(src: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = f"import {PACKAGE}; print({PACKAGE}.__file__)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return Path(out.stdout.strip()).resolve().parent


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        package = src / PACKAGE
        shutil.copytree(
            ROOT / "src" / PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        if imported_from(src) != package.resolve():
            print(f"error: {PACKAGE} is not imported from the copy in {src}")
            return 1
        killers = sorted({node for m in MUTANTS for node in m.killers})
        code = run_tests(src, killers)
        if code != 0:
            print(f"error: the named tests do not pass unmutated (pytest exit {code})")
            return 1
        failed = 0
        for mutant in MUTANTS:
            path = package / mutant.module
            original = path.read_text(encoding="utf-8")
            found = original.count(mutant.snippet)
            if found != 1:
                print(f"MISSING  {mutant.name}: snippet found {found} times in {mutant.module}")
                failed += 1
                continue
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            try:
                code = run_tests(src, mutant.killers)
            finally:
                path.write_text(original, encoding="utf-8")
            if code == 1:
                print(f"killed   {mutant.name}")
            else:
                verdict = "SURVIVED" if code == 0 else f"ERROR    (pytest exit {code})"
                print(f"{verdict} {mutant.name}")
                failed += 1
        print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
