"""Command-line front end: analyze rings, verify checks, sweep families.

Exit codes: 0 success / all checks verified or vacuous, 1 counterexample or
invariant violation, 2 usage or parse error, a duplication above the order
limit, or an --out path that cannot be written, 3 a sweep worker process
died (broken process pool), 4 out of memory.

An --out path is opened before the command does any work, without writing
to it, so a path that cannot be written fails at once; the report is
written only when the command has computed it, so a command that fails
leaves an existing file as it was and removes one it created.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from .amalgam import (
    DuplicationTooLargeError,
    NotAnIdealError,
    classify_zero_divisors,
)
from .graphs import ClassGraph, build_graph, export_dot
from .rings import FiniteRing, Ideal, is_field
from .specs import SpecError, expand_family, parse_ideal_spec, parse_ring_spec
from .theorems import Instance, RingFacts, Status, run_all, sweep

WORKERS_ENV = "AMALGAM_ZDG_WORKERS"


class _OutError(Exception):
    """The --out path could not be written."""


def _out_error(out_path: str, exc: OSError) -> _OutError:
    return _OutError(f"cannot write --out '{out_path}': {exc.strerror}")


def _claim_out(out_path: str) -> bool:
    """Open the --out path for appending, which writes nothing, so that a
    path that cannot be written fails before the command runs; True when
    this created the file."""
    created = not os.path.lexists(out_path)
    try:
        open(out_path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _out_error(out_path, exc) from None
    return created


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise _out_error(out_path, exc) from None


def _girth_json(g: int | float) -> int | str:
    return "inf" if math.isinf(g) else int(g)


def _graph_summary(classes: ClassGraph, label) -> dict:
    """The graph part of the ``analyze`` report, with ``label`` naming a
    vertex by its index."""
    parts = classes.bipartition
    return {
        "vertices": classes.vertex_count,
        "edges": classes.edge_count,
        "diameter": classes.diameter,
        "girth": _girth_json(classes.girth),
        "complete": classes.complete,
        "complete_bipartite": parts is not None,
        "parts": list(parts) if parts else None,
        "star": parts is not None and parts[0] == 1,
        "universal": [label(v) for v in classes.universal_vertices],
    }


def _graph_lines(summary: dict, indent: str) -> list[str]:
    if summary["vertices"] == 0:
        return [f"{indent}zero-divisor graph: empty (no nonzero zero-divisors)"]
    parts = summary["parts"]
    return [
        f"{indent}zero-divisor graph: {summary['vertices']} vertices, "
        f"{summary['edges']} edges",
        f"{indent}  diameter {summary['diameter']}, girth {summary['girth']}",
        f"{indent}  complete: {_yn(summary['complete'])}   "
        f"complete bipartite: {_yn(summary['complete_bipartite'])}"
        + (f" (parts {parts[0]},{parts[1]})" if parts else "")
        + f"   star: {_yn(summary['star'])}",
        f"{indent}  universal vertices: "
        + ("{" + ", ".join(summary["universal"]) + "}" if summary["universal"] else "none"),
    ]


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _analysis_data(ring: FiniteRing, ideal: Ideal | None) -> dict:
    """The report of ``analyze``: the base ring read through its
    ``RingFacts``, and the duplication through the sweep's ``Instance``,
    which builds no table of it: its carrier, and its graph as key classes
    (``Instance.dup``).  The four zero-divisor classes are counted off
    their masks; the carrier's zero lies in both kernels, T1 and T2."""
    base = RingFacts(ring)
    data: dict = {
        "ring": {
            "spec": ring.spec_name,
            "order": ring.order,
            "zero_divisors": [ring.labels[z] for z in sorted(base.zero_divisors)],
            "zero_divisors_form_ideal": base.zdivs_form_ideal,
            "domain": base.is_domain,
            "reduced": base.is_reduced,
            "field": is_field(ring),
            "graph": _graph_summary(base.graph.classes, ring.label),
        }
    }
    if ideal is not None:
        inst = Instance(ring, ideal, base)
        carrier, graph = inst.carrier, inst.dup
        t1, t2, t3, t4 = classify_zero_divisors(carrier, base.zero_divisor_mask)
        o1, o2 = (mask.nonzero()[0].tolist() for mask in carrier.kernel_masks)
        data["ideal"] = {"members": list(ideal.labels()), "size": len(ideal)}
        data["duplication"] = {
            "spec": carrier.spec_name,
            "order": carrier.order,
            "classes": {
                "t1_nonzero": int(t1.sum()) - 1,
                "t2_nonzero": int(t2.sum()) - 1,
                "t3": int(t3.sum()),
                "t4": int(t4.sum()),
            },
            "nonzero_zero_divisors": [carrier.label(v) for v in graph.vertices.tolist()],
            "o1": [carrier.label(m) for m in o1],
            "o2": [carrier.label(m) for m in o2],
            "minimal_primes": [
                [carrier.label(m) for m in sorted(p)] for p in carrier.minimal_primes
            ],
            "graph": _graph_summary(graph, carrier.label),
        }
    return data


def _analysis_text(data: dict) -> str:
    ring = data["ring"]
    lines = [f"ring {ring['spec']}  (order {ring['order']})"]
    lines.append(
        "  zero-divisors: {" + ", ".join(ring["zero_divisors"]) + "}"
        f"  (forms an ideal: {_yn(ring['zero_divisors_form_ideal'])})"
    )
    lines.append(
        f"  integral domain: {_yn(ring['domain'])}   reduced: {_yn(ring['reduced'])}"
        f"   field: {_yn(ring['field'])}"
    )
    lines.extend(_graph_lines(ring["graph"], "  "))
    if "duplication" in data:
        ideal = data["ideal"]
        dup = data["duplication"]
        lines.append(
            "ideal I = {" + ", ".join(ideal["members"]) + "}" + f"  ({ideal['size']} elements)"
        )
        lines.append(f"duplication ring {dup['spec']}  (order {dup['order']})")
        cls = dup["classes"]
        lines.append(
            f"  zero-divisor classes: |T1\\0| = {cls['t1_nonzero']}, "
            f"|T2\\0| = {cls['t2_nonzero']}, |T3| = {cls['t3']}, |T4| = {cls['t4']}"
        )
        lines.append(
            f"  nonzero zero-divisors ({len(dup['nonzero_zero_divisors'])}): "
            + ", ".join(dup["nonzero_zero_divisors"])
        )
        lines.append("  O1 = {" + ", ".join(dup["o1"]) + "}")
        lines.append("  O2 = {" + ", ".join(dup["o2"]) + "}")
        lines.append(f"  minimal primes ({len(dup['minimal_primes'])}):")
        for prime in dup["minimal_primes"]:
            lines.append("    {" + ", ".join(prime) + "}")
        lines.extend(_graph_lines(dup["graph"], "  "))
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    ring = parse_ring_spec(args.ring)
    ideal = parse_ideal_spec(ring, args.ideal) if args.ideal else None
    data = _analysis_data(ring, ideal)
    if args.format == "json":
        _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_analysis_text(data), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ring = parse_ring_spec(args.ring)
    ideal = parse_ideal_spec(ring, args.ideal)
    outcomes = run_all(ring, ideal)
    counterexamples = sum(1 for o in outcomes if o.status is Status.COUNTEREXAMPLE)
    if args.format == "json":
        payload = {
            "ring": ring.spec_name,
            "ideal": list(ideal.labels()),
            "outcomes": [o.to_json_dict() for o in outcomes],
            "counterexamples": counterexamples,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        header = (
            f"{ring.spec_name} join {{{','.join(ideal.labels())}}}: "
            f"{len(outcomes)} checks"
        )
        lines = [header]
        for o in outcomes:
            detail = o.witness or o.note or ""
            lines.append(f"  {o.theorem.value:<6} {o.status.value:<15} {detail}".rstrip())
        lines.append(f"counterexamples: {counterexamples}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if counterexamples else 0


def _resolve_workers(args: argparse.Namespace) -> int | None:
    name, workers = "--workers", args.workers
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return None
        try:
            name, workers = WORKERS_ENV, int(env)
        except ValueError:
            raise SpecError(f"{WORKERS_ENV} must be an integer, got '{env}'") from None
    if workers < 1:
        raise SpecError(f"{name} must be at least 1, got {workers}")
    return workers


def cmd_sweep(args: argparse.Namespace) -> int:
    family = expand_family(args.family)
    report = sweep(family, ideal_filter=args.ideals, workers=_resolve_workers(args))
    stamp = (
        datetime.datetime.now(datetime.timezone.utc).isoformat()
        if args.timestamps
        else None
    )
    if args.format == "json":
        _emit(report.to_json(generated_at=stamp), args.out)
    elif args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        lines = []
        if stamp:
            lines.append(f"generated at {stamp}")
        lines.append(
            f"sweep over {len(report.family)} rings "
            f"({len(report.instances)} instances, ideal filter: {report.ideal_filter})"
        )
        lines.append(f"{'theorem':<8} {'verified':>9} {'vacuous':>9} {'counterex.':>11}")
        for theorem, counts in report.totals.items():
            lines.append(
                f"{theorem:<8} {counts['verified']:>9} {counts['vacuous']:>9} "
                f"{counts['counterexample']:>11}"
            )
        if report.invariant_violations:
            lines.append("invariant violations:")
            lines.extend(f"  {v}" for v in report.invariant_violations)
        else:
            lines.append("invariant violations: none")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.succeeded else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    ring = parse_ring_spec(args.ring)
    if args.base:
        text = export_dot(build_graph(ring).classes, ring.label)
    elif args.ideal is None:
        raise SpecError("export-dot needs --ideal unless --base is given")
    else:
        inst = Instance(ring, parse_ideal_spec(ring, args.ideal))
        # The carrier first: it refuses an oversized duplication before the
        # base ring's classes are built.
        carrier, classes = inst.carrier, inst.dup
        text = export_dot(classes, carrier.label)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgam-zdg",
        description=(
            "Finite commutative rings, duplications along an ideal, and their "
            "zero-divisor graphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report invariants of a ring (and ideal)")
    analyze.add_argument("ring", help="ring spec, e.g. Z8 or Z2xZ3")
    analyze.add_argument("--ideal", help="ideal spec: zero, full, or gen(...)")
    analyze.add_argument("--format", choices=("human", "json"), default="human")
    analyze.add_argument("--out", help="write output to a file instead of stdout")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="run every check on one (ring, ideal)")
    verify.add_argument("ring")
    verify.add_argument("--ideal", required=True)
    verify.add_argument("--format", choices=("human", "json"), default="human")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    sweep_cmd = sub.add_parser("sweep", help="run every check over a ring family")
    sweep_cmd.add_argument(
        "--family", required=True, help="comma list of specs; ranges like Z2..Z16"
    )
    sweep_cmd.add_argument(
        "--ideals", choices=("all", "nonzero", "proper"), default="nonzero"
    )
    sweep_cmd.add_argument("--format", choices=("human", "json", "csv"), default="human")
    sweep_cmd.add_argument("--out")
    sweep_cmd.add_argument(
        "--workers", type=int, help=f"parallel workers (default: {WORKERS_ENV} or cores)"
    )
    sweep_cmd.add_argument(
        "--timestamps", action="store_true", help="include a generation timestamp"
    )
    sweep_cmd.set_defaults(func=cmd_sweep)

    dot = sub.add_parser("export-dot", help="write the graph in DOT format")
    dot.add_argument("ring")
    dot.add_argument("--ideal", help="ideal spec; required unless --base is given")
    dot.add_argument(
        "--base", action="store_true", help="export the base-ring graph instead"
    )
    dot.add_argument("--out")
    dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # An --out file that this run creates is removed unless the command
    # returns; one that existed is written only by the command's _emit.
    created = False
    try:
        created = args.out is not None and _claim_out(args.out)
        code = args.func(args)
        created = False
        return code
    except (SpecError, NotAnIdealError, DuplicationTooLargeError, _OutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool:
        print(
            "error: a sweep worker process died before finishing its rings "
            "(killed, or out of memory); try fewer --workers",
            file=sys.stderr,
        )
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    finally:
        if created:
            try:
                os.remove(args.out)
            except OSError:
                pass


if __name__ == "__main__":
    raise SystemExit(main())
