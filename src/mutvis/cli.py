"""Command-line front end.

Exit codes: 0 all checks pass, 1 computation or verification failure,
2 usage or parse error.  Reports are deterministic for a fixed command
line; --stable additionally drops the timestamp from JSON output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone

from .errors import CapExceeded, GraphError, SpecError
from .graph import (
    DEFAULT_ALPHA_CAP,
    Graph,
    girth,
    is_connected,
    leaf_set,
    min_degree,
)
from .products import ProductGraph
from .solvers import DEFAULT_BP_CAP, DEFAULT_N_CAP, INVARIANTS
from .specs import build, graph_of, parse_graph_file, write_graph_file
from .verify import SuiteOptions, VerificationRecord, run_all, run_suite, suite_ids
from .visibility import bypass_set

# Each randomized instance costs time and memory, so --count is bounded
# to keep a verify run from ending in an out-of-memory kill.
MAX_COUNT = 10_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutvis",
        description="Exact mutual-visibility invariants, Cartesian products, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True, metavar="SPEC",
                       help="generator expression, or @path to a graph file")

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--cap-bp", type=int, default=DEFAULT_BP_CAP, metavar="N",
                       help="largest admissible bypass candidate count for the total invariants")
        p.add_argument("--cap-n", type=int, default=None, metavar="N",
                       help="largest admissible order for the mu and alpha searches"
                            f" (default {DEFAULT_N_CAP} for mu, {DEFAULT_ALPHA_CAP} for alpha)")
        p.add_argument("--stable", action="store_true",
                       help="omit the timestamp so identical runs are byte-identical")

    p_compute = sub.add_parser("compute", help="compute one invariant of one graph")
    add_graph(p_compute)
    p_compute.add_argument("--invariant", required=True, choices=tuple(INVARIANTS))
    p_compute.add_argument("--witness", action="store_true",
                           help="include the witness vertex set in the report")
    add_common(p_compute)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--theorem", default="all", metavar="ID",
                          help="suite id, or 'all' (default); 'list' prints the registry")
    p_verify.add_argument("--seed", type=int, default=0, metavar="N")
    p_verify.add_argument("--count", type=int, default=20, metavar="N",
                          help=f"randomized instances per suite, at most {MAX_COUNT}")
    p_verify.add_argument("--max-n", type=int, default=12, metavar="N",
                          help="largest order in the named corpus (at most 10 in"
                               " fam:oracle) and cor:theta's length budget; the random"
                               " and tree corpora and the product suites ignore it")
    add_common(p_verify)

    p_export = sub.add_parser("export", help="write a graph to the plain edge-list format")
    add_graph(p_export)
    p_export.add_argument("--out", required=True, metavar="PATH")

    p_info = sub.add_parser("info", help="structural summary of a graph")
    add_graph(p_info)
    p_info.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _load(spec: str) -> Graph | ProductGraph:
    if spec.startswith("@"):
        return parse_graph_file(spec[1:])
    return build(spec)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _print_json(payload: dict, stable: bool) -> None:
    # Streamed, so the indented text is never held as one list of chunks;
    # that list would set a verify run's peak memory.
    if not stable:
        payload = dict(payload)
        payload["timestamp"] = _timestamp()
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _options(args, **corpus) -> SuiteOptions:
    return SuiteOptions(bp_cap=args.cap_bp, n_cap=args.cap_n, **corpus)


def _cmd_compute(args) -> int:
    obj = _load(args.graph)
    g = graph_of(obj)
    kind = args.invariant
    try:
        report = INVARIANTS[kind](g, _options(args)).to_dict()
    except (CapExceeded, GraphError) as exc:
        print(f"mutvis: {exc}", file=sys.stderr)
        return 1

    report["graph"] = report.pop("graph_name")
    report["order"] = g.order
    if not args.witness:
        report.pop("witness", None)
    elif isinstance(obj, ProductGraph):
        report["witness_coords"] = [list(obj.decode(v)) for v in report["witness"]]

    if args.format == "json":
        _print_json(report, args.stable)
    elif args.format == "csv":
        witness = " ".join(map(str, report.get("witness", ())))
        value = report["value"]
        print(_csv_text(
            ["graph", "invariant", "value", "method", "witness"],
            [[g.name, kind, "" if value is None else value, report["method"], witness]],
        ), end="")
    else:
        value = report["value"]
        shown = "none" if value is None else value
        print(f"{kind}({g.name}) = {shown}")
        if "witness" in report:
            print("witness:", " ".join(map(str, report["witness"])))
        if "witness_coords" in report:
            coords = " ".join("(" + ",".join(map(str, c)) + ")" for c in report["witness_coords"])
            print("witness coords:", coords)
    return 0


def _cmd_verify(args) -> int:
    if args.theorem == "list":
        for tid in suite_ids():
            print(tid)
        return 0
    opts = _options(args, seed=args.seed, count=args.count, max_n=args.max_n)
    try:
        if args.theorem == "all":
            records = run_all(opts)
        else:
            records = run_suite(args.theorem, opts)
    except KeyError as exc:
        print(f"mutvis: {exc.args[0]}", file=sys.stderr)
        return 2

    counts = {"pass": 0, "fail": 0, "skipped-cap": 0}
    for record in records:
        counts[record.status] += 1

    if args.format == "json":
        payload = {
            "theorem": args.theorem,
            "records": [r.to_dict() for r in records],
            "summary": counts,
        }
        _print_json(payload, args.stable)
    elif args.format == "csv":
        header = [f.name for f in fields(VerificationRecord)]
        rows = [list(r.to_dict().values()) for r in records]
        print(_csv_text(header, rows), end="")
    else:
        for r in records:
            print(f"[{r.status}] {r.theorem_id} | {r.instance} | {r.observed}")
        print(f"{counts['pass']} pass, {counts['fail']} fail, {counts['skipped-cap']} skipped-cap")
    return 1 if counts["fail"] else 0


def _cmd_export(args) -> int:
    write_graph_file(graph_of(_load(args.graph)), args.out)
    return 0


def _cmd_info(args) -> int:
    obj = _load(args.graph)
    g = graph_of(obj)
    connected = is_connected(g)
    info = {
        "name": g.name,
        "order": g.order,
        "edges": g.num_edges,
        "connected": connected,
        "min_degree": min_degree(g),
        "girth": girth(g),
        "leaves": len(leaf_set(g)),
    }
    if connected:
        info["bp"] = len(bypass_set(g))
    if args.format == "json":
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        for key, value in info.items():
            print(f"{key}: {'none' if value is None else value}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, value in vars(args).items():
        if value == []:  # argparse reads "--graph=--" as an empty list
            print(f"mutvis: --{flag.replace('_', '-')} needs a value", file=sys.stderr)
            return 2
    for flag in ("cap_bp", "cap_n", "count", "max_n"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"mutvis: --{flag.replace('_', '-')} must not be negative, got {value}",
                  file=sys.stderr)
            return 2
    if getattr(args, "count", 0) > MAX_COUNT:
        print(f"mutvis: --count must be at most {MAX_COUNT}, got {args.count}", file=sys.stderr)
        return 2
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "export":
            return _cmd_export(args)
        return _cmd_info(args)
    except (SpecError, GraphError, OSError) as exc:
        print(f"mutvis: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"mutvis: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
