"""Command-line interface: regenerate the paper's figures as text.

Usage::

    python -m repro.cli fig9 --cardinality 50
    python -m repro.cli fig10 --max-cardinality 1024
    python -m repro.cli worst-case
    python -m repro.cli crossover
    python -m repro.cli tpcd
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _print_rows(headers, rows) -> None:
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )


def cmd_fig9(args: argparse.Namespace) -> int:
    from repro.analysis.figures import crossover_point, figure9_series

    m = args.cardinality
    series = figure9_series(m)
    step = max(1, m // args.points)
    shown = [row for row in series if (row.delta - 1) % step == 0]
    if shown[-1].delta != m:
        shown.append(series[-1])
    print(f"Figure 9 for |A| = {m} "
          f"(encoded wins for delta >= {crossover_point(m)}):")
    _print_rows(
        ["delta", "c_s", "c_e_best", "c_e_worst"],
        [(r.delta, r.c_s, r.c_e_best, r.c_e_worst) for r in shown],
    )
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    from repro.analysis.figures import figure10_series

    cardinalities = []
    m = 2
    while m <= args.max_cardinality:
        cardinalities.append(m)
        m *= 2
    series = figure10_series(cardinalities)
    print("Figure 10: bit vectors required")
    _print_rows(
        ["m", "simple", "encoded"],
        [(r.m, r.simple_vectors, r.encoded_vectors) for r in series],
    )
    return 0


def cmd_worst_case(args: argparse.Namespace) -> int:
    from repro.analysis.savings import worst_case_summary

    print("Section 3.2 worst-case analysis:")
    rows = []
    for m in args.cardinality or (50, 1000):
        summary = worst_case_summary(m)
        rows.append(
            (
                summary.m,
                summary.k,
                f"{summary.area_ratio:.3f}",
                f"{summary.average_saving:.1%}",
                summary.best_delta,
                f"{summary.best_saving:.1%}",
            )
        )
    _print_rows(
        ["|A|", "k", "area ratio", "avg saving", "peak delta",
         "peak saving"],
        rows,
    )
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    from repro.analysis.cost_models import (
        btree_bytes,
        btree_space_crossover,
        simple_bitmap_bytes,
    )

    crossover = btree_space_crossover(
        degree=args.degree, page_size=args.page_size
    )
    print(
        f"simple bitmaps beat B-trees on space when m < "
        f"{crossover:.1f}  (p = {args.page_size}, M = {args.degree})"
    )
    n = 1_000_000
    rows = []
    for m in (8, 32, 64, int(crossover), 128, 512):
        rows.append(
            (
                m,
                f"{simple_bitmap_bytes(n, max(2, m)):.0f}",
                f"{btree_bytes(n, args.degree, args.page_size):.0f}",
            )
        )
    _print_rows(["m", "bitmap bytes (n=1e6)", "btree bytes"], rows)
    return 0


def cmd_tpcd(args: argparse.Namespace) -> int:
    from repro.workload.tpcd import TPCD_QUERY_CLASSES, range_query_share

    ranges, total = range_query_share()
    print(f"TPC-D query classes with range search: {ranges}/{total}")
    _print_rows(
        ["class", "range?", "column"],
        [
            (qc.name, "yes" if qc.involves_range else "no", qc.column)
            for qc in TPCD_QUERY_CLASSES
        ],
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import run_all_checks

    results = run_all_checks()
    rows = []
    for result in results:
        rows.append(
            (
                "PASS" if result.passed else "FAIL",
                result.claim,
                result.paper_value,
                result.our_value,
                result.source,
            )
        )
    _print_rows(
        ["status", "claim", "paper", "ours", "where"], rows
    )
    failed = sum(1 for result in results if not result.passed)
    print(
        f"\n{len(results) - failed}/{len(results)} paper claims "
        "reproduced"
    )
    return 1 if failed else 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.index import serialization
    from repro.index.verify import fsck_header, verify_payload

    failed = 0
    for path in args.paths:
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except OSError as exc:
            print(f"FAIL  {path}  cannot read: {exc}")
            failed += 1
            continue
        report = verify_payload(payload, path=path)
        print(report.render())
        if not report.ok:
            failed += 1
        elif args.verbose:
            parsed = serialization.parse(payload)
            for line in fsck_header(parsed.header):
                print("      " + line)
    total = len(args.paths)
    print(f"\n{total - failed}/{total} index file(s) passed fsck")
    return 1 if failed else 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.database import Database
    from repro.obs.demo import SCENARIOS, model_comparison
    from repro.query.options import QueryOptions
    from repro.query.planner import Planner

    scenario = SCENARIOS[args.scenario]()
    db = Database.from_catalog(scenario.catalog)
    print(f"scenario: {scenario.name} — {scenario.description}")
    print()
    print(db.explain(scenario.table.name, scenario.predicate))
    if args.no_run:
        return 0
    print()
    result = db.query(
        scenario.table.name, scenario.predicate, QueryOptions(trace=True)
    )
    # The cost-model comparison wants the Plan object itself — an
    # internals concern the facade deliberately doesn't expose.  The
    # scenario's catalog holds the indexes the one partition runs.
    plan = Planner(scenario.catalog).plan(scenario.table, scenario.predicate)
    assert result.trace is not None
    print(result.trace.render())
    print()
    rows = model_comparison(plan, result.trace)
    if rows:
        print("measured vs paper cost model (vectors read by the "
              "reduced expression):")
        _print_rows(
            ["column", "m", "delta", "k", "c_e_best", "c_e_worst",
             "measured", "status"],
            [
                (r["column"], r["m"], r["delta"], r["k"], r["c_e_best"],
                 r["c_e_worst"], r["measured"], r["status"])
                for r in rows
            ],
        )
        if any(r["status"] != "OK" for r in rows):
            return 1
    print(f"\nrows selected: {result.count()}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_suite

    workers = None
    if args.workers:
        try:
            workers = [int(part) for part in args.workers.split(",")]
        except ValueError:
            print(f"invalid --workers value: {args.workers!r}")
            return 2
        if any(count < 1 for count in workers):
            print("--workers counts must be >= 1")
            return 2
    from repro.errors import InvalidArgumentError

    only = None
    if args.case:
        only = [
            token.strip()
            for token in args.case.split(",")
            if token.strip()
        ]
    try:
        report = run_suite(
            quick=args.quick,
            tolerance=args.tolerance,
            out_dir=args.out,
            suite=args.suite,
            workers=workers,
            only=only,
            rows=args.rows,
        )
    except InvalidArgumentError as exc:
        print(str(exc))
        return 2
    print(report.render())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.database import Database
    from repro.errors import (
        QuotaExceededError,
        RequestTimeoutError,
        ServerOverloadedError,
    )
    from repro.query.options import QueryOptions
    from repro.serving.server import Server
    from repro.serving.workload import ReadOp, SyntheticWorkload

    if args.directory is not None:
        db = Database.recover(args.directory)
        names = db.tables()
        if args.table is not None:
            if args.table not in names:
                print(
                    f"no table {args.table!r} in {args.directory} "
                    f"(found: {', '.join(names) or 'none'})"
                )
                return 2
            table_name = args.table
        elif len(names) == 1:
            table_name = names[0]
        else:
            print(
                "directory holds several tables; pick one with "
                f"--table (found: {', '.join(names)})"
            )
            return 2
        table = db.table(table_name)
        column = args.column
        if column is None:
            for name in table.column_names:
                if db.catalog.indexes_on(table_name, name):
                    column = name
                    break
        if column is None:
            print(f"no indexed column on {table_name}; use --column")
            return 2
        values = sorted(
            (
                value
                for value in table.column(column).distinct_values()
                if value is not None
            ),
            key=repr,
        )
        if not values:
            print(f"{table_name}.{column} holds no values to query")
            return 2
        # A recovered directory is served read-only: the driver never
        # appends to (or re-logs the WAL of) a database it was handed.
        workload = SyntheticWorkload(
            seed=args.seed,
            tenants=args.tenants,
            values=values,
            read_fraction=1.0,
            table=table_name,
            column=column,
        )
    else:
        db = Database()
        workload = SyntheticWorkload(
            seed=args.seed,
            tenants=args.tenants,
            rows=args.rows,
            read_fraction=args.read_fraction,
            partitions=args.partitions,
        )
        workload.build(db)

    server = Server(
        database=db,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        default_timeout=args.timeout,
        use_cache=not args.no_cache,
    )
    pending = []
    rejected = 0
    started = time.perf_counter()
    try:
        for op in workload.operations(args.requests):
            if isinstance(op, ReadOp):
                try:
                    pending.append(
                        server.submit(
                            workload.TABLE,
                            op.predicate,
                            options=QueryOptions(tenant=op.tenant),
                        )
                    )
                except (
                    QuotaExceededError,
                    RequestTimeoutError,
                    ServerOverloadedError,
                ):
                    rejected += 1
            else:
                db.append(workload.TABLE, op.row)
        for request in pending:
            try:
                request.result(timeout=args.timeout)
            except Exception:  # noqa: BLE001 - counted in stats below
                pass
        elapsed = time.perf_counter() - started
        stats = server.stats()
    finally:
        server.close()
        db.close()

    reads = len(pending) + rejected
    writes = args.requests - reads
    qps = stats.completed / elapsed if elapsed > 0 else 0.0
    cache = db.result_cache
    print(
        f"served {workload.TABLE!r} on {workload.COLUMN!r} "
        f"(policy={args.policy}, workers={args.workers}, "
        f"cache={'off' if args.no_cache else 'on'}):"
    )
    print(
        f"  reads {reads} (admission-rejected {rejected}), "
        f"writes {writes}"
    )
    print(
        f"  completed {stats.completed}, failed {stats.failed} "
        f"(shed {stats.shed}, timed out {stats.timed_out})"
    )
    print(f"  wall {elapsed:.2f} s — {qps:.1f} q/s")
    print(
        "  latency "
        + ", ".join(
            f"{name} {value * 1000:.2f} ms"
            for name, value in stats.latency_percentiles.items()
        )
    )
    print(
        f"  result cache: {cache.hits} hits, {cache.misses} misses, "
        f"{cache.fills()} fills"
    )
    if stats.tenants:
        print()
        _print_rows(
            ["tenant", "completed", "failed", "p50 ms", "p99 ms"],
            [
                (
                    row.tenant,
                    row.completed,
                    row.failed,
                    f"{row.latency_percentiles.get('p50', 0.0) * 1000:.2f}",
                    f"{row.latency_percentiles.get('p99', 0.0) * 1000:.2f}",
                )
                for row in stats.tenants.values()
            ],
        )
    return 1 if stats.failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    forwarded: List[str] = list(args.paths)
    if args.no_baseline:
        forwarded.append("--no-baseline")
    return lint_main(forwarded or None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate figures from 'Encoded Bitmap Indexing for "
            "Data Warehouses' (Wu & Buchmann, ICDE 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig9 = sub.add_parser("fig9", help="Figure 9 cost curves")
    p_fig9.add_argument("--cardinality", type=int, default=50)
    p_fig9.add_argument("--points", type=int, default=20)
    p_fig9.set_defaults(func=cmd_fig9)

    p_fig10 = sub.add_parser("fig10", help="Figure 10 space curves")
    p_fig10.add_argument("--max-cardinality", type=int, default=1024)
    p_fig10.set_defaults(func=cmd_fig10)

    p_wc = sub.add_parser("worst-case", help="Section 3.2 numbers")
    p_wc.add_argument(
        "--cardinality", type=int, nargs="*", default=None
    )
    p_wc.set_defaults(func=cmd_worst_case)

    p_cross = sub.add_parser(
        "crossover", help="Section 2.1 bitmap/B-tree space break-even"
    )
    p_cross.add_argument("--degree", type=int, default=512)
    p_cross.add_argument("--page-size", type=int, default=4096)
    p_cross.set_defaults(func=cmd_crossover)

    p_tpcd = sub.add_parser("tpcd", help="TPC-D range-share table")
    p_tpcd.set_defaults(func=cmd_tpcd)

    p_validate = sub.add_parser(
        "validate",
        help="check every number printed in the paper against this "
        "implementation",
    )
    p_validate.set_defaults(func=cmd_validate)

    p_fsck = sub.add_parser(
        "fsck",
        help="verify saved encoded-bitmap index files: checksums, "
        "structure, and paper invariants",
    )
    p_fsck.add_argument("paths", nargs="+")
    p_fsck.add_argument("--verbose", action="store_true")
    p_fsck.set_defaults(func=cmd_fsck)

    p_explain = sub.add_parser(
        "explain",
        help="EXPLAIN + traced execution of a canned query, compared "
        "against the paper's cost model",
    )
    p_explain.add_argument(
        "scenario",
        nargs="?",
        default="table1",
        choices=("table1", "demo3"),
        help="table1: the paper's Figure 1 worked example; "
        "demo3: a 3-predicate IN-list query",
    )
    p_explain.add_argument(
        "--no-run",
        action="store_true",
        help="print EXPLAIN only (reads no bitmap vectors)",
    )
    p_explain.set_defaults(func=cmd_explain)

    p_bench = sub.add_parser(
        "bench",
        help="run the repro benchmark harness and write BENCH_*.json "
        "at the repo root (see docs/benchmarks.md)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="run the small smoke suite (writes BENCH_smoke.json)",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative divergence tolerated between measured and "
        "model-predicted costs (default 0.25)",
    )
    p_bench.add_argument(
        "--out",
        default=None,
        help="directory for BENCH_*.json (default: repo root)",
    )
    p_bench.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker-thread counts for the "
        "partition-parallel case (default: 1,4)",
    )
    p_bench.add_argument(
        "--case",
        default=None,
        help="run only the cases whose name contains one of these "
        "comma-separated substrings (e.g. --case kernel_eval)",
    )
    p_bench.add_argument(
        "--suite",
        default=None,
        help="override the suite name used in BENCH_<suite>.json "
        "(default: smoke for --quick, full otherwise)",
    )
    p_bench.add_argument(
        "--rows",
        type=int,
        default=None,
        help="override the row count of every row-parameterised case "
        "(e.g. --rows 1000000; pair with --suite for sweeps)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="stand up the serving tier (bounded queue, quotas, "
        "result cache) over a database and drive a seeded zipf "
        "multi-tenant workload through it (see docs/serving.md)",
    )
    p_serve.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="a directory written by Database.save, served read-only; "
        "omit to build an in-memory synthetic table",
    )
    p_serve.add_argument(
        "--table",
        default=None,
        help="table to serve from a recovered directory (default: "
        "the only table)",
    )
    p_serve.add_argument(
        "--column",
        default=None,
        help="indexed column the synthetic predicates select on "
        "(default: the first indexed column)",
    )
    p_serve.add_argument(
        "--requests",
        type=int,
        default=400,
        help="operations to drive through the server (default 400)",
    )
    p_serve.add_argument(
        "--rows",
        type=int,
        default=4096,
        help="synthetic table size when no directory is given",
    )
    p_serve.add_argument("--tenants", type=int, default=4)
    p_serve.add_argument(
        "--partitions",
        type=int,
        default=4,
        help="partition count of the synthetic table (default 4)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--read-fraction",
        type=float,
        default=0.9,
        help="share of operations that are reads; the rest append "
        "(synthetic mode only — recovered directories are read-only)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="server worker threads (default 2)",
    )
    p_serve.add_argument("--queue-capacity", type=int, default=64)
    p_serve.add_argument(
        "--policy",
        choices=("reject", "block", "shed"),
        default="block",
        help="admission policy when the queue is full (default block)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="end-to-end request deadline in seconds (default 30)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve strictly uncached answers",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run ebilint, the paper-invariant static-analysis pass "
        "(full options: python -m repro.lint --help)",
    )
    p_lint.add_argument("paths", nargs="*", default=[])
    p_lint.add_argument("--no-baseline", action="store_true")
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
