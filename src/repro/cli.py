"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``generate`` — write a synthetic dataset (Quest transactions, cluster
  points, or the 21-day proxy trace) as JSON lines, one block per line.
* ``monitor`` — stream a Quest workload through a MiningSession and
  print per-block model summaries (UW or MRW, optional BSS bits).
* ``patterns`` — run compact-sequence discovery over the proxy trace at
  a chosen granularity and print the discovered selection sequences.
* ``info`` — print the library's subsystem inventory.

``monitor`` and ``patterns`` accept ``--json``, replacing the text
report with a single ``{"schema": 1, "rows": [...]}`` document whose
rows follow the benchmark ``emit_json`` convention (a ``"bench"`` key
plus flat fields) and carry the session's telemetry report.

The CLI is a thin veneer over the public API; anything here is three
lines of library code.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import __version__


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="write a synthetic dataset as JSON lines"
    )
    parser.add_argument(
        "kind", choices=["quest", "clusters", "trace"], help="generator to run"
    )
    parser.add_argument("--blocks", type=int, default=4, help="number of blocks")
    parser.add_argument(
        "--block-size", type=int, default=1000, help="tuples per block"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--name",
        default="2M.20L.1I.4pats.4plen",
        help="paper-style dataset name (quest/clusters kinds)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.005, help="scale for --name parsing"
    )
    parser.add_argument(
        "--granularity", type=int, default=24, help="trace block hours"
    )
    parser.add_argument(
        "--output", default="-", help="output path ('-' for stdout)"
    )


def _add_monitor(subparsers) -> None:
    parser = subparsers.add_parser(
        "monitor", help="stream a Quest workload through a MiningSession"
    )
    parser.add_argument("--blocks", type=int, default=6)
    parser.add_argument("--block-size", type=int, default=800)
    parser.add_argument("--minsup", type=float, default=0.02)
    parser.add_argument(
        "--counter", choices=["ptscan", "ecut", "ecut+"], default="ecut"
    )
    parser.add_argument(
        "--window", type=int, default=0,
        help="most-recent-window size (0 = unrestricted window)",
    )
    parser.add_argument(
        "--bss", default="",
        help="BSS bits, e.g. '101' (window-relative under --window, "
        "window-independent prefix otherwise)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend", choices=["memory", "mmap", "tiered"], default=None,
        help="block storage backend the session ingests onto "
        "(tiered = mmap with compressed cold blocks; "
        "default: DEMON_BLOCK_BACKEND or plain in-memory blocks)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for GEMM's off-line model updates under "
        "a most-recent window (default: DEMON_WORKERS or 1 = serial); "
        "results are byte-identical to a serial run",
    )
    parser.add_argument(
        "--scheduler", choices=["eager", "deviation"], default=None,
        help="maintenance scheduling policy (deviation = defer model "
        "maintenance while a sampled drift estimate stays below "
        "threshold; flushed results are byte-identical to eager; "
        "default: DEMON_SCHEDULER or eager)",
    )
    parser.add_argument(
        "--scheduler-threshold", type=float, default=None,
        help="drift significance in (0, 1) that triggers catch-up "
        "under --scheduler deviation "
        "(default: DEMON_SCHEDULER_THRESHOLD or 0.95)",
    )
    parser.add_argument(
        "--scheduler-max-pending", type=int, default=None,
        help="staleness bound: catch-up always runs once this many "
        "blocks are deferred (default: DEMON_SCHEDULER_MAX_PENDING or 8)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document (benchmark row format) instead of text",
    )


def _add_patterns(subparsers) -> None:
    parser = subparsers.add_parser(
        "patterns", help="compact-sequence discovery on the proxy trace"
    )
    parser.add_argument("--granularity", type=int, default=24)
    parser.add_argument("--trace-scale", type=float, default=0.03)
    parser.add_argument("--minsup", type=float, default=0.02)
    parser.add_argument("--alpha", type=float, default=0.95)
    parser.add_argument("--min-length", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document (benchmark row format) instead of text",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DEMON (ICDE 2000) reproduction — mining and "
        "monitoring systematically evolving data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_monitor(subparsers)
    _add_patterns(subparsers)
    subparsers.add_parser("info", help="print the subsystem inventory")
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_generate(args, out) -> int:
    from repro.datagen import (
        ClusterDataGenerator,
        ClusterDataParams,
        ProxyTraceGenerator,
        QuestGenerator,
        QuestParams,
    )

    if args.kind == "quest":
        generator = QuestGenerator(
            QuestParams.from_name(args.name, scale=args.scale), seed=args.seed
        )
        blocks = [
            generator.block(i + 1, count=args.block_size)
            for i in range(args.blocks)
        ]
    elif args.kind == "clusters":
        name = args.name if args.name.endswith("d") else "1M.50c.5d"
        generator = ClusterDataGenerator(
            ClusterDataParams.from_name(name, scale=args.scale), seed=args.seed
        )
        blocks = [
            generator.block(i + 1, count=args.block_size)
            for i in range(args.blocks)
        ]
    else:
        blocks = ProxyTraceGenerator(
            scale=args.scale * 10, seed=args.seed
        ).blocks(args.granularity)

    sink = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        for block in blocks:
            record = {
                "block_id": block.block_id,
                "label": block.label,
                "tuples": [list(t) for t in block.iter_records()],
            }
            print(json.dumps(record), file=sink)
    finally:
        if sink is not sys.stdout:
            sink.close()
    print(f"wrote {len(blocks)} blocks", file=out)
    return 0


def _monitor_scheduler(args):
    """The scheduler `monitor` runs with — flags over ambient env."""
    from repro.scheduling import (
        DEFAULT_MAX_PENDING,
        DEFAULT_THRESHOLD,
        DeviationScheduler,
        ambient_scheduler_max_pending,
        ambient_scheduler_name,
        ambient_scheduler_threshold,
    )

    name = args.scheduler
    if name is None:
        name = ambient_scheduler_name() or "eager"
    if name != "deviation":
        return "eager"
    threshold = args.scheduler_threshold
    if threshold is None:
        threshold = ambient_scheduler_threshold()
    max_pending = args.scheduler_max_pending
    if max_pending is None:
        max_pending = ambient_scheduler_max_pending()
    try:
        return DeviationScheduler(
            threshold=threshold if threshold is not None else DEFAULT_THRESHOLD,
            max_pending=(
                max_pending if max_pending is not None else DEFAULT_MAX_PENDING
            ),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_monitor(args, out) -> int:
    from repro import MiningSession, MostRecentWindow
    from repro.core.bss import WindowIndependentBSS, WindowRelativeBSS
    from repro.datagen import QuestGenerator, QuestParams
    from repro.itemsets import BordersMaintainer

    span = MostRecentWindow(args.window) if args.window else None
    bss = None
    if args.bss:
        bits = [int(b) for b in args.bss]
        if args.window:
            if len(bits) != args.window:
                raise SystemExit("--bss length must equal --window")
            bss = WindowRelativeBSS(bits)
        else:
            bss = WindowIndependentBSS(bits, default=1)

    session = MiningSession(
        BordersMaintainer(args.minsup, counter=args.counter),
        span=span,
        bss=bss,
        backend=args.backend,
        workers=args.workers,
        scheduler=_monitor_scheduler(args),
    )
    params = QuestParams(
        n_transactions=args.block_size,
        avg_transaction_length=8,
        n_items=200,
        n_patterns=50,
        avg_pattern_length=3,
    )
    generator = QuestGenerator(params, seed=args.seed)
    rows = []
    # The last fully-maintained model summary.  A deferring scheduler
    # leaves the model intentionally stale between catch-ups; reading
    # it through current_model() would force a flush per block and
    # defeat the deferral, so deferred arrivals re-report this summary
    # (annotated with how many blocks it lags).
    last = None
    for block_id in range(1, args.blocks + 1):
        # Stream the arriving records through the session's ingest
        # spine; the session assigns block id t+1 and routes storage
        # onto its configured backend.
        report = session.ingest(generator.iter_transactions(args.block_size))
        if report.pending == 0 or last is None:
            model = session.current_model()
            last = (
                session.current_selection(),
                len(model.frequent),
                len(model.border),
                model.n_transactions,
            )
        selection, frequent, border, n_transactions = last
        if args.json:
            delta = report.telemetry
            io = delta.io_totals()
            rows.append(
                {
                    "bench": "cli_monitor",
                    "t": block_id,
                    # Per-worker attribution rides inside "telemetry"
                    # as parallel.w{id}.* phase/counter entries.
                    "workers": session.workers,
                    "scheduler": session.scheduler.kind,
                    "decision": report.decision,
                    "maintained": report.maintained,
                    "pending": report.pending,
                    "selection": selection,
                    "frequent": frequent,
                    "border": border,
                    "n_transactions": n_transactions,
                    "model_updated": report.model_updated,
                    "bytes_read": io.bytes_read,
                    "cache_hits": io.cache_hits,
                    "telemetry": delta.report(),
                }
            )
        else:
            lag = f" pending={report.pending}" if report.pending else ""
            print(
                f"block {block_id}: selection={selection} "
                f"|L|={frequent} |NB-|={border} "
                f"N={n_transactions}{lag}",
                file=out,
            )
    flushed = session.flush()
    if flushed:
        model = session.current_model()
        selection = session.current_selection()
        if args.json:
            # The final row reflects the flushed (caught-up) model, so
            # downstream consumers always see the end-of-stream state.
            rows[-1].update(
                maintained=rows[-1]["maintained"] + flushed,
                pending=0,
                selection=selection,
                frequent=len(model.frequent),
                border=len(model.border),
                n_transactions=model.n_transactions,
            )
        else:
            print(
                f"flush: caught up {flushed} deferred blocks; "
                f"selection={selection} |L|={len(model.frequent)} "
                f"|NB-|={len(model.border)} N={model.n_transactions}",
                file=out,
            )
    if args.json:
        print(json.dumps({"schema": 1, "rows": rows}), file=out)
    return 0


def cmd_patterns(args, out) -> int:
    from repro import MiningSession
    from repro.datagen import ProxyTraceGenerator
    from repro.deviation import BlockSimilarity, ItemsetDeviation
    from repro.patterns import CompactSequenceMiner, extract_cyclic, period_of

    blocks = ProxyTraceGenerator(scale=args.trace_scale, seed=args.seed).blocks(
        args.granularity
    )
    miner = CompactSequenceMiner(
        BlockSimilarity(
            ItemsetDeviation(minsup=args.minsup, max_size=2),
            alpha=args.alpha,
            method="chi2",
        )
    )
    session = MiningSession(pattern_miner=miner)
    for block in blocks:
        session.observe(block)
    sequences = session.discovered_patterns(min_length=args.min_length)
    if args.json:
        snapshot = session.telemetry.snapshot()
        rows = [
            {
                "bench": "cli_patterns",
                "t": session.t,
                "granularity": args.granularity,
                "sequences": len(sequences),
                "comparisons": snapshot.counter("patterns.comparisons"),
                "scans": snapshot.counter("patterns.scans"),
                "missing_regions": snapshot.counter("patterns.missing_regions"),
                "telemetry": snapshot.report(),
            }
        ]
        for sequence in sequences:
            cyclic = extract_cyclic(sequence)
            period = period_of(cyclic.block_ids) if cyclic else None
            rows.append(
                {
                    "bench": "cli_patterns_sequence",
                    "blocks": sequence.block_ids,
                    "length": len(sequence),
                    "cyclic": cyclic.block_ids if cyclic and period else None,
                    "period": period,
                }
            )
        print(json.dumps({"schema": 1, "rows": rows}), file=out)
        return 0
    print(f"{len(sequences)} compact sequences "
          f"(granularity {args.granularity}h):", file=out)
    for sequence in sequences:
        labels = [blocks[i - 1].label for i in sequence.block_ids[:3]]
        print(f"  blocks {sequence.block_ids}", file=out)
        print(f"    starts: {labels}", file=out)
        cyclic = extract_cyclic(sequence)
        if cyclic and period_of(cyclic.block_ids):
            print(
                f"    cyclic: {cyclic.block_ids} "
                f"(period {period_of(cyclic.block_ids)})",
                file=out,
            )
    return 0


def cmd_info(out) -> int:
    lines = [
        f"repro {__version__} — DEMON (ICDE 2000) reproduction",
        "",
        "subsystems:",
        "  repro.core        data span, BSS, GEMM, MiningSession",
        "  repro.itemsets    Apriori, BORDERS, PT-Scan/ECUT/ECUT+, FUP, rules",
        "  repro.clustering  BIRCH(+), CF-tree, K-Means, incremental DBSCAN",
        "  repro.deviation   FOCUS, significance, block similarity",
        "  repro.patterns    compact sequences, cyclic post-processing",
        "  repro.datagen     Quest, cluster data, proxy trace",
        "  repro.storage     metered block store, model vault",
        "",
        "experiments: pytest benchmarks/ --benchmark-only -s",
    ]
    print("\n".join(lines), file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.storage.engine import ambient_backend_name

    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.scheduling import ambient_scheduler_name

    try:
        # Fail a DEMON_BLOCK_BACKEND / DEMON_SCHEDULER* typo here, at
        # parse time, not deep inside the first ingest of a long run.
        ambient_backend_name()
        ambient_scheduler_name()
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "generate":
        return cmd_generate(args, out)
    if args.command == "monitor":
        return cmd_monitor(args, out)
    if args.command == "patterns":
        return cmd_patterns(args, out)
    return cmd_info(out)


if __name__ == "__main__":
    raise SystemExit(main())
