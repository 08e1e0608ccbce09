#!/usr/bin/env python
"""Rebuild ``bench_tables.txt`` from the checked-in ``BENCH_*.json`` files.

``benchmarks/conftest.py`` truncates the tables file at the start of
every pytest session, so running one benchmark module in isolation used
to leave only that module's tables — the BENCH_parallel rows in
particular were hand-appended afterwards.  This script regenerates the
whole artifact from the machine-readable rows instead, so the human
tables and the JSON baselines can never drift apart:

    python tools/regen_bench_tables.py

Each renderer below mirrors the ``print_table`` call of the benchmark
that emitted the rows (titles, headers, and number formatting match),
reading only fields present in the JSON.  Benchmarks whose tables need
measurements that are not emitted as JSON rows (the figure benches'
shape tables) are out of scope: re-run those modules to refresh their
tables, then re-run this script to restore the JSON-backed ones.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.environ.get(
    "DEMON_BENCH_DIR", os.path.join(REPO_ROOT, "benchmarks")
)
TABLES_PATH = os.environ.get(
    "DEMON_BENCH_TABLES", os.path.join(REPO_ROOT, "bench_tables.txt")
)

HEADER = (
    "# Paper-style result tables from the latest benchmark run\n"
    "# (regenerate with: pytest benchmarks/ --benchmark-only --json ...\n"
    "#  then: python tools/regen_bench_tables.py)\n"
)


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def render_table(title: str, headers: list, rows: list) -> str:
    """The exact layout of ``benchmarks.common.print_table``."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    rendered = [f"\n{title}", "=" * len(line), line, "-" * len(line)]
    rendered.extend(
        "  ".join(str(v).ljust(w) for v, w in zip(row, widths)) for row in rows
    )
    return "\n".join(rendered) + "\n"


def load_rows(filename: str) -> list[dict]:
    path = os.path.join(BENCH_DIR, filename)
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get("rows", [])


def by_bench(rows: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        grouped[row.get("bench", "")].append(row)
    return grouped


# ----------------------------------------------------------------------
# Renderers, one per JSON-backed table
# ----------------------------------------------------------------------


def ingest_tables(grouped: dict[str, list[dict]]) -> list[str]:
    tables = []
    spine = grouped.get("ingest", [])
    if spine:
        dataset = spine[0]["dataset"]
        tables.append(
            render_table(
                f"Ingest spine, {dataset} ({spine[0]['records']} transactions)",
                ["backend", "records", "ingest (ms)", "scan (ms)"],
                [
                    [
                        row["backend"],
                        row["records"],
                        fmt_ms(row["ingest_seconds"]),
                        fmt_ms(row["scan_seconds"]),
                    ]
                    for row in spine
                ],
            )
        )
    chunks = grouped.get("ingest_chunks", [])
    if chunks:
        tables.append(
            render_table(
                f"Scan cost vs DEMON_BLOCK_CHUNK, {chunks[0]['dataset']} "
                f"({chunks[0]['records']} transactions, mmap)",
                ["chunk size", "scan (ms)"],
                [
                    [row["chunk_size"], fmt_ms(row["scan_seconds"])]
                    for row in chunks
                ],
            )
        )
    for row in grouped.get("ingest_rss", []):
        tables.append(
            render_table(
                f"Peak RSS, one dense block of {row['rows']}x{row['width']} floats",
                ["backend", "peak RSS (MB)"],
                [
                    ["in-memory", f"{row['memory_rss_kb'] / 1024:.1f}"],
                    ["mmap", f"{row['mmap_rss_kb'] / 1024:.1f}"],
                ],
            )
        )
    return tables


def counting_tables(grouped: dict[str, list[dict]]) -> list[str]:
    rows = grouped.get("fig2_counting", [])
    if not rows:
        return []
    # Pivot (dataset, |S|) x counter back into the Figure 2 layout.
    cells: dict[tuple, dict[str, dict]] = defaultdict(dict)
    for row in rows:
        cells[(row["dataset"], row["n_itemsets"])][row["counter"]] = row
    counters = ("PT-Scan", "ECUT", "ECUT+")
    table_rows = []
    for (dataset, size), per_counter in sorted(cells.items()):
        if set(counters) - set(per_counter):
            continue
        table_rows.append(
            [dataset, size]
            + [fmt_ms(per_counter[name]["seconds"]) for name in counters]
            + [
                f"{per_counter[name]['bytes_fetched'] / 1024:.1f}"
                for name in counters
            ]
        )
    return [
        render_table(
            "Figure 2: counting time (ms) and data fetched (KiB) vs |S|",
            ["dataset", "|S|",
             "PT-Scan ms", "ECUT ms", "ECUT+ ms",
             "PT-Scan KiB", "ECUT KiB", "ECUT+ KiB"],
            table_rows,
        )
    ]


def parallel_tables(grouped: dict[str, list[dict]]) -> list[str]:
    tables = []
    maintenance = grouped.get("maintenance_worker_scaling", [])
    if maintenance:
        first = maintenance[0]
        tables.append(
            render_table(
                f"Figures 4-7 addendum: end-to-end monitoring, "
                f"MRW({first['window']}), {first['n_blocks']} blocks x "
                f"{first['block_size']} tx ({first['cpu_count']} cores)",
                ["workers", "ms", "speedup"],
                [
                    [
                        row["workers"],
                        fmt_ms(row["seconds"]),
                        f"{row['speedup']:.2f}x",
                    ]
                    for row in maintenance
                ],
            )
        )
    return tables


def compression_tables(grouped: dict[str, list[dict]]) -> list[str]:
    tables = []
    for row in grouped.get("compression_disk", []):
        dense, cold = row["mmap_disk_bytes"], row["tiered_disk_bytes"]
        tables.append(
            render_table(
                f"Bytes on disk, {row['dataset']} ({row['records']} "
                f"transactions, {row['n_blocks']} blocks, all demoted)",
                ["backend", "disk (KB)", "ratio"],
                [
                    ["mmap (dense)", f"{dense / 1024:.1f}", "1.00x"],
                    ["tiered (cold)", f"{cold / 1024:.1f}",
                     f"{dense / cold:.2f}x"],
                ],
            )
        )
    for row in grouped.get("compression_rss", []):
        tables.append(
            render_table(
                f"Peak RSS, {row['n_blocks']} dense blocks of "
                f"{row['rows']}x{row['width']} floats",
                ["backend", "peak RSS (MB)", "disk (MB)"],
                [
                    ["mmap (dense)", f"{row['mmap_rss_kb'] / 1024:.1f}",
                     f"{row['mmap_disk_bytes'] / 2**20:.1f}"],
                    ["tiered (cold)", f"{row['tiered_rss_kb'] / 1024:.1f}",
                     f"{row['tiered_disk_bytes'] / 2**20:.1f}"],
                ],
            )
        )
    for row in grouped.get("compression_throughput", []):
        hot, cold = row["hot_scan_seconds"], row["cold_scan_seconds"]
        tables.append(
            render_table(
                f"Full scan, {row['dataset']} ({row['records']} transactions)",
                ["tier", "scan (ms)", "vs hot"],
                [
                    ["hot (dense)", fmt_ms(hot), "1.00x"],
                    ["cold (packed)", fmt_ms(cold), f"{cold / hot:.2f}x"],
                ],
            )
        )
    return tables


def scheduler_tables(grouped: dict[str, list[dict]]) -> list[str]:
    tables = []
    for row in grouped.get("scheduler", []):
        drift_at = row["max_pending"] + 1  # stationary prefix length + 1
        tables.append(
            render_table(
                f"Deferred maintenance on a drifting stream "
                f"({row['blocks']} blocks x {row['per_block']}, "
                f"drift at {drift_at})",
                ["scheduler", "maintain (ms)", "A_M calls", "deferred",
                 "estimate (ms)"],
                [
                    ["eager", fmt_ms(row["eager_maintain_seconds"]),
                     row["eager_invocations"], 0, "-"],
                    ["deviation", fmt_ms(row["deviation_maintain_seconds"]),
                     row["deviation_invocations"], row["deferred"],
                     fmt_ms(row["estimate_seconds"])],
                ],
            )
        )
    return tables


SOURCES = [
    ("BENCH_ingest.json", ingest_tables),
    ("BENCH_counting.json", counting_tables),
    ("BENCH_parallel.json", parallel_tables),
    ("BENCH_compression.json", compression_tables),
    ("BENCH_scheduler.json", scheduler_tables),
]


def main() -> int:
    tables: list[str] = []
    for filename, renderer in SOURCES:
        rows = load_rows(filename)
        if not rows:
            print(f"  (no rows: {filename})", file=sys.stderr)
            continue
        rendered = renderer(by_bench(rows))
        print(f"  {filename}: {len(rendered)} tables")
        tables.extend(rendered)
    with open(TABLES_PATH, "w", encoding="utf-8") as sink:
        sink.write(HEADER)
        sink.writelines(tables)
    print(f"{len(tables)} tables written to {TABLES_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
