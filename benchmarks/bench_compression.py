"""Tiered-storage benchmark — compressed cold blocks vs dense mmap.

The tiered backend's bargain is that expired-from-window blocks keep
their exact records and their exact logical byte charges while holding
a fraction of the dense footprint.  This benchmark measures both sides
of that bargain against the plain mmap backend on the bench_ingest
workloads:

* **bytes on disk** — a transaction stream ingested into both backends,
  every block demoted on the tiered side (the MRW-expiry path); the
  cold form must hold at least 2x fewer bytes;
* **peak RSS guard** — a subprocess per backend ingests and scans a
  multi-block dense-point stream (the clustering workload's shape); the
  tiered backend must peak at least 2x below mmap, because scanning
  cold blocks decodes chunk-at-a-time instead of paging in every dense
  column;
* **scan throughput** — one full chunked pass over cold blocks (what a
  snapshot still holding an expired block pays to read it) must yield
  the hot records exactly and stay within 20% of the same pass over
  the hot (dense) layout.  Nothing counts over cold blocks: the session
  releases an expired block's TID-lists.

All gates compare two runs on this machine, so they hold on any
hardware; the emitted JSON records cpu count and scale so baselines
are never compared across environments.

Run:  pytest benchmarks/bench_compression.py --benchmark-only -s
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from benchmarks.common import SCALE, emit_json, fmt_ms, print_table, scaled
from repro.datagen.quest import QuestGenerator, QuestParams
from repro.storage.engine import MmapBackend, TieredBackend

DATASET = "2M.20L.1I.4pats.4plen"
N_TRANSACTIONS = scaled(2_000_000)
N_BLOCKS = 8

#: The RSS guard's stream is fixed-size (not SCALE-scaled): the gap
#: between dense resident pages and chunk-at-a-time decoding only shows
#: once the dataset dwarfs interpreter noise.
RSS_ROWS = 80_000
RSS_WIDTH = 8
RSS_BLOCKS = 16

#: The throughput gate is fixed-size too: per-chunk decode has a fixed
#: numpy overhead that dominates at toy scales, so the scan ratio is
#: only meaningful once chunks are full.
THROUGHPUT_ROWS = 100_000


def transaction_blocks():
    params = QuestParams.from_name(DATASET)
    generator = QuestGenerator(params, seed=11)
    per_block = max(N_TRANSACTIONS // N_BLOCKS, 10)
    return [
        list(generator.iter_transactions(per_block)) for _ in range(N_BLOCKS)
    ]


def disk_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def scan(blocks) -> int:
    seen = 0
    for block in blocks:
        for chunk in block.iter_chunks():
            seen += len(chunk)
    return seen


# ----------------------------------------------------------------------
# Bytes on disk
# ----------------------------------------------------------------------


def test_cold_blocks_halve_disk_bytes(benchmark, tmp_path):
    """Demoted transaction blocks must hold >= 2x fewer bytes than mmap."""
    streams = transaction_blocks()

    def ingest_both():
        mmap_backend = MmapBackend(root=str(tmp_path / "mmap"))
        tiered = TieredBackend(root=str(tmp_path / "tiered"))
        blocks = []
        for block_id, records in enumerate(streams, start=1):
            mmap_backend.ingest(block_id, iter(records))
            blocks.append(tiered.ingest(block_id, iter(records)))
            tiered.demote_block(block_id)
        dense = disk_bytes(mmap_backend.root)
        cold = disk_bytes(tiered.root)
        return blocks, dense, cold

    _blocks, dense, cold = benchmark.pedantic(ingest_both, rounds=1, iterations=1)
    emit_json(
        "compression_disk",
        dataset=DATASET,
        n_blocks=N_BLOCKS,
        records=sum(len(s) for s in streams),
        mmap_disk_bytes=dense,
        tiered_disk_bytes=cold,
        ratio=dense / cold,
    )
    print_table(
        f"Bytes on disk, {DATASET} ({N_TRANSACTIONS} transactions, "
        f"{N_BLOCKS} blocks, all demoted)",
        ["backend", "disk (KB)", "ratio"],
        [
            ["mmap (dense)", f"{dense / 1024:.1f}", "1.00x"],
            ["tiered (cold)", f"{cold / 1024:.1f}", f"{dense / cold:.2f}x"],
        ],
    )
    assert cold * 2 <= dense, (
        f"cold tier holds {cold} bytes vs {dense} dense — less than 2x smaller"
    )


# ----------------------------------------------------------------------
# Peak-RSS guard
# ----------------------------------------------------------------------

_RSS_CHILD = """
import resource, sys, tempfile
from repro.storage.engine import MmapBackend, TieredBackend

def peak_rss_kb():
    # VmHWM is this process's own high-water mark; on Linux ru_maxrss
    # also carries over the spawning process's, which a large parent
    # (a pytest run) would report for every child.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

kind, rows, width, n_blocks = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)

CENTERS = [float(c) for c in (3.0, -11.0, 42.0, 0.25, 17.5)]

def points(block_id):
    for i in range(rows):
        base = CENTERS[(block_id + i) % len(CENTERS)]
        yield tuple(base + ((i + j) % 40) * 0.01 for j in range(width))

root = tempfile.mkdtemp()
if kind == "mmap":
    backend = MmapBackend(root=root, chunk_size=4096)
else:
    backend = TieredBackend(root=root, chunk_size=4096)
blocks = []
for block_id in range(1, n_blocks + 1):
    blocks.append(backend.ingest(block_id, points(block_id)))
    if kind == "tiered":
        backend.demote_block(block_id)
seen = 0
for block in blocks:
    for chunk in block.iter_chunks():
        seen += len(chunk)
assert seen == rows * n_blocks
import os
total = 0
for dirpath, _dirs, files in os.walk(root):
    for name in files:
        total += os.path.getsize(os.path.join(dirpath, name))
print(peak_rss_kb(), total)
"""


def child_rss_and_disk(kind: str) -> tuple[int, int]:
    """Ingest + scan the point stream in a child; peak RSS KB and disk bytes."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    parts = [os.path.join(repo_root, "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            _RSS_CHILD,
            kind,
            str(RSS_ROWS),
            str(RSS_WIDTH),
            str(RSS_BLOCKS),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    rss_kb, total = out.stdout.split()
    return int(rss_kb), int(total)


def test_tiered_peaks_at_half_of_mmap(benchmark):
    """The bench guard: cold scans must not page in the dense layout."""

    def measure():
        return child_rss_and_disk("mmap"), child_rss_and_disk("tiered")

    (mmap_kb, mmap_disk), (tiered_kb, tiered_disk) = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    emit_json(
        "compression_rss",
        rows=RSS_ROWS,
        width=RSS_WIDTH,
        n_blocks=RSS_BLOCKS,
        mmap_rss_kb=mmap_kb,
        tiered_rss_kb=tiered_kb,
        mmap_disk_bytes=mmap_disk,
        tiered_disk_bytes=tiered_disk,
    )
    print_table(
        f"Peak RSS, {RSS_BLOCKS} dense blocks of {RSS_ROWS}x{RSS_WIDTH} floats",
        ["backend", "peak RSS (MB)", "disk (MB)"],
        [
            ["mmap (dense)", f"{mmap_kb / 1024:.1f}", f"{mmap_disk / 2**20:.1f}"],
            [
                "tiered (cold)",
                f"{tiered_kb / 1024:.1f}",
                f"{tiered_disk / 2**20:.1f}",
            ],
        ],
    )
    assert tiered_kb * 2 <= mmap_kb, (
        f"tiered backend peaked at {tiered_kb} KB vs {mmap_kb} KB mmap — "
        "less than 2x lower"
    )
    assert tiered_disk * 2 <= mmap_disk, (
        f"cold tier holds {tiered_disk} bytes vs {mmap_disk} dense on disk"
    )


# ----------------------------------------------------------------------
# Scan throughput
# ----------------------------------------------------------------------


def test_cold_scan_within_20pct_of_hot(benchmark, tmp_path):
    """One full chunked pass over cold blocks vs the same pass over hot.

    Records must be identical across placements; the cold pass must
    stay within the 20% budget.
    """
    params = QuestParams.from_name(DATASET)
    generator = QuestGenerator(params, seed=11)
    per_block = THROUGHPUT_ROWS // N_BLOCKS
    streams = [
        list(generator.iter_transactions(per_block)) for _ in range(N_BLOCKS)
    ]
    backend = TieredBackend(root=str(tmp_path))
    blocks = [
        backend.ingest(block_id, iter(records))
        for block_id, records in enumerate(streams, start=1)
    ]
    records_total = sum(len(s) for s in streams)

    def timed_scan():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            seen = scan(blocks)
            best = min(best, time.perf_counter() - t0)
            assert seen == records_total
        return best

    def measure():
        hot_digest = [hash(block.materialize()) for block in blocks]
        hot_scan = timed_scan()
        for block in blocks:
            backend.demote_block(block.block_id)
            block.data._promoter = None  # timing scans must stay cold
        cold_scan = timed_scan()
        cold_digest = [hash(block.materialize()) for block in blocks]
        return hot_scan, cold_scan, hot_digest == cold_digest

    hot_scan, cold_scan, identical = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert identical, "cold blocks must read back the hot records exactly"
    emit_json(
        "compression_throughput",
        dataset=DATASET,
        records=records_total,
        hot_scan_seconds=hot_scan,
        cold_scan_seconds=cold_scan,
        scan_slowdown=cold_scan / hot_scan,
    )
    print_table(
        f"Full scan, {DATASET} ({records_total} transactions)",
        ["tier", "scan (ms)", "vs hot"],
        [
            ["hot (dense)", fmt_ms(hot_scan), "1.00x"],
            ["cold (packed)", fmt_ms(cold_scan), f"{cold_scan / hot_scan:.2f}x"],
        ],
    )
    assert cold_scan <= 1.2 * hot_scan, (
        f"cold scan took {cold_scan:.4f}s vs {hot_scan:.4f}s hot — "
        "over the 20% budget"
    )


def test_environment_row(benchmark):
    """Record the run's environment so baselines stay comparable."""

    def row():
        return os.cpu_count() or 1

    cpus = benchmark.pedantic(row, rounds=1, iterations=1)
    emit_json(
        "compression_environment",
        cpu_count=cpus,
        scale=SCALE,
        python=".".join(str(v) for v in sys.version_info[:3]),
        rss_rows=RSS_ROWS,
        rss_blocks=RSS_BLOCKS,
        throughput_rows=THROUGHPUT_ROWS,
    )
