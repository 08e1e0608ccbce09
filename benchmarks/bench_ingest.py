"""Ingest-spine benchmark — in-memory vs memory-mapped block backends.

DEMON's storage premise is that the evolving database need not fit in
RAM: blocks are written once on arrival and consumed chunk-wise ever
after.  This benchmark measures both halves of that bargain on the two
shipped backends:

* **ingest** — streaming one block's records into backend storage;
* **scan** — one full chunked pass over the stored block (the access
  pattern of every maintainer);
* **chunk-size ablation** — scan cost as ``chunk_size`` varies, the
  knob ``DEMON_BLOCK_CHUNK`` exposes;
* **peak RSS guard** — a subprocess per backend ingests and scans one
  deliberately large dense block; the mmap backend must peak *below*
  the in-memory backend, or the whole point of the columnar layout has
  regressed.

Run:  pytest benchmarks/bench_ingest.py --benchmark-only -s
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

import pytest

from benchmarks.common import emit_json, fmt_ms, print_table, scaled
from repro.datagen.quest import QuestGenerator, QuestParams
from repro.storage.engine import InMemoryBackend, MmapBackend

DATASET = "2M.20L.1I.4pats.4plen"
N_TRANSACTIONS = scaled(2_000_000)
CHUNK_SIZES = (256, 1024, 4096, 16384)

#: The RSS guard's block is fixed-size (not SCALE-scaled): the gap
#: between materialized tuples and streamed columns only shows once the
#: block dwarfs interpreter noise.
RSS_ROWS = 200_000
RSS_WIDTH = 8


def transactions(count: int = N_TRANSACTIONS) -> list:
    params = QuestParams.from_name(DATASET)
    return list(QuestGenerator(params, seed=11).iter_transactions(count))


def make_backend(kind: str, root, chunk_size: int | None = None):
    if kind == "memory":
        return InMemoryBackend(chunk_size=chunk_size)
    return MmapBackend(root=str(root), chunk_size=chunk_size)


def scan(block) -> int:
    total = 0
    for chunk in block.iter_chunks():
        total += len(chunk)
    return total


@pytest.mark.parametrize("kind", ["memory", "mmap"])
def test_ingest_and_scan(benchmark, kind, tmp_path):
    """One block's write-once / read-forever cycle on each backend."""
    records = transactions()

    def cycle():
        backend = make_backend(kind, tmp_path)
        t0 = time.perf_counter()
        block = backend.ingest(1, iter(records))
        t_ingest = time.perf_counter() - t0
        t0 = time.perf_counter()
        seen = scan(block)
        t_scan = time.perf_counter() - t0
        return block, seen, t_ingest, t_scan

    block, seen, t_ingest, t_scan = benchmark.pedantic(
        cycle, rounds=3, iterations=1
    )
    assert seen == len(records) == block.num_records
    emit_json(
        "ingest",
        backend=kind,
        dataset=DATASET,
        records=len(records),
        nbytes=block.nbytes,
        ingest_seconds=t_ingest,
        scan_seconds=t_scan,
    )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_chunk_size_ablation(benchmark, chunk_size, tmp_path):
    """Scan cost across the ``DEMON_BLOCK_CHUNK`` ablation grid."""
    records = transactions()
    block = make_backend("mmap", tmp_path, chunk_size=chunk_size).ingest(
        1, iter(records)
    )

    def timed_scan():
        t0 = time.perf_counter()
        seen = scan(block)
        return seen, time.perf_counter() - t0

    seen, elapsed = benchmark.pedantic(timed_scan, rounds=3, iterations=1)
    assert seen == len(records)
    emit_json(
        "ingest_chunks",
        backend="mmap",
        dataset=DATASET,
        records=len(records),
        chunk_size=chunk_size,
        scan_seconds=elapsed,
    )


# ----------------------------------------------------------------------
# Peak-RSS guard
# ----------------------------------------------------------------------

_RSS_CHILD = """
import resource, sys, tempfile
from repro.storage.engine import InMemoryBackend, MmapBackend

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

kind, rows, width = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

def points():
    value = 0.0
    for _ in range(rows):
        value = (value + 0.734) % 17.0
        yield tuple(value + float(j) for j in range(width))

if kind == "memory":
    backend = InMemoryBackend(chunk_size=4096)
else:
    backend = MmapBackend(root=tempfile.mkdtemp(), chunk_size=4096)
block = backend.ingest(1, points())
seen = 0
for chunk in block.iter_chunks():
    seen += len(chunk)
assert seen == rows
print(peak_rss_kb())
"""


def peak_rss_kb(kind: str) -> int:
    """Ingest + scan one large dense block in a child; return its peak RSS."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    parts = [os.path.join(repo_root, "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    out = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, kind, str(RSS_ROWS), str(RSS_WIDTH)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return int(out.stdout.strip())


def test_mmap_peaks_below_memory_on_large_blocks(benchmark):
    """The bench guard: columnar streaming must beat materialization."""

    def measure():
        return peak_rss_kb("memory"), peak_rss_kb("mmap")

    memory_kb, mmap_kb = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_json(
        "ingest_rss",
        rows=RSS_ROWS,
        width=RSS_WIDTH,
        memory_rss_kb=memory_kb,
        mmap_rss_kb=mmap_kb,
    )
    print_table(
        f"Peak RSS, one dense block of {RSS_ROWS}x{RSS_WIDTH} floats",
        ["backend", "peak RSS (MB)"],
        [
            ["in-memory", f"{memory_kb / 1024:.1f}"],
            ["mmap", f"{mmap_kb / 1024:.1f}"],
        ],
    )
    # Not just below — below with a margin, so a slow regression cannot
    # hide inside run-to-run noise.
    assert mmap_kb < 0.8 * memory_kb, (
        f"mmap backend peaked at {mmap_kb} KB vs {memory_kb} KB in-memory"
    )


def test_ingest_table(benchmark):
    """Human-readable ingest/scan summary across both backends."""
    records = transactions()

    def run():
        rows = []
        for kind in ("memory", "mmap"):
            backend = make_backend(kind, tempfile.mkdtemp())
            t0 = time.perf_counter()
            block = backend.ingest(1, iter(records))
            t_ingest = time.perf_counter() - t0
            t0 = time.perf_counter()
            scan(block)
            t_scan = time.perf_counter() - t0
            rows.append([kind, len(records), fmt_ms(t_ingest), fmt_ms(t_scan)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Ingest spine, {DATASET} ({N_TRANSACTIONS} transactions)",
        ["backend", "records", "ingest (ms)", "scan (ms)"],
        rows,
    )
