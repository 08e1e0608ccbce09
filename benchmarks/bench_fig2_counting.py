"""Figure 2 — counting time vs number of itemsets |S|.

Paper setup: datasets {2M, 4M}.20L.1I.4pats.4plen at κ = 0.01; a random
set S of negative-border itemsets is counted against the whole dataset
with PT-Scan, ECUT, and ECUT+ (all frequent 2-itemsets materialized),
varying |S| from 5 to 180.

Expected shape (paper): all three counters scale linearly with |S| and
with dataset size; ECUT beats PT-Scan below a crossover in |S|; ECUT+
beats PT-Scan over the whole range and is ~8x faster at small |S|.

Run:  pytest benchmarks/bench_fig2_counting.py --benchmark-only -s
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

from benchmarks.common import SCALE, emit_json, fmt_ms, print_table, quest_blocks
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.borders import BordersMaintainer, ItemsetMiningContext
from repro.itemsets.counting import ECUTCounter, ECUTPlusCounter, PTScanCounter
from repro.itemsets.model import FrequentItemsetModel
from repro.storage.telemetry import Telemetry

DATASETS = {
    "2M": "2M.20L.1I.4pats.4plen",
    "4M": "4M.20L.1I.4pats.4plen",
}
MINSUP = 0.01
SIZES = (5, 45, 90, 180)
N_BLOCKS = 4

_setup_cache: dict[str, tuple] = {}


def fig2_setup(dataset_key: str):
    """Context + model + sampled border itemsets for one dataset."""
    if dataset_key in _setup_cache:
        return _setup_cache[dataset_key]
    blocks = quest_blocks(DATASETS[dataset_key], N_BLOCKS, seed=2)
    context = ItemsetMiningContext()
    maintainer = BordersMaintainer(MINSUP, context, counter="ecut+")
    model = maintainer.build(blocks)

    # Stratify the sample toward larger border itemsets: the update
    # phase's real counting targets are fresh candidates of size >= 3
    # (2-itemsets are almost all already tracked), and they are where
    # the materialized pair lists pay off.
    rng = random.Random(42)
    big = sorted(x for x in model.border if len(x) >= 3)
    pairs = sorted(x for x in model.border if len(x) == 2)
    want = max(SIZES)
    sample = rng.sample(big, min(want * 3 // 4, len(big)))
    sample += rng.sample(pairs, min(want - len(sample), len(pairs)))
    rng.shuffle(sample)
    counters = {
        "PT-Scan": PTScanCounter(context.block_store),
        "ECUT": ECUTCounter(context.tidlists),
        "ECUT+": ECUTPlusCounter(context.tidlists, context.pairs),
    }
    block_ids = [b.block_id for b in blocks]
    _setup_cache[dataset_key] = (context, model, sample, counters, block_ids)
    return _setup_cache[dataset_key]


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("counter_name", ["PT-Scan", "ECUT", "ECUT+"])
@pytest.mark.parametrize("size", SIZES)
def test_fig2_counting(benchmark, dataset, counter_name, size):
    """One (dataset, counter, |S|) cell of Figure 2."""
    _context, _model, sample, counters, block_ids = fig2_setup(dataset)
    itemsets = sample[:size]
    counter = counters[counter_name]
    result = benchmark.pedantic(
        counter.count_batch, args=(itemsets, block_ids), rounds=3, iterations=1
    )
    assert len(result) == len(itemsets)


def test_fig2_table_and_shape(benchmark):
    """Print the full Figure 2 series and assert the paper's shape."""

    def read_bytes(context, name):
        if name == "PT-Scan":
            return context.block_store.stats.bytes_read
        return (
            context.tidlists.stats.bytes_read + context.pairs.stats.bytes_read
        )

    def read_hits(context):
        return (
            context.block_store.stats.cache_hits
            + context.tidlists.stats.cache_hits
            + context.pairs.stats.cache_hits
        )

    def sweep():
        rows = []
        times: dict[tuple[str, str, int], float] = {}
        fetched: dict[tuple[str, str, int], int] = {}
        agreement: dict[tuple[str, int], dict] = {}
        for dataset in DATASETS:
            ctx, _model, sample, counters, block_ids = fig2_setup(dataset)
            # Telemetry parity: the spine sees the same live registry
            # the direct store counters above read from.
            spine = Telemetry()
            spine.attach_io("itemsets", ctx.registry)
            for size in SIZES:
                itemsets = sample[:size]
                row = [dataset, size]
                for name, counter in counters.items():
                    before = read_bytes(ctx, name)
                    hits_before = read_hits(ctx)
                    spine_before = spine.snapshot()
                    start = time.perf_counter()
                    counts = counter.count_batch(itemsets, block_ids)
                    elapsed = time.perf_counter() - start
                    times[(dataset, name, size)] = elapsed
                    fetched[(dataset, name, size)] = read_bytes(ctx, name) - before
                    spine_io = spine.delta_since(spine_before).io_totals()
                    assert spine_io.bytes_read == fetched[(dataset, name, size)]
                    assert spine_io.cache_hits == read_hits(ctx) - hits_before
                    row.append(fmt_ms(elapsed))
                    key = (dataset, size)
                    agreement.setdefault(key, counts)
                    assert counts == agreement[key], (
                        f"counter disagreement for {name} on {key}"
                    )
                row.extend(
                    f"{fetched[(dataset, name, size)] / 1024:.0f}"
                    for name in counters
                )
                rows.append(row)
        print_table(
            "Figure 2: counting time (ms) and data fetched (KiB) vs |S|",
            ["dataset", "|S|",
             "PT-Scan ms", "ECUT ms", "ECUT+ ms",
             "PT-Scan KiB", "ECUT KiB", "ECUT+ KiB"],
            rows,
        )
        return times, fetched

    times, fetched = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for (dataset, name, size), elapsed in times.items():
        emit_json(
            "fig2_counting",
            dataset=dataset,
            counter=name,
            n_itemsets=size,
            seconds=elapsed,
            bytes_fetched=fetched[(dataset, name, size)],
        )

    for dataset in DATASETS:
        # ECUT beats PT-Scan for small |S| (paper: crossover ~75).
        assert times[(dataset, "ECUT", 5)] < times[(dataset, "PT-Scan", 5)]
        for size in SIZES:
            # The I/O argument: TID-lists fetch a fraction of a scan...
            assert fetched[(dataset, "ECUT", size)] < fetched[
                (dataset, "PT-Scan", size)
            ]
            # ...and materialized pairs fetch no more than item lists.
            assert fetched[(dataset, "ECUT+", size)] <= fetched[
                (dataset, "ECUT", size)
            ]
        # Roughly linear growth in |S| for the TID-list counters: going
        # from 45 to 180 itemsets must not blow up super-linearly.
        assert times[(dataset, "ECUT", 180)] <= times[(dataset, "ECUT", 45)] * 8
    # Larger dataset costs more for a full scan.
    assert times[("4M", "PT-Scan", 90)] > times[("2M", "PT-Scan", 90)] * 1.2


def test_environment_row(benchmark):
    """Record the run's environment so baselines stay comparable."""

    def row():
        return os.cpu_count() or 1

    cpus = benchmark.pedantic(row, rounds=1, iterations=1)
    emit_json(
        "counting_environment",
        cpu_count=cpus,
        scale=SCALE,
        python=".".join(str(v) for v in sys.version_info[:3]),
    )
