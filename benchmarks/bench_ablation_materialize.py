"""Ablation — the ECUT+ 2-itemset materialization heuristic (§3.1.1).

The paper picks which 2-itemset TID-lists to materialize under a space
budget by *descending overall support* ("an itemset with higher overall
support is chosen before another with lower support"), arguing it
approximates the NP-hard view-selection problem well.  This ablation
compares, at several budgets:

* the paper's support-descending choice,
* a support-*ascending* choice (adversarial),
* a random choice,

measuring the bytes ECUT+ fetches to count a workload of border
itemsets.  The heuristic should dominate: high-support pairs are
subsets of more counting targets, so they turn more item-list pairs
into single shorter pair-lists.

Run:  pytest benchmarks/bench_ablation_materialize.py --benchmark-only -s
"""

from __future__ import annotations

import random

import pytest

from benchmarks.common import print_table, quest_blocks
from repro.itemsets.borders import BordersMaintainer, ItemsetMiningContext
from repro.itemsets.counting import ECUTPlusCounter
from repro.itemsets.materialize import PairTidListStore
from repro.itemsets.tidlist import TID_BYTES

DATASET = "2M.20L.1I.4pats.4plen"
MINSUP = 0.01
N_BLOCKS = 2
BUDGET_FRACTIONS = (0.05, 0.15, 0.4)

_setup = None


def ablation_setup():
    """Blocks, model, and a counting workload of big border itemsets."""
    global _setup
    if _setup is None:
        blocks = quest_blocks(DATASET, N_BLOCKS, seed=3)
        context = ItemsetMiningContext()
        maintainer = BordersMaintainer(MINSUP, context, counter="ecut")
        model = maintainer.build(blocks)
        rng = random.Random(7)
        big = sorted(x for x in model.border if len(x) >= 3)
        workload = rng.sample(big, min(120, len(big)))
        _setup = (blocks, context, model, workload)
    return _setup


def fetched_bytes(strategy: str, budget_fraction: float) -> int:
    """Bytes ECUT+ fetches under one materialization strategy."""
    blocks, context, model, workload = ablation_setup()
    pairs = list(model.frequent_of_size(2))
    rng = random.Random(11)

    if strategy == "support-desc":
        ordering = {p: model.frequent[p] for p in pairs}
    elif strategy == "support-asc":
        ordering = {p: -model.frequent[p] for p in pairs}
    elif strategy == "random":
        ordering = {p: rng.random() for p in pairs}
    elif strategy == "none":
        ordering = {}
        pairs = []
    else:
        raise ValueError(strategy)

    pair_store = PairTidListStore()
    for block in blocks:
        budget = int(budget_fraction * context.block_store.nbytes(block.block_id))
        pair_store.materialize_block(
            block,
            pairs,
            overall_supports=ordering,
            budget_bytes=budget,
            base_tid=context.tidlists.base_tid(block.block_id),
        )
    counter = ECUTPlusCounter(context.tidlists, pair_store)
    stats = (context.tidlists.stats, pair_store.stats)
    before = [s.snapshot() for s in stats]
    counter.count_batch(workload, [b.block_id for b in blocks])
    # The paper's cost model counts each itemset on its own, so every
    # list use is a fetch: read plus cache-served bytes.  (Within one
    # batch a list shared by several itemsets is read only once.)
    deltas = [s.delta_since(b) for s, b in zip(stats, before)]
    return sum(d.bytes_read + d.bytes_cached for d in deltas)


@pytest.mark.parametrize("strategy", ["support-desc", "random", "none"])
def test_ablation_strategy(benchmark, strategy):
    nbytes = benchmark.pedantic(
        fetched_bytes, args=(strategy, 0.15), rounds=1, iterations=1
    )
    assert nbytes > 0


def test_ablation_table_and_shape(benchmark):
    """Print the sweep and assert the heuristic's dominance."""

    def sweep():
        results = {}
        for fraction in BUDGET_FRACTIONS:
            for strategy in ("support-desc", "support-asc", "random", "none"):
                results[(strategy, fraction)] = fetched_bytes(strategy, fraction)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [
            f"{fraction:.0%}",
            *(
                f"{results[(s, fraction)] / 1024:.0f}"
                for s in ("support-desc", "support-asc", "random", "none")
            ),
        ]
        for fraction in BUDGET_FRACTIONS
    ]
    print_table(
        "Ablation: ECUT+ bytes fetched (KiB) by materialization strategy "
        "vs space budget",
        ["budget", "support-desc", "support-asc", "random", "no pairs"],
        rows,
    )
    for fraction in BUDGET_FRACTIONS:
        best = results[("support-desc", fraction)]
        # The paper's heuristic beats the adversarial ordering and is
        # always better than not materializing at all.  (A *random*
        # choice can edge it out at very tight budgets — high-support
        # pairs carry the longest lists, so fewer of them fit; see
        # EXPERIMENTS.md for the measured trade-off.)
        assert best <= results[("support-asc", fraction)]
        assert best < results[("none", fraction)]
    # More budget never hurts the heuristic.
    assert (
        results[("support-desc", BUDGET_FRACTIONS[-1])]
        <= results[("support-desc", BUDGET_FRACTIONS[0])]
    )
