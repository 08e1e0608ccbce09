"""Property-based tests for the batched counting engine.

On random blocks and random target itemsets, ``count_batch`` must
return exactly the per-itemset path's supports while charging no more
logical bytes — and for plain ECUT, exactly the per-itemset fetch plan:
every unbatched read resurfaces as either one physical read or one
cache hit, and read + cached bytes add up to the unbatched bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.itemsets.counting as counting
from repro.core.blocks import make_block
from repro.itemsets.borders import ItemsetMiningContext
from repro.itemsets.counting import ECUTCounter, ECUTPlusCounter
from repro.itemsets.itemset import contains

items = st.integers(min_value=0, max_value=10)
transactions = st.sets(items, min_size=0, max_size=6).map(
    lambda s: tuple(sorted(s))
)
blocks_strategy = st.lists(
    st.lists(transactions, min_size=1, max_size=20), min_size=1, max_size=3
)
# Unique: the per-itemset path re-counts (and re-charges) duplicate
# targets while the batch dedups them, so the read-replay invariant
# below is stated for duplicate-free target lists.  Duplicate inputs
# are covered by the agreement unit tests.
targets_strategy = st.lists(
    st.sets(items, min_size=0, max_size=4).map(lambda s: tuple(sorted(s))),
    min_size=1,
    max_size=12,
    unique=True,
)


def build(raw_blocks, with_pairs=False):
    blocks = [
        make_block(i + 1, tuples) for i, tuples in enumerate(raw_blocks)
    ]
    context = ItemsetMiningContext()
    for block in blocks:
        context.block_store.append(block.block_id, block.tuples)
        context.tidlists.materialize_block(block)
        if with_pairs:
            pairs = {
                (a, b)
                for t in block.tuples
                for a in t
                for b in t
                if a < b
            }
            context.pairs.materialize_block(
                block,
                pairs,
                {p: 1 for p in pairs},
                base_tid=context.tidlists.base_tid(block.block_id),
            )
    return blocks, context


def reference(blocks, itemsets):
    return {
        x: sum(1 for b in blocks for t in b.tuples if contains(t, x))
        for x in itemsets
    }


class TestBatchedECUT:
    @settings(max_examples=40, deadline=None)
    @given(blocks_strategy, targets_strategy)
    def test_supports_and_io_match_per_itemset_path(self, raw, targets):
        blocks, context = build(raw)
        counter = ECUTCounter(context.tidlists)
        block_ids = [b.block_id for b in blocks]
        stats = context.tidlists.stats

        before = stats.snapshot()
        expected = counter.count(targets, block_ids)
        unbatched = stats.delta_since(before)

        before = stats.snapshot()
        got = counter.count_batch(targets, block_ids)
        batched = stats.delta_since(before)

        assert got == expected == reference(blocks, targets)
        # Same fetch plan, shared: physical reads + cache hits replay
        # the per-itemset reads exactly, and the byte split is lossless.
        assert batched.bytes_read <= unbatched.bytes_read
        assert batched.reads + batched.cache_hits == unbatched.reads
        assert (
            batched.bytes_read + batched.bytes_cached == unbatched.bytes_read
        )

    @settings(max_examples=25, deadline=None)
    @given(blocks_strategy, targets_strategy, st.integers(min_value=1, max_value=70))
    def test_chunked_engine_agrees(self, raw, targets, budget):
        """These blocks of 1-20 transactions have one-word (8-byte) rows,
        so a chunk budget of ``budget`` bytes holds one to eight rows:
        chunks split the batch unevenly or into single rows.  Counts and
        both accounting sums still equal the per-itemset path's."""
        blocks, context = build(raw)
        counter = ECUTCounter(context.tidlists)
        block_ids = [b.block_id for b in blocks]
        stats = context.tidlists.stats

        before = stats.snapshot()
        expected = counter.count(targets, block_ids)
        unbatched = stats.delta_since(before)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counting, "DENSE_CHUNK_BYTES", budget)
            before = stats.snapshot()
            got = counter.count_batch(targets, block_ids)
            batched = stats.delta_since(before)

        assert got == expected
        assert batched.reads + batched.cache_hits == unbatched.reads
        assert (
            batched.bytes_read + batched.bytes_cached == unbatched.bytes_read
        )


class TestBatchedECUTPlus:
    @settings(max_examples=30, deadline=None)
    @given(blocks_strategy, targets_strategy)
    def test_supports_match_and_bytes_never_exceed(self, raw, targets):
        blocks, context = build(raw, with_pairs=True)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)
        block_ids = [b.block_id for b in blocks]

        def totals():
            return (
                context.tidlists.stats.bytes_read
                + context.pairs.stats.bytes_read
            )

        before = totals()
        expected = counter.count(targets, block_ids)
        unbatched_bytes = totals() - before

        before = totals()
        got = counter.count_batch(targets, block_ids)
        batched_bytes = totals() - before

        assert got == expected == reference(blocks, targets)
        # The batched path prunes dead prefixes the per-itemset ECUT+
        # path does not, so <= (strict inequality needs shared keys).
        assert batched_bytes <= unbatched_bytes
