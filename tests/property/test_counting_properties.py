"""Property-based tests for the counting engine.

On random blocks and random target itemsets, ``count_batch`` must
return exactly the supports of a full scan, and charge exactly the
accounting of the per-itemset oracle (``tests/itemsets/
counting_oracle.py``): every key use is one physical read or one cache
hit, reads are the distinct keys used per block, and read + cached
bytes add up to the summed size of every use.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.itemsets.counting as counting
from repro.core.blocks import make_block
from repro.itemsets.borders import ItemsetMiningContext
from repro.itemsets.counting import ECUTCounter, ECUTPlusCounter
from tests.itemsets.counting_oracle import oracle_io, reference_counts, store_io

items = st.integers(min_value=0, max_value=10)
transactions = st.sets(items, min_size=0, max_size=6).map(
    lambda s: tuple(sorted(s))
)
blocks_strategy = st.lists(
    st.lists(transactions, min_size=1, max_size=20), min_size=1, max_size=3
)
# Duplicate inputs are covered by the agreement unit tests.
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


class TestBatchedECUT:
    @settings(max_examples=40, deadline=None)
    @given(blocks_strategy, targets_strategy)
    def test_supports_and_io_match_per_itemset_path(self, raw, targets):
        blocks, context = build(raw)
        counter = ECUTCounter(context.tidlists)
        block_ids = [b.block_id for b in blocks]

        got, io = store_io(context, lambda: counter.count_batch(targets, block_ids))

        assert got == reference_counts(blocks, targets, block_ids)
        assert (got, io) == oracle_io(blocks, targets, block_ids)

    @settings(max_examples=25, deadline=None)
    @given(blocks_strategy, targets_strategy, st.integers(min_value=1, max_value=70))
    def test_chunked_engine_agrees(self, raw, targets, budget):
        """These blocks of 1-20 transactions have one-word (8-byte) rows,
        so a chunk budget of ``budget`` bytes holds one to eight rows:
        chunks split the batch unevenly or into single rows.  Counts and
        accounting still equal the oracle's."""
        blocks, context = build(raw)
        counter = ECUTCounter(context.tidlists)
        block_ids = [b.block_id for b in blocks]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counting, "DENSE_CHUNK_BYTES", budget)
            got, io = store_io(
                context, lambda: counter.count_batch(targets, block_ids)
            )

        assert (got, io) == oracle_io(blocks, targets, block_ids)


class TestBatchedECUTPlus:
    @settings(max_examples=30, deadline=None)
    @given(blocks_strategy, targets_strategy)
    def test_supports_match_and_bytes_never_exceed(self, raw, targets):
        blocks, context = build(raw, with_pairs=True)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)
        block_ids = [b.block_id for b in blocks]

        got, io = store_io(context, lambda: counter.count_batch(targets, block_ids))

        assert got == reference_counts(blocks, targets, block_ids)
        assert (got, io) == oracle_io(
            blocks, targets, block_ids, pairs=context.pairs
        )
