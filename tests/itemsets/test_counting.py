"""Tests for the three support counters: agreement and I/O shape."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core.blocks import make_block
from repro.itemsets.borders import ItemsetMiningContext, make_counter
from repro.itemsets.counting import ECUTCounter, ECUTPlusCounter, PTScanCounter
from repro.itemsets.itemset import contains
from tests.conftest import random_transactions


def build_context(blocks, pairs_with_supports=None):
    """Register blocks into a fresh context, optionally with pairs."""
    context = ItemsetMiningContext()
    for block in blocks:
        context.block_store.append(block.block_id, block.tuples)
        context.tidlists.materialize_block(block)
        if pairs_with_supports is not None:
            context.pairs.materialize_block(
                block,
                list(pairs_with_supports),
                pairs_with_supports,
                base_tid=context.tidlists.base_tid(block.block_id),
            )
    return context


def reference_counts(blocks, itemsets, block_ids):
    selected = [b for b in blocks if b.block_id in block_ids]
    return {
        x: sum(1 for b in selected for t in b.tuples if contains(t, x))
        for x in itemsets
    }


ITEMSETS = [(0,), (1, 2), (1, 2, 3), (0, 3), (2, 5, 7), (4, 9, 11, 13)]


@pytest.fixture(scope="module")
def blocks():
    return [
        make_block(i + 1, random_transactions(120, n_items=16, seed=i))
        for i in range(3)
    ]


class TestCounterAgreement:
    @pytest.mark.parametrize("block_ids", [[1], [1, 2], [1, 2, 3], [2]])
    def test_ptscan_exact(self, blocks, block_ids):
        context = build_context(blocks)
        counter = PTScanCounter(context.block_store)
        assert counter.count(ITEMSETS, block_ids) == reference_counts(
            blocks, ITEMSETS, block_ids
        )

    @pytest.mark.parametrize("block_ids", [[1], [1, 3], [1, 2, 3]])
    def test_ecut_exact(self, blocks, block_ids):
        context = build_context(blocks)
        counter = ECUTCounter(context.tidlists)
        assert counter.count(ITEMSETS, block_ids) == reference_counts(
            blocks, ITEMSETS, block_ids
        )

    @pytest.mark.parametrize("block_ids", [[1], [2, 3], [1, 2, 3]])
    def test_ecut_plus_exact_with_pairs(self, blocks, block_ids):
        pairs = {(1, 2): 100, (2, 5): 50, (0, 3): 40}
        context = build_context(blocks, pairs_with_supports=pairs)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)
        assert counter.count(ITEMSETS, block_ids) == reference_counts(
            blocks, ITEMSETS, block_ids
        )

    def test_ecut_plus_without_pairs_degrades_to_ecut(self, blocks):
        context = build_context(blocks)
        plus = ECUTPlusCounter(context.tidlists, context.pairs)
        ecut = ECUTCounter(context.tidlists)
        assert plus.count(ITEMSETS, [1, 2]) == ecut.count(ITEMSETS, [1, 2])

    def test_empty_itemset_list(self, blocks):
        context = build_context(blocks)
        assert PTScanCounter(context.block_store).count([], [1]) == {}


class TestIOShape:
    """The paper's core claim: ECUT touches far fewer bytes than a scan."""

    def test_ecut_reads_less_than_ptscan_for_small_s(self, blocks):
        context = build_context(blocks)
        scan_stats = context.block_store.stats
        tid_stats = context.tidlists.stats
        scan_before = scan_stats.bytes_read
        PTScanCounter(context.block_store).count([(1, 2, 3)], [1, 2, 3])
        ptscan_bytes = scan_stats.bytes_read - scan_before

        tid_before = tid_stats.bytes_read
        ECUTCounter(context.tidlists).count([(1, 2, 3)], [1, 2, 3])
        ecut_bytes = tid_stats.bytes_read - tid_before

        assert ecut_bytes < ptscan_bytes

    def test_ecut_plus_reads_no_more_than_ecut(self, blocks):
        pairs = {(1, 2): 100}
        context = build_context(blocks, pairs_with_supports=pairs)
        targets = [(1, 2, 3)]

        tid_before = context.tidlists.stats.bytes_read
        ECUTCounter(context.tidlists).count(targets, [1, 2, 3])
        ecut_bytes = context.tidlists.stats.bytes_read - tid_before

        tid_before = context.tidlists.stats.bytes_read
        pair_before = context.pairs.stats.bytes_read
        ECUTPlusCounter(context.tidlists, context.pairs).count(targets, [1, 2, 3])
        plus_bytes = (
            context.tidlists.stats.bytes_read
            - tid_before
            + context.pairs.stats.bytes_read
            - pair_before
        )
        assert plus_bytes <= ecut_bytes

    def test_ptscan_cost_independent_of_itemset_count(self, blocks):
        context = build_context(blocks)
        stats = context.block_store.stats
        before = stats.bytes_read
        PTScanCounter(context.block_store).count([(1,)], [1, 2, 3])
        one = stats.bytes_read - before
        before = stats.bytes_read
        PTScanCounter(context.block_store).count(ITEMSETS, [1, 2, 3])
        many = stats.bytes_read - before
        assert one == many


class TestMakeCounter:
    def test_names(self):
        context = ItemsetMiningContext()
        assert make_counter("ptscan", context).name == "PT-Scan"
        assert make_counter("ecut", context).name == "ECUT"
        assert make_counter("ECUT+", context).name == "ECUT+"
        assert make_counter("ecut_plus", context).name == "ECUT+"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown counter"):
            make_counter("fancy", ItemsetMiningContext())


class TestCountBatch:
    """count_batch must equal count exactly, at fewer charged bytes."""

    BLOCK_IDS = [1, 2, 3]

    def test_ecut_batch_matches_reference(self, blocks):
        context = build_context(blocks)
        counter = ECUTCounter(context.tidlists)
        assert counter.count_batch(ITEMSETS, self.BLOCK_IDS) == reference_counts(
            blocks, ITEMSETS, self.BLOCK_IDS
        )

    def test_ecut_plus_batch_matches_reference(self, blocks):
        pairs = {(1, 2): 100, (2, 5): 50, (0, 3): 40}
        context = build_context(blocks, pairs_with_supports=pairs)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)
        assert counter.count_batch(ITEMSETS, self.BLOCK_IDS) == reference_counts(
            blocks, ITEMSETS, self.BLOCK_IDS
        )

    def test_ecut_plus_batch_without_pairs(self, blocks):
        """Blocks with no materialized pairs degrade to plain ECUT."""
        context = build_context(blocks)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)
        assert counter.count_batch(ITEMSETS, self.BLOCK_IDS) == reference_counts(
            blocks, ITEMSETS, self.BLOCK_IDS
        )

    def test_ptscan_batch_is_count(self, blocks):
        context = build_context(blocks)
        counter = PTScanCounter(context.block_store)
        assert counter.count_batch(ITEMSETS, [1, 2]) == counter.count(
            ITEMSETS, [1, 2]
        )

    def test_empty_batch(self, blocks):
        context = build_context(blocks)
        assert ECUTCounter(context.tidlists).count_batch([], [1]) == {}

    def test_duplicate_itemsets(self, blocks):
        context = build_context(blocks)
        counter = ECUTCounter(context.tidlists)
        targets = [(1, 2), (1, 2), (0,)]
        assert counter.count_batch(targets, [1, 2]) == counter.count(
            targets, [1, 2]
        )

    def test_empty_itemset_counts_block_sizes(self, blocks):
        context = build_context(blocks)
        counter = ECUTCounter(context.tidlists)
        total = sum(len(b.tuples) for b in blocks)
        assert counter.count_batch([()], self.BLOCK_IDS) == {(): total}

    def test_every_candidate_done_before_the_widest_key(self):
        """Items 1 and 2 never share a transaction, so the 3-itemset's
        intersection empties at its second key, when every other
        candidate has ended: no candidate reaches the third key."""
        block = make_block(1, [(0, 1), (0, 2), (1, 3), (2, 3)])
        context = build_context([block])
        counter = ECUTCounter(context.tidlists)
        targets = [(0,), (0, 1), (0, 2), (1, 2, 3)]
        assert counter.count_batch(targets, [1]) == counter.count(targets, [1])

    #: Duplicate-free, so the per-itemset path's reads are a fair
    #: reference: 68 targets of one to four items.
    CHUNK_TARGETS = list(
        dict.fromkeys(
            ITEMSETS
            + list(itertools.combinations(range(10), 2))
            + list(itertools.combinations(range(6), 3))
        )
    )

    @staticmethod
    def _io(context, fn):
        """``fn()``'s result and (reads, hits, bytes read, bytes cached)
        summed over the item and pair stores."""
        stats = (context.tidlists.stats, context.pairs.stats)
        before = [s.snapshot() for s in stats]
        result = fn()
        deltas = [s.delta_since(b) for s, b in zip(stats, before)]
        fields = ("reads", "cache_hits", "bytes_read", "bytes_cached")
        return result, tuple(sum(getattr(d, f) for d in deltas) for f in fields)

    @pytest.mark.parametrize("rows_per_chunk", [1, 3])
    def test_chunked_ecut_matches_per_itemset_path(
        self, blocks, monkeypatch, rows_per_chunk
    ):
        """One row per chunk, and chunks of three rows that split the 68
        targets unevenly: counts, ``reads + cache_hits`` and
        ``bytes_read + bytes_cached`` all equal the per-itemset path's."""
        import repro.itemsets.counting as counting

        targets = self.CHUNK_TARGETS
        assert len(targets) % 3 != 0
        context = build_context(blocks)
        counter = ECUTCounter(context.tidlists)
        expected, (reads, _, nbytes, _) = self._io(
            context, lambda: counter.count(targets, self.BLOCK_IDS)
        )
        row_bytes = 8 * ((len(blocks[0].tuples) + 63) >> 6)
        monkeypatch.setattr(counting, "DENSE_CHUNK_BYTES", rows_per_chunk * row_bytes)
        got, (b_reads, b_hits, b_bytes, b_cached) = self._io(
            context, lambda: counter.count_batch(targets, self.BLOCK_IDS)
        )
        assert got == expected == reference_counts(blocks, targets, self.BLOCK_IDS)
        assert b_reads + b_hits == reads
        assert b_bytes + b_cached == nbytes

    @pytest.mark.parametrize("rows_per_chunk", [1, 3])
    def test_chunked_ecut_plus_matches_unchunked(
        self, blocks, monkeypatch, rows_per_chunk
    ):
        """ECUT+ under the same budgets: counts equal :meth:`count`, and
        the reads, hits and both byte counts equal the unchunked
        engine's.  (ECUT+'s per-itemset path fetches every cover list
        even past an empty intersection, so it charges more.)"""
        import repro.itemsets.counting as counting

        targets = self.CHUNK_TARGETS
        pairs = {(1, 2): 100, (2, 5): 50, (0, 3): 40}
        context = build_context(blocks, pairs_with_supports=pairs)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)
        expected, per_itemset = self._io(
            context, lambda: counter.count(targets, self.BLOCK_IDS)
        )
        unchunked_counts, unchunked = self._io(
            context, lambda: counter.count_batch(targets, self.BLOCK_IDS)
        )
        row_bytes = 8 * ((len(blocks[0].tuples) + 63) >> 6)
        monkeypatch.setattr(counting, "DENSE_CHUNK_BYTES", rows_per_chunk * row_bytes)
        got, chunked = self._io(
            context, lambda: counter.count_batch(targets, self.BLOCK_IDS)
        )
        assert got == unchunked_counts == expected
        assert chunked == unchunked
        assert chunked[0] + chunked[1] <= per_itemset[0]
        assert chunked[2] + chunked[3] <= per_itemset[2]

    def _delta(self, stats, fn):
        before = stats.snapshot()
        fn()
        return stats.delta_since(before)

    def test_ecut_batch_io_accounting(self, blocks):
        """Per batch and block: one physical fetch per distinct list,
        every further use a cache hit — reads + hits and total logical
        bytes must both equal the per-itemset path's."""
        context = build_context(blocks)
        counter = ECUTCounter(context.tidlists)
        stats = context.tidlists.stats
        unbatched = self._delta(
            stats, lambda: counter.count(ITEMSETS, self.BLOCK_IDS)
        )
        batched = self._delta(
            stats, lambda: counter.count_batch(ITEMSETS, self.BLOCK_IDS)
        )
        assert batched.bytes_read < unbatched.bytes_read
        assert batched.reads + batched.cache_hits == unbatched.reads
        assert batched.bytes_read + batched.bytes_cached == unbatched.bytes_read

    def test_ecut_plus_batch_reads_fewer_bytes(self, blocks):
        pairs = {(1, 2): 100, (2, 5): 50}
        context = build_context(blocks, pairs_with_supports=pairs)
        counter = ECUTPlusCounter(context.tidlists, context.pairs)

        def total_bytes(fn):
            t0 = context.tidlists.stats.bytes_read
            p0 = context.pairs.stats.bytes_read
            fn()
            return (
                context.tidlists.stats.bytes_read
                - t0
                + context.pairs.stats.bytes_read
                - p0
            )

        unbatched = total_bytes(lambda: counter.count(ITEMSETS, self.BLOCK_IDS))
        batched = total_bytes(
            lambda: counter.count_batch(ITEMSETS, self.BLOCK_IDS)
        )
        assert batched < unbatched


class TestLargeBlock:
    """One 10,000-transaction block: the dense engine at every size."""

    BLOCK_SIZE = 10_000
    N_ITEMS = 320

    @pytest.fixture(scope="class")
    def context(self):
        # Item densities from 0.5% to 15%, so the block holds both
        # sorted-array and bitmap lists.
        rng = np.random.default_rng(0)
        densities = np.linspace(0.005, 0.15, self.N_ITEMS)
        member = rng.random((self.BLOCK_SIZE, self.N_ITEMS)) < densities
        block = make_block(
            1, [tuple(np.flatnonzero(row).tolist()) for row in member]
        )
        context = ItemsetMiningContext()
        context.tidlists.materialize_block(block)
        return context

    def test_accounting_matches_per_itemset_path(self, context):
        """Every pair over 120 items: 7140 candidates.  The batch is
        larger than ``(items + candidates) × block_size = 2^26`` cells,
        yet each candidate's use of a list is still one read or one
        cache hit, as on the per-itemset path."""
        items = range(120)
        targets = list(itertools.combinations(items, 2))
        assert (len(items) + len(targets)) * self.BLOCK_SIZE > 1 << 26
        counter = ECUTCounter(context.tidlists)
        stats = context.tidlists.stats
        before = stats.snapshot()
        expected = counter.count(targets, [1])
        unbatched = stats.delta_since(before)
        before = stats.snapshot()
        got = counter.count_batch(targets, [1])
        batched = stats.delta_since(before)
        assert got == expected
        assert batched.reads + batched.cache_hits == unbatched.reads
        assert batched.bytes_read + batched.bytes_cached == unbatched.bytes_read

    def test_peak_memory_is_bounded_by_the_chunk_budget(self, context):
        """``count_batch`` over all 51,040 pairs of 320 items stays under
        the sum of what it must hold:

        * the dense scratch: the running rows of one chunk, the gathered
          key rows, a compacted copy and the popcount, each at most
          ``DENSE_CHUNK_BYTES``, with 50% slack: 6 budgets;
        * the key matrix, one ``8 * ceil(block_size / 64)``-byte row per
          item, plus ``pack_rows``' scratch: at most six 8-byte
          temporaries per tid;
        * ``S`` and its siblings: the item-index matrix, its rank keys,
          the argsort order and ``S`` (four ``n × width`` int64 arrays),
          plus the fill mask, ``supports`` and the last counts;
        * the result: the counts dict and target list, at most 128 bytes
          per candidate.

        Without the chunking the running rows alone would take
        ``n × 8 * ceil(block_size / 64)`` = 64 MB.
        """
        import repro.itemsets.counting as counting

        targets = list(itertools.combinations(range(self.N_ITEMS), 2))
        n, width = len(targets), 2
        assert n >= 50_000
        row_bytes = 8 * ((self.BLOCK_SIZE + 63) >> 6)
        tids = sum(context.tidlists.item_count(1, i) for i in range(self.N_ITEMS))
        bound = (
            6 * counting.DENSE_CHUNK_BYTES
            + self.N_ITEMS * row_bytes
            + 6 * 8 * tids
            + 4 * n * width * 8
            + 3 * n * 8
            + 128 * n
        )
        assert n * row_bytes > 2 * bound
        counter = ECUTCounter(context.tidlists)
        tracemalloc.start()
        try:
            counter.count_batch(targets, [1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound
