"""Tests for per-block TID-lists and ECUT-style intersection counting."""

import numpy as np
import pytest

from repro.core.blocks import make_block
from repro.itemsets.itemset import contains
from repro.itemsets.tidlist import TID_BYTES, TidListStore, intersect_sorted
from repro.storage.iostats import IOStatsRegistry


BLOCK1 = make_block(1, [(1, 2), (1, 3), (2, 3), (1, 2, 3)])
BLOCK2 = make_block(2, [(1, 2, 3), (3,), (1, 2)])


def store_with_blocks():
    store = TidListStore()
    store.materialize_block(BLOCK1)
    store.materialize_block(BLOCK2)
    return store


class TestIntersectSorted:
    def test_basic(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5])
        assert intersect_sorted([a, b]).tolist() == [3, 5]

    def test_empty_input(self):
        assert len(intersect_sorted([])) == 0

    def test_single_list(self):
        assert intersect_sorted([np.array([1, 2])]).tolist() == [1, 2]

    def test_disjoint(self):
        assert len(intersect_sorted([np.array([1]), np.array([2])])) == 0

    def test_three_way(self):
        lists = [np.array([1, 2, 3, 4]), np.array([2, 3, 4]), np.array([3, 4, 9])]
        assert intersect_sorted(lists).tolist() == [3, 4]


class TestTidListStore:
    def test_global_tids_continue_across_blocks(self):
        store = store_with_blocks()
        assert store.base_tid(1) == 0
        assert store.base_tid(2) == 4

    def test_item_lists(self):
        store = store_with_blocks()
        assert store.fetch(1, 1).tolist() == [0, 1, 3]
        assert store.fetch(2, 3).tolist() == [4, 5]

    def test_absent_item_gives_empty_list(self):
        store = store_with_blocks()
        assert len(store.fetch(1, 99)) == 0

    def test_unknown_block_raises(self):
        store = store_with_blocks()
        with pytest.raises(KeyError):
            store.fetch(9, 1)

    def test_duplicate_materialization_rejected(self):
        store = store_with_blocks()
        with pytest.raises(ValueError):
            store.materialize_block(BLOCK1)

    def test_item_count_is_metadata(self):
        store = store_with_blocks()
        before = store.stats.bytes_read
        assert store.item_count(1, 1) == 3
        assert store.stats.bytes_read == before

    def test_count_itemset_in_block(self):
        store = store_with_blocks()
        for itemset in [(1,), (1, 2), (2, 3), (1, 2, 3)]:
            expected = sum(1 for t in BLOCK1.tuples if contains(t, itemset))
            assert store.count_itemset_in_block(1, itemset) == expected

    def test_count_itemset_additivity(self):
        """Support over several blocks is the sum of per-block supports."""
        store = store_with_blocks()
        combined = store.count_itemset([1, 2], (1, 2))
        per_block = store.count_itemset_in_block(1, (1, 2)) + (
            store.count_itemset_in_block(2, (1, 2))
        )
        assert combined == per_block == 4

    def test_empty_itemset_counts_block_size(self):
        store = store_with_blocks()
        assert store.count_itemset_in_block(1, ()) == 4

    def test_fetch_charges_io(self):
        registry = IOStatsRegistry()
        store = TidListStore(registry=registry)
        store.materialize_block(BLOCK1)
        store.fetch(1, 1)
        assert registry.get("tidlist_fetch").bytes_read == 3 * TID_BYTES

    def test_nbytes_equals_transactional_size(self):
        """§3.1.1: the TID-lists occupy the same space as the data in
        transactional format (one integer per item occurrence)."""
        store = store_with_blocks()
        occurrences = sum(len(t) for t in BLOCK1.tuples)
        assert store.nbytes(1) == occurrences * TID_BYTES

    def test_total_nbytes(self):
        store = store_with_blocks()
        assert store.total_nbytes() == store.nbytes(1) + store.nbytes(2)

    def test_drop_block(self):
        # ``compress_block`` is the store's one release method: it
        # drops the block's lists, idempotently, and ignores unknown ids.
        store = store_with_blocks()
        store.compress_block(1)
        store.compress_block(1)
        store.compress_block(99)
        assert not store.has_block(1)
        assert store.has_block(2)
        assert store.total_nbytes() == store.nbytes(2)

    def test_block_size(self):
        store = store_with_blocks()
        assert store.block_size(1) == 4
        assert store.block_size(2) == 3

    def test_missing_item_short_circuits_fetches(self):
        """Rarest-first fetching stops once the intersection is empty."""
        store = store_with_blocks()
        before = store.stats.reads
        assert store.count_itemset_in_block(1, (1, 99)) == 0
        # Item 99 (empty list) is fetched first; item 1 is never read.
        assert store.stats.reads == before + 1


class TestReadOnlyMaterialization:
    """Fetches alias store memory; the store must freeze it (buffer-
    aliasing regression: a caller mutating a fetched list used to
    corrupt every later count of that block in place)."""

    def test_fetched_array_is_frozen(self):
        store = store_with_blocks()
        tids = store.fetch(1, 1)
        assert not tids.flags.writeable
        with pytest.raises(ValueError):
            tids[0] = 99  # demonlint: disable=DML010 (asserts the freeze)

    def test_fetch_list_is_frozen(self):
        store = store_with_blocks()
        tids = store.fetch_list(1, 2)
        assert not tids.flags.writeable

    def test_mutation_attempt_does_not_corrupt_counts(self):
        store = store_with_blocks()
        expected = store.count_itemset_in_block(1, (1, 2))
        with pytest.raises(ValueError):
            store.fetch(1, 1)[0] = 99  # demonlint: disable=DML010 (asserts the freeze)
        assert store.count_itemset_in_block(1, (1, 2)) == expected

    def test_intersect_sorted_single_list_aliases_frozen_input(self):
        """intersect_sorted may return an input unchanged; the freeze is
        what keeps that aliasing safe."""
        store = store_with_blocks()
        result = intersect_sorted([store.fetch(1, 1)])
        assert not result.flags.writeable

    def test_bitmap_words_are_frozen(self):
        block = make_block(7, [(1,)] * 128 + [(2,)] * 8)
        store = TidListStore()
        store.materialize_block(block)
        dense = store.fetch_list(7, 1)
        from repro.itemsets.kernels import BitmapTidList

        assert isinstance(dense, BitmapTidList)
        assert not dense.words.flags.writeable

    def test_packed_catalog_is_frozen_but_rows_are_fresh(self):
        """``packed_rows`` packs on every call: the rows are fresh
        writable copies, the store's lists stay frozen, and the call
        leaves no per-block state behind."""
        import pickle

        from repro.itemsets.kernels import BitmapTidList

        store = store_with_blocks()
        store.materialize_block(make_block(7, [(1,)] * 128 + [(2,)] * 8))
        assert isinstance(store._lists[7][1], BitmapTidList)
        pickled = pickle.dumps(store)
        items = np.array([1, 2, 3], dtype=np.int64)
        for block_id in (1, 7):
            rows, lens, nbytes = store.packed_rows(block_id, items)
            assert rows.flags.writeable
            assert lens.flags.writeable and nbytes.flags.writeable
            rows[:] = 0  # demonlint: disable=DML010 (packed_rows rows are per-call copies; this asserts exactly that)
            again, lens2, _ = store.packed_rows(block_id, items)
            assert again.any()
            assert lens2.tolist() == lens.tolist()
        assert pickle.dumps(store) == pickled
        for block_lists in store._lists.values():
            for tids in block_lists.values():
                array = tids.words if isinstance(tids, BitmapTidList) else tids
                assert not array.flags.writeable

    def test_packed_rows_absent_items_are_zero(self):
        store = store_with_blocks()
        import numpy as np

        rows, lens, nbytes = store.packed_rows(1, np.array([99], dtype=np.int64))
        assert not rows.any()
        assert lens.tolist() == [0]
        assert nbytes.tolist() == [0]
