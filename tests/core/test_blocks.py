"""Tests for the systematic block evolution model."""

import pytest

from repro.core.blocks import Block, Snapshot, make_block
from repro.storage.engine import InMemoryBackend, MmapBackend, MmapBlockData


class TestBlock:
    def test_make_block_materializes_tuples(self):
        block = make_block(1, iter([(1, 2), (3,)]))
        assert block.tuples == ((1, 2), (3,))

    def test_len_and_iter(self):
        block = make_block(1, [(1,), (2,), (3,)])
        assert len(block) == 3
        assert list(block) == [(1,), (2,), (3,)]

    def test_block_ids_start_at_one(self):
        with pytest.raises(ValueError, match="start at 1"):
            Block(block_id=0, tuples=())

    def test_label_and_metadata(self):
        block = make_block(2, [(1,)], label="Mon", metadata={"weekday": 0})
        assert block.label == "Mon"
        assert block.metadata["weekday"] == 0

    def test_metadata_defaults_to_independent_dicts(self):
        a = make_block(1, [])
        b = make_block(2, [])
        a.metadata["x"] = 1
        assert "x" not in b.metadata

    def test_empty_block_allowed(self):
        block = make_block(1, [])
        assert len(block) == 0

    def test_exactly_one_record_source(self):
        with pytest.raises(ValueError, match="exactly one record source"):
            Block(block_id=1)
        with pytest.raises(ValueError, match="exactly one record source"):
            Block(block_id=1, tuples=(), data=InMemoryBackend().ingest(1, []).data)

    def test_handles_are_immutable(self):
        block = make_block(1, [(1,)])
        with pytest.raises(AttributeError, match="immutable"):
            block.label = "Mon"
        with pytest.raises(AttributeError, match="immutable"):
            del block.block_id

    def test_num_records_without_materializing(self):
        block = make_block(1, [(1, 2), (3,)])
        assert block.num_records == 2
        assert block.nbytes == 4 * 3  # three int fields

    def test_iter_chunks_respects_the_requested_size(self):
        block = make_block(1, [(i,) for i in range(7)])
        chunks = [list(c) for c in block.iter_chunks(3)]
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [r for c in chunks for r in c] == list(block.iter_records())

    def test_make_block_routes_through_an_explicit_backend(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path))
        block = make_block(1, [(1, 2), (3,)], backend=backend)
        assert isinstance(block.data, MmapBlockData)
        assert block.materialize() == ((1, 2), (3,))

    def test_equality_is_backend_independent(self, tmp_path):
        records = [(1, 2), (3,)]
        memory = make_block(1, records)
        mmap = make_block(1, records, backend=MmapBackend(root=str(tmp_path)))
        assert memory == mmap
        assert hash(memory) == hash(mmap)


class TestSnapshot:
    def test_starts_empty(self):
        snapshot = Snapshot()
        assert snapshot.t == 0
        assert len(snapshot) == 0

    def test_extend_in_order(self):
        snapshot = Snapshot()
        snapshot.extend(make_block(1, [(1,)]))
        snapshot.extend(make_block(2, [(2,)]))
        assert snapshot.t == 2

    def test_extend_rejects_out_of_order_ids(self):
        snapshot = Snapshot()
        snapshot.extend(make_block(1, []))
        with pytest.raises(ValueError, match="requires block id 2"):
            snapshot.extend(make_block(5, []))

    def test_constructor_accepts_prefix(self):
        blocks = [make_block(1, [(1,)]), make_block(2, [(2,)])]
        snapshot = Snapshot(blocks)
        assert snapshot.t == 2

    def test_block_lookup_is_one_based(self):
        snapshot = Snapshot([make_block(1, [(10,)]), make_block(2, [(20,)])])
        assert snapshot.block(1).tuples == ((10,),)
        assert snapshot.block(2).tuples == ((20,),)

    def test_block_lookup_out_of_range(self):
        snapshot = Snapshot([make_block(1, [])])
        with pytest.raises(IndexError):
            snapshot.block(2)
        with pytest.raises(IndexError):
            snapshot.block(0)

    def test_blocks_range(self):
        snapshot = Snapshot([make_block(i, [(i,)]) for i in range(1, 6)])
        ids = [b.block_id for b in snapshot.blocks(2, 4)]
        assert ids == [2, 3, 4]

    def test_blocks_range_validation(self):
        snapshot = Snapshot([make_block(1, [])])
        with pytest.raises(IndexError):
            snapshot.blocks(1, 2)

    def test_tuple_count(self):
        snapshot = Snapshot(
            [make_block(1, [(1,)] * 3), make_block(2, [(2,)] * 5)]
        )
        assert snapshot.tuple_count() == 8
        assert snapshot.tuple_count(2, 2) == 5
        assert snapshot.tuple_count(2, 1) == 0

