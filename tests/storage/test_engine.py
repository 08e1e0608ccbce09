"""Unit tests for the pluggable block storage engine.

The contract under test: a :class:`Block` behaves identically whether
its records live in memory or in a memory-mapped columnar directory —
same records, same chunk boundaries, same logical byte accounting,
same pickle bytes.  The model-level half of that claim lives in
``test_backend_equivalence.py``; this file covers the storage layer
itself: schema inference, the on-disk layout, spec round-trips,
adoption, lifecycle, and the ambient environment toggle.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.core.blocks import (
    FALLBACK_CHUNK_SIZE,
    default_chunk_size,
    make_block,
    record_nbytes,
    records_nbytes,
)
from repro.storage.engine import (
    BLOCK_DIR_FORMAT,
    KIND_CSR,
    KIND_DENSE,
    BlockSchema,
    InMemoryBackend,
    MmapBackend,
    MmapBlockData,
    SchemaError,
    TieredBackend,
    ambient_backend,
    ambient_backend_name,
    backend_from_spec,
    infer_schema,
    load_block_data,
    resolve_backend,
)

TRANSACTIONS = [(1, 2, 3), (2,), (4, 5), (7,), (2, 3, 9)]
POINTS = [(0.5, 1.5), (2.0, -1.0), (3.25, 0.0), (-4.5, 8.0)]
LABELLED = [((0.5, 1.5), 0), ((2.0, -1.0), 1), ((3.25, 0.0), 0)]
DATASETS = {
    "transactions": TRANSACTIONS,
    "points": POINTS,
    "empty": [],
}


@pytest.fixture(params=["memory", "mmap"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryBackend()
    return MmapBackend(root=str(tmp_path / "blocks"))


class TestSchemaInference:
    def test_ragged_ints_are_csr(self):
        assert infer_schema(TRANSACTIONS) == BlockSchema(KIND_CSR)

    def test_fixed_width_floats_are_dense(self):
        assert infer_schema(POINTS) == BlockSchema(KIND_DENSE, width=2)

    def test_labelled_points_rejected(self):
        with pytest.raises(SchemaError, match="neither the csr"):
            infer_schema(LABELLED)

    def test_mixed_numeric_tuples_rejected(self):
        with pytest.raises(SchemaError):
            infer_schema([(1.0, 2.0), (1, 2)])
        with pytest.raises(SchemaError):
            infer_schema([(True, False)])  # bools are not bits

    def test_ragged_floats_rejected(self):
        with pytest.raises(SchemaError):
            infer_schema([(1.0,), (2.0, 3.0)])

    def test_empty_is_vacuously_csr(self):
        assert infer_schema([]) == BlockSchema(KIND_CSR)

    def test_schema_dict_round_trip(self):
        schema = BlockSchema(KIND_DENSE, width=5)
        assert BlockSchema.from_dict(schema.to_dict()) == schema


class TestRecordRoundTrip:
    @pytest.mark.parametrize("name", DATASETS)
    def test_materialize_equals_ingested_records(self, backend, name):
        block = backend.ingest(1, iter(DATASETS[name]))
        assert block.materialize() == tuple(DATASETS[name])
        assert list(block.iter_records()) == list(DATASETS[name])
        assert block.num_records == len(DATASETS[name])
        assert len(block) == len(DATASETS[name])

    @pytest.mark.parametrize("name", DATASETS)
    def test_chunk_boundaries_are_backend_independent(self, name, tmp_path):
        records = DATASETS[name]
        memory = InMemoryBackend().ingest(1, records)
        mmap = MmapBackend(root=str(tmp_path)).ingest(1, records)
        for size in (1, 2, 3, 100):
            a = [list(chunk) for chunk in memory.iter_chunks(size)]
            b = [list(chunk) for chunk in mmap.iter_chunks(size)]
            assert a == b
            assert all(len(chunk) <= size for chunk in a)

    def test_chunk_size_below_one_rejected(self, backend):
        block = backend.ingest(1, TRANSACTIONS)
        with pytest.raises(ValueError, match=">= 1"):
            next(iter(block.iter_chunks(0)))

    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("transactions", 4 * sum(len(t) for t in TRANSACTIONS)),
            ("points", 8 * 2 * len(POINTS)),
            ("empty", 0),
        ],
    )
    def test_logical_nbytes(self, backend, name, expected):
        assert backend.ingest(1, DATASETS[name]).nbytes == expected

    @pytest.mark.parametrize("name", DATASETS)
    def test_pickle_bytes_identical_across_backends(self, name, tmp_path):
        records = DATASETS[name]
        memory = InMemoryBackend().ingest(1, records, label="L")
        mmap = MmapBackend(root=str(tmp_path)).ingest(1, records, label="L")
        assert pickle.dumps(memory) == pickle.dumps(mmap)
        revived = pickle.loads(pickle.dumps(mmap))
        assert revived.materialize() == tuple(records)

    def test_as_array_on_dense_blocks(self, backend):
        arr = backend.ingest(1, POINTS).as_array(float)
        np.testing.assert_array_equal(arr, np.asarray(POINTS, dtype=float))


class TestByteAccountingParity:
    """Identical data must produce identical IOStats on either backend."""

    @pytest.mark.parametrize(
        "name", [n for n in DATASETS if n != "empty"]
    )
    def test_write_and_read_charges_match(self, name, tmp_path):
        records = DATASETS[name]
        memory = InMemoryBackend(chunk_size=2)
        mmap = MmapBackend(root=str(tmp_path), chunk_size=2)
        for bend in (memory, mmap):
            block = bend.ingest(1, records)
            for _chunk in block.iter_chunks(2):
                pass
            block.materialize()
        assert memory.stats == mmap.stats
        assert memory.stats.bytes_written == records_nbytes(records)
        # One write at ingest, one read per chunk, one read for the
        # materialize — all logical sizes.
        assert memory.stats.writes == 1
        assert memory.stats.bytes_read == 2 * records_nbytes(records)

    def test_ingest_charges_one_write_of_the_block_size(self, backend):
        backend.ingest(1, TRANSACTIONS)
        assert backend.stats.writes == 1
        assert backend.stats.bytes_written == records_nbytes(TRANSACTIONS)
        assert backend.stats.bytes_read == 0  # nothing consumed yet


class TestOnDiskLayout:
    def test_meta_json_describes_the_block(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path), chunk_size=2)
        block = backend.ingest(1, TRANSACTIONS)
        meta = json.loads(
            (tmp_path / os.path.basename(block.data.path) / "meta.json").read_text()
        )
        assert meta["format"] == BLOCK_DIR_FORMAT
        assert meta["schema"]["kind"] == KIND_CSR
        assert meta["num_records"] == len(TRANSACTIONS)
        assert meta["nbytes"] == records_nbytes(TRANSACTIONS)

    @pytest.mark.parametrize(
        "found",
        [
            None,
            BLOCK_DIR_FORMAT + 1,
            "1",
            # A schema kind other than csr/dense is a foreign layout too.
            pytest.param(("kind", "pickle"), id="kind-pickle"),
            pytest.param(("kind", "parquet"), id="kind-parquet"),
        ],
    )
    def test_block_dir_of_another_format_rejected(self, tmp_path, found):
        from repro.parallel.shards import block_ref, resolve_block

        backend = MmapBackend(root=str(tmp_path))
        block = backend.ingest(1, TRANSACTIONS)
        path = os.path.join(block.data.path, "meta.json")
        assert load_block_data(block.data.path).num_records == len(TRANSACTIONS)
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        field = "format"
        if isinstance(found, tuple):
            field, meta["schema"]["kind"] = found
        elif found is None:
            del meta["format"]
        else:
            meta["format"] = found
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        for reopen in (
            lambda: load_block_data(block.data.path),
            lambda: resolve_block(block_ref(block)),
        ):
            with pytest.raises(ValueError, match=field) as info:
                reopen()
            assert path in str(info.value)

    def test_layout_files_per_kind(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path), chunk_size=2)
        csr = backend.ingest(1, TRANSACTIONS)
        dense = backend.ingest(2, POINTS)
        assert sorted(os.listdir(csr.data.path)) == [
            "meta.json", "offsets.npy", "values.npy",
        ]
        assert sorted(os.listdir(dense.data.path)) == [
            "col_000.npy", "col_001.npy", "meta.json",
        ]

    @pytest.mark.parametrize("backend_cls", [MmapBackend, TieredBackend])
    def test_other_record_shapes_publish_nothing(self, tmp_path, backend_cls):
        backend = backend_cls(root=str(tmp_path), chunk_size=2)
        with pytest.raises(SchemaError, match="neither the csr"):
            backend.ingest(1, iter(LABELLED))
        assert os.listdir(tmp_path) == []
        assert backend.stats.writes == 0
        # The in-memory backend still stores any record shape.
        memory = InMemoryBackend().ingest(1, LABELLED)
        assert memory.materialize() == tuple(LABELLED)

    def test_schema_violation_mid_stream_raises(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path), chunk_size=2)
        # First chunk infers CSR; a float record later violates it.
        records = [(1, 2), (3,), (1.5, 2.5)]
        with pytest.raises(SchemaError, match="type-homogeneous"):
            backend.ingest(1, iter(records))
        assert os.listdir(tmp_path) == []

    def test_close_releases_arrays_and_iteration_reopens(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path))
        block = backend.ingest(1, POINTS)
        assert block.materialize() == tuple(POINTS)
        data = block.data
        assert isinstance(data, MmapBlockData)
        assert data._cache is not None
        backend.close()
        assert data._cache is None
        with pytest.raises(RuntimeError, match="closed"):
            backend.ingest(2, POINTS)
        # Reads lazily reopen the arrays even while ingest is closed.
        assert block.materialize() == tuple(POINTS)
        backend.open()
        assert backend.ingest(2, POINTS).num_records == len(POINTS)

    def test_context_manager_closes(self, tmp_path):
        with MmapBackend(root=str(tmp_path)) as backend:
            block = backend.ingest(1, TRANSACTIONS)
        with pytest.raises(RuntimeError, match="closed"):
            backend.ingest(2, TRANSACTIONS)
        assert block.materialize() == tuple(TRANSACTIONS)

    def test_destroy_removes_the_root(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path / "blocks"))
        backend.ingest(1, TRANSACTIONS)
        backend.destroy()
        assert not (tmp_path / "blocks").exists()


class TestSpecsAndAdoption:
    def test_spec_round_trip_shares_the_root_without_collisions(self, tmp_path):
        first = MmapBackend(root=str(tmp_path), chunk_size=3)
        a = first.ingest(1, TRANSACTIONS)
        rebuilt = backend_from_spec(first.spec())
        assert isinstance(rebuilt, MmapBackend)
        assert rebuilt.root == first.root
        assert rebuilt.chunk_size == 3
        b = rebuilt.ingest(2, POINTS)
        # The sequence scan starts past the existing block directories.
        assert a.data.path != b.data.path
        assert a.materialize() == tuple(TRANSACTIONS)
        assert b.materialize() == tuple(POINTS)

    def test_two_backends_on_one_root_keep_their_own_blocks(self, tmp_path):
        # A restored session rebuilds a second backend on the ambient
        # one's root; interleaved ingests must never claim the same
        # block directory, or one backend overwrites the other's data.
        backends = [MmapBackend(root=str(tmp_path)) for _ in range(2)]
        ingested = []
        for block_id in range(1, 4):
            for k, backend in enumerate(backends):
                records = [(100 * k + block_id, 1000 + j) for j in range(3)]
                ingested.append((backend.ingest(block_id, records), records))
        paths = [block.data.path for block, _ in ingested]
        assert len(set(paths)) == len(paths)
        for block, records in ingested:
            assert block.materialize() == tuple(records)

    def test_memory_spec_round_trip(self):
        spec = InMemoryBackend(chunk_size=7).spec()
        rebuilt = backend_from_spec(spec)
        assert isinstance(rebuilt, InMemoryBackend)
        assert rebuilt.chunk_size == 7

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown block backend kind"):
            backend_from_spec({"kind": "tape"})

    def test_adopt_is_idempotent_for_own_blocks(self, backend):
        block = backend.ingest(1, TRANSACTIONS)
        assert backend.adopt(block) is block
        assert backend.stats.writes == 1  # no re-ingest happened

    def test_adopt_rehomes_foreign_blocks(self, tmp_path):
        foreign = make_block(3, TRANSACTIONS, label="F", metadata={"k": 1})
        backend = MmapBackend(root=str(tmp_path))
        adopted = backend.adopt(foreign)
        assert adopted is not foreign
        assert isinstance(adopted.data, MmapBlockData)
        assert adopted.block_id == 3
        assert adopted.label == "F"
        assert adopted.metadata == {"k": 1}
        assert adopted.materialize() == tuple(TRANSACTIONS)


class TestResolution:
    def test_names(self):
        assert isinstance(resolve_backend("memory"), InMemoryBackend)
        assert isinstance(resolve_backend("mmap"), MmapBackend)

    def test_instances_pass_through(self):
        backend = InMemoryBackend()
        assert resolve_backend(backend) is backend

    def test_specs_resolve(self, tmp_path):
        backend = resolve_backend({"kind": "mmap", "root": str(tmp_path)})
        assert isinstance(backend, MmapBackend)
        assert backend.root == str(tmp_path)

    def test_unknown_name_and_type_rejected(self):
        with pytest.raises(ValueError, match="unknown block backend name"):
            resolve_backend("tape")
        with pytest.raises(TypeError, match="cannot resolve"):
            resolve_backend(42)

    def test_none_defers_to_the_ambient_default(self, monkeypatch):
        monkeypatch.delenv("DEMON_BLOCK_BACKEND", raising=False)
        assert resolve_backend(None) is None

    def test_ambient_memory_means_no_backend(self, monkeypatch):
        monkeypatch.setenv("DEMON_BLOCK_BACKEND", "memory")
        assert ambient_backend() is None

    def test_ambient_rejects_unknown_names(self, monkeypatch):
        monkeypatch.setenv("DEMON_BLOCK_BACKEND", "tape")
        with pytest.raises(ValueError, match="DEMON_BLOCK_BACKEND"):
            ambient_backend()

    def test_ambient_name_parses_without_side_effects(self, monkeypatch):
        monkeypatch.setenv("DEMON_BLOCK_BACKEND", "  Tiered ")
        assert ambient_backend_name() == "tiered"
        monkeypatch.setenv("DEMON_BLOCK_BACKEND", "memory")
        assert ambient_backend_name() is None
        monkeypatch.delenv("DEMON_BLOCK_BACKEND")
        assert ambient_backend_name() is None

    def test_ambient_name_rejects_unknown_names_at_parse_time(
        self, monkeypatch
    ):
        monkeypatch.setenv("DEMON_BLOCK_BACKEND", "tape")
        with pytest.raises(
            ValueError,
            match="DEMON_BLOCK_BACKEND must be 'memory', 'mmap', or "
            "'tiered', got 'tape'",
        ):
            ambient_backend_name()

    def test_ambient_mmap_is_shared_and_routes_make_block(self, monkeypatch):
        monkeypatch.setenv("DEMON_BLOCK_BACKEND", "mmap")
        first = ambient_backend()
        assert isinstance(first, MmapBackend)
        assert ambient_backend() is first  # one backend per process
        block = make_block(1, TRANSACTIONS)
        assert isinstance(block.data, MmapBlockData)
        assert block.materialize() == tuple(TRANSACTIONS)


class TestChunkSizeKnobs:
    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("DEMON_BLOCK_CHUNK", "7")
        assert default_chunk_size() == 7
        assert InMemoryBackend().resolved_chunk_size() == 7

    def test_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv("DEMON_BLOCK_CHUNK", raising=False)
        assert default_chunk_size() == FALLBACK_CHUNK_SIZE

    def test_explicit_chunk_size_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DEMON_BLOCK_CHUNK", "7")
        backend = MmapBackend(root=str(tmp_path), chunk_size=2)
        assert backend.resolved_chunk_size() == 2
        block = backend.ingest(1, TRANSACTIONS)
        assert [len(c) for c in block.iter_chunks()] == [2, 2, 1]

    def test_invalid_env_chunk_rejected(self, monkeypatch):
        monkeypatch.setenv("DEMON_BLOCK_CHUNK", "0")
        with pytest.raises(ValueError, match="DEMON_BLOCK_CHUNK"):
            default_chunk_size()

    @pytest.mark.parametrize("garbage", ["lots", "4.5", "0x10", "4k"])
    def test_non_integer_env_chunk_names_the_variable(
        self, monkeypatch, garbage
    ):
        monkeypatch.setenv("DEMON_BLOCK_CHUNK", garbage)
        with pytest.raises(
            ValueError, match="DEMON_BLOCK_CHUNK must be a positive integer"
        ):
            default_chunk_size()


class TestRecordNbytes:
    def test_int_tuples_cost_four_bytes_per_item(self):
        assert record_nbytes((1, 2, 3)) == 12

    def test_float_tuples_cost_eight_bytes_per_coordinate(self):
        assert record_nbytes((1.0, 2.0)) == 16

    def test_empty_record_is_free(self):
        assert record_nbytes(()) == 0

    def test_other_records_cost_their_pickled_size(self):
        labelled = ((1.0, 2.0), 3)
        assert record_nbytes(labelled) == len(
            pickle.dumps(labelled, protocol=pickle.HIGHEST_PROTOCOL)
        )
