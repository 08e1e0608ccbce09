"""Hot/cold block lifecycle on the tiered backend.

A cold block is the same block: identical records, identical chunk
boundaries, identical logical byte charges — only the resident form
changes (dense npy columns vs one compressed ``packed.bin``).  These
tests pin the lifecycle edges: demotion reclaims the dense files,
promotion rebuilds them byte-for-byte, repeated transitions are
idempotent, the DML014 seal survives the compressed handles, and the
worker shard protocol reopens cold blocks zero-copy via packed refs.
"""

import json
import os
import pickle

import pytest

from repro.contracts import (
    SanitizerViolation,
    arm_sanitizers,
    disarm_sanitizers,
)
from repro.core.blocks import records_nbytes
from repro.storage.engine import (
    PROMOTE_AFTER_READS,
    TIER_COLD,
    TIER_HOT,
    MmapBackend,
    TieredBackend,
    TieredBlockData,
    backend_from_spec,
    load_block_data,
)
from repro.storage.telemetry import Telemetry, bind_telemetry

TRANSACTIONS = [(1, 2, 3), (2,), (4, 5), (7,), (2, 3, 9)] * 8
POINTS = [(0.5, 1.5), (2.0, -1.0), (3.25, 0.0), (-4.5, 8.0)] * 8
DATASETS = {
    "transactions": TRANSACTIONS,
    "points": POINTS,
    "empty": [],
}


@pytest.fixture
def backend(tmp_path):
    bend = TieredBackend(root=str(tmp_path / "blocks"), chunk_size=4)
    yield bend
    bend.close()


def block_files(path):
    return sorted(
        name for name in os.listdir(path) if not name.startswith(".")
    )


def read_meta(path):
    with open(os.path.join(path, "meta.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestDemotePromote:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_cold_records_equal_hot_records(self, backend, name):
        records = DATASETS[name]
        block = backend.ingest(1, records)
        hot_chunks = [tuple(c) for c in block.iter_chunks(4)]
        assert backend.demote_block(1)
        assert block.data.tier == TIER_COLD
        cold_chunks = [tuple(c) for c in block.iter_chunks(4)]
        assert cold_chunks == hot_chunks
        assert block.materialize() == tuple(records)

    @pytest.mark.parametrize("name", [n for n in DATASETS if n != "empty"])
    def test_demotion_reclaims_the_dense_files(self, backend, name):
        block = backend.ingest(1, DATASETS[name])
        backend.demote_block(1)
        assert block_files(block.data.path) == ["meta.json", "packed.bin"]
        meta = read_meta(block.data.path)
        assert meta["tier"] == TIER_COLD
        assert meta["codec"]
        assert block.data.compressed_nbytes() == os.path.getsize(
            block.data.packed_path
        )

    @pytest.mark.parametrize("name", [n for n in DATASETS if n != "empty"])
    def test_promotion_rebuilds_byte_identical_dense_files(
        self, tmp_path, name
    ):
        records = DATASETS[name]
        tiered = TieredBackend(root=str(tmp_path / "tiered"), chunk_size=4)
        plain = MmapBackend(root=str(tmp_path / "plain"), chunk_size=4)
        cold = tiered.ingest(1, records)
        fresh = plain.ingest(1, records)
        tiered.demote_block(1)
        tiered.promote_block(1)
        assert cold.data.tier == TIER_HOT
        fresh_dir, cold_dir = fresh.data.path, cold.data.path
        assert block_files(cold_dir) == block_files(fresh_dir)
        for fname in block_files(fresh_dir):
            if fname == "meta.json":
                continue  # records its tier history
            with open(os.path.join(fresh_dir, fname), "rb") as a:
                with open(os.path.join(cold_dir, fname), "rb") as b:
                    assert a.read() == b.read(), fname
        tiered.close()
        plain.close()

    def test_transitions_are_idempotent(self, backend):
        block = backend.ingest(1, TRANSACTIONS)  # noqa: F841 — keeps the handle alive
        assert backend.demote_block(1)
        assert not backend.demote_block(1)  # already cold
        assert backend.promote_block(1)
        assert not backend.promote_block(1)  # already hot
        assert not backend.demote_block(99)  # unknown id

    def test_notify_expired_demotes_known_blocks(self, backend):
        blocks = [backend.ingest(1, TRANSACTIONS), backend.ingest(2, POINTS)]
        assert blocks
        assert backend.notify_expired([1, 2, 77]) == 2
        assert backend.tier_stats()["cold_blocks"] == 2

    def test_cold_reads_charge_like_hot_reads(self, backend):
        block = backend.ingest(1, TRANSACTIONS)
        before = backend.stats.bytes_read
        for chunk in block.iter_chunks(4):
            pass
        hot_delta = backend.stats.bytes_read - before
        backend.demote_block(1)
        before = backend.stats.bytes_read
        for chunk in block.iter_chunks(4):
            pass
        assert backend.stats.bytes_read - before == hot_delta
        assert hot_delta == records_nbytes(TRANSACTIONS)

    def test_repeated_cold_access_auto_promotes(self, backend):
        block = backend.ingest(1, TRANSACTIONS)
        backend.demote_block(1)
        for _ in range(PROMOTE_AFTER_READS):
            assert block.materialize() == tuple(TRANSACTIONS)
            assert block.data.tier == TIER_COLD
        block.materialize()  # one past the threshold
        assert block.data.tier == TIER_HOT

    def test_demotion_is_not_charged_to_io(self, backend):
        backend.ingest(1, TRANSACTIONS)
        stats = pickle.loads(pickle.dumps(backend.stats))
        backend.demote_block(1)
        backend.promote_block(1)
        assert backend.stats == stats


class TestTelemetryAndSpec:
    def test_tier_counters_flow_through_the_spine(self, backend):
        telemetry = Telemetry()
        bind_telemetry(backend, telemetry)
        block = backend.ingest(1, TRANSACTIONS)  # noqa: F841
        backend.demote_block(1)
        backend.promote_block(1)
        counters = telemetry.counters
        assert counters["storage.tier.demotions"] == 1
        assert counters["storage.tier.promotions"] == 1
        assert counters["storage.tier.compressed_bytes"] > 0
        assert counters["storage.tier.reclaimed_bytes"] > 0

    def test_tier_stats_track_placement(self, backend):
        blocks = [backend.ingest(1, TRANSACTIONS), backend.ingest(2, POINTS)]
        assert blocks
        backend.demote_block(1)
        stats = backend.tier_stats()
        assert stats["hot_blocks"] == 1
        assert stats["cold_blocks"] == 1
        assert stats["compressed_bytes"] > 0

    def test_spec_round_trip(self, backend):
        spec = backend.spec()
        assert spec["kind"] == "tiered"
        clone = backend_from_spec(spec)
        assert isinstance(clone, TieredBackend)
        assert clone.root == backend.root
        assert clone.spec() == spec

    def test_spill_codec_is_deflate(self, backend):
        assert backend.spill_codec == "deflate"


@pytest.fixture
def armed():
    arm_sanitizers()
    yield
    disarm_sanitizers()


class TestLifecycleSeals:
    def test_close_reopen_close_is_idempotent_when_cold(self, backend, armed):
        block = backend.ingest(1, TRANSACTIONS)
        backend.demote_block(1)
        backend.close()
        backend.close()  # double close is a no-op
        with pytest.raises(SanitizerViolation, match="DML014"):
            list(block.iter_chunks(4))
        backend.open()
        assert block.materialize() == tuple(TRANSACTIONS)
        backend.close()
        with pytest.raises(SanitizerViolation, match="DML014"):
            block.materialize()
        backend.open()

    def test_seal_survives_a_tier_transition(self, backend, armed):
        block = backend.ingest(1, TRANSACTIONS)
        backend.close()
        backend.open()
        backend.demote_block(1)
        backend.close()
        with pytest.raises(SanitizerViolation, match="DML014"):
            block.materialize()
        backend.open()
        backend.promote_block(1)
        assert block.materialize() == tuple(TRANSACTIONS)


class TestWorkerReopen:
    def test_load_block_data_reopens_cold_directories(self, backend):
        block = backend.ingest(1, TRANSACTIONS)
        backend.demote_block(1)
        reopened = load_block_data(block.data.path)
        assert isinstance(reopened, TieredBlockData)
        assert reopened.tier == TIER_COLD
        assert list(reopened.chunks(4))
        # No promoter is bound: a reopened handle never re-inflates
        # the parent's cold block no matter how often it is read.
        for _ in range(PROMOTE_AFTER_READS + 3):
            list(reopened.chunks(4))
        assert reopened.tier == TIER_COLD
        assert block.data.tier == TIER_COLD

    def test_block_refs_carry_the_tier(self, backend):
        from repro.parallel.shards import (
            REF_MMAP,
            REF_PACKED,
            block_ref,
            resolve_block,
        )

        hot = backend.ingest(1, TRANSACTIONS)
        cold = backend.ingest(2, TRANSACTIONS)
        backend.demote_block(2)
        assert block_ref(hot)[0] == REF_MMAP
        ref = block_ref(cold)
        assert ref[0] == REF_PACKED
        assert ref[5] == cold.data.codec
        resolved = resolve_block(ref)
        assert resolved.materialize() == cold.materialize()

    def test_packed_ref_codec_mismatch_rejected(self, backend):
        cold = backend.ingest(1, TRANSACTIONS)
        backend.demote_block(1)
        from repro.parallel.shards import block_ref, resolve_block

        ref = list(block_ref(cold))
        ref[5] = "raw"
        with pytest.raises(ValueError, match="codec"):
            resolve_block(ref)

    def test_packed_ref_to_hot_directory_rejected(self, backend):
        hot = backend.ingest(1, TRANSACTIONS)
        cold = backend.ingest(2, TRANSACTIONS)
        backend.demote_block(2)
        from repro.parallel.shards import block_ref, resolve_block

        ref = list(block_ref(cold))
        ref[4] = hot.data.path
        with pytest.raises(ValueError, match="cold"):
            resolve_block(ref)

    def test_mmap_ref_to_cold_directory_rejected(self, backend):
        block = backend.ingest(1, TRANSACTIONS)
        from repro.parallel.shards import REF_MMAP, block_ref, resolve_block

        ref = block_ref(block)
        assert ref[0] == REF_MMAP
        backend.demote_block(1)
        with pytest.raises(ValueError, match="cold"):
            resolve_block(ref)

    def test_chain_shard_over_mixed_tiers_matches_serial(self, backend):
        from repro.itemsets.borders import BordersMaintainer
        from repro.parallel.shards import (
            REF_MMAP,
            REF_PACKED,
            block_ref,
            maintain_chain_shard,
        )
        from repro.storage.persist import save_model

        hot = backend.ingest(1, TRANSACTIONS)
        cold = backend.ingest(2, [(1, 2), (2, 3), (1, 2, 3)] * 5)
        backend.demote_block(2)
        refs = (block_ref(hot), block_ref(cold))
        assert [ref[0] for ref in refs] == [REF_MMAP, REF_PACKED]
        serial = BordersMaintainer(0.25, counter="ecut")
        truth = serial.add_block(serial.build([hot]), cold)
        token = ("spec", serial.worker_payload())
        blob, _diagnostics = maintain_chain_shard(token, None, refs, ())
        assert blob == save_model(truth)
