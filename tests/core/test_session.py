"""MiningSession: the checkpointable engine layer.

The load-bearing property is kill/restore equivalence: a session
checkpointed at block ``t`` and restored in a fresh process (simulated
by pickling the whole vault) must, after observing the remaining
blocks, hold models — including GEMM's collection of models and the
pattern miner's compact sequences — identical to a session that ran
uninterrupted.  Pickle bytes are not stable across set iteration
orders, so all comparisons are semantic.
"""

import pytest

from repro.core.blocks import make_block
from repro.core.bss import WindowIndependentBSS, WindowRelativeBSS
from repro.core.session import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    MiningSession,
    checkpoint_key,
)
from repro.core.windows import MostRecentWindow
from repro.deviation.focus import ItemsetDeviation
from repro.deviation.similarity import BlockSimilarity
from repro.itemsets.borders import BordersMaintainer
from repro.patterns.compact import CompactSequenceMiner
from repro.storage.engine import InMemoryBackend, MmapBackend
from repro.storage.persist import ModelVault, load_model, save_model
from repro.storage.telemetry import Telemetry
from tests.conftest import random_transactions, transaction_blocks

N_BLOCKS = 6
SPLIT = 3  # checkpoint after this many blocks


def stream(seed=4100):
    return transaction_blocks(N_BLOCKS, 120, seed=seed)


def itemset_session(**kwargs):
    return MiningSession(BordersMaintainer(0.05, counter="ecut"), **kwargs)


def pattern_session(**kwargs):
    miner = CompactSequenceMiner(
        BlockSimilarity(ItemsetDeviation(minsup=0.1, max_size=2), method="chi2")
    )
    return MiningSession(pattern_miner=miner, **kwargs)


def run_uninterrupted(make_session, blocks):
    session = make_session()
    for block in blocks:
        session.observe(block)
    return session


def kill_and_restore(make_session, blocks, split=SPLIT):
    """Checkpoint at ``split``, cross a simulated process boundary, resume."""
    session = make_session(vault=ModelVault())
    for block in blocks[:split]:
        session.observe(block)
    session.checkpoint()
    # A fresh process sees only the vault's serialized state.
    revived_vault = load_model(save_model(session.vault))
    restored = MiningSession.restore(revived_vault)
    for block in blocks[split:]:
        restored.observe(block)
    return restored


def assert_same_itemset_model(a, b):
    assert a.frequent == b.frequent
    assert a.border == b.border
    assert a.n_transactions == b.n_transactions
    assert a.selected_block_ids == b.selected_block_ids


class TestKillRestoreEquivalenceUW:
    def test_unrestricted_window(self):
        blocks = stream()
        truth = run_uninterrupted(itemset_session, blocks)
        restored = kill_and_restore(itemset_session, blocks)
        assert restored.t == truth.t == N_BLOCKS
        assert restored.current_selection() == truth.current_selection()
        assert_same_itemset_model(restored.current_model(), truth.current_model())

    def test_unrestricted_window_with_bss(self):
        bss = WindowIndependentBSS([1, 0, 1, 0, 1, 1])
        blocks = stream(seed=4200)

        def make(**kwargs):
            return itemset_session(bss=bss, **kwargs)

        truth = run_uninterrupted(make, blocks)
        restored = kill_and_restore(make, blocks)
        assert restored.current_selection() == [1, 3, 5, 6]
        assert_same_itemset_model(restored.current_model(), truth.current_model())


class TestKillRestoreEquivalenceMRW:
    def assert_same_gemm_collection(self, restored, truth):
        """Slot table and every distinct model (the §3.2.3 collection)."""
        a, b = restored.engine.state_dict(), truth.engine.state_dict()
        assert a["t"] == b["t"]
        assert a["slots"] == b["slots"]
        assert a["models"].keys() == b["models"].keys()
        for key in a["models"]:
            assert_same_itemset_model(
                load_model(a["models"][key]), load_model(b["models"][key])
            )

    def test_most_recent_window(self):
        blocks = stream(seed=4300)

        def make(**kwargs):
            return itemset_session(span=MostRecentWindow(3), **kwargs)

        truth = run_uninterrupted(make, blocks)
        restored = kill_and_restore(make, blocks)
        assert restored.current_selection() == [4, 5, 6]
        assert_same_itemset_model(restored.current_model(), truth.current_model())
        self.assert_same_gemm_collection(restored, truth)

    def test_most_recent_window_with_window_relative_bss(self):
        blocks = stream(seed=4400)

        def make(**kwargs):
            return itemset_session(
                span=MostRecentWindow(3), bss=WindowRelativeBSS([1, 0, 1]), **kwargs
            )

        truth = run_uninterrupted(make, blocks)
        restored = kill_and_restore(make, blocks)
        assert restored.current_selection() == truth.current_selection()
        assert_same_itemset_model(restored.current_model(), truth.current_model())
        self.assert_same_gemm_collection(restored, truth)

    def test_most_recent_window_with_window_independent_bss(self):
        bss = WindowIndependentBSS([1, 1, 0, 1, 1, 0])
        blocks = stream(seed=4500)

        def make(**kwargs):
            return itemset_session(span=MostRecentWindow(3), bss=bss, **kwargs)

        truth = run_uninterrupted(make, blocks)
        restored = kill_and_restore(make, blocks)
        assert restored.current_selection() == truth.current_selection()
        self.assert_same_gemm_collection(restored, truth)

    def test_checkpoint_survives_gemm_spills_in_a_shared_vault(self):
        """GEMM retires stale spilled models by deleting its own keys
        only, so a session checkpoint cohabiting the vault survives."""
        blocks = stream(seed=4600)
        session = itemset_session(span=MostRecentWindow(2), vault=ModelVault())
        for block in blocks[:SPLIT]:
            session.observe(block)
        session.checkpoint()
        for block in blocks[SPLIT:]:
            session.observe(block)  # more spills + stale-key deletions
        assert checkpoint_key("session") in session.vault


class TestKillRestoreEquivalencePatterns:
    def test_compact_sequences_survive(self):
        blocks = stream(seed=4700)
        truth = run_uninterrupted(pattern_session, blocks)
        restored = kill_and_restore(pattern_session, blocks)
        assert restored.t == truth.t
        assert [s.block_ids for s in restored.pattern_miner.sequences] == [
            s.block_ids for s in truth.pattern_miner.sequences
        ]
        assert [s.block_ids for s in restored.discovered_patterns()] == [
            s.block_ids for s in truth.discovered_patterns()
        ]

    def test_deviation_matrix_survives(self):
        blocks = stream(seed=4800)
        truth = run_uninterrupted(pattern_session, blocks)
        restored = kill_and_restore(pattern_session, blocks)
        a, b = restored.pattern_miner._matrix, truth.pattern_miner._matrix
        assert a.keys() == b.keys()
        assert all(a[key].similar == b[key].similar for key in a)


class TestSnapshotRestore:
    def test_snapshot_contents_survive(self):
        blocks = stream(seed=4900)

        def make(**kwargs):
            return itemset_session(keep_snapshot=True, **kwargs)

        restored = kill_and_restore(make, blocks)
        assert restored.snapshot is not None
        assert restored.snapshot.t == N_BLOCKS
        assert sorted(b.block_id for b in restored.snapshot) == list(
            range(1, N_BLOCKS + 1)
        )


class TestCheckpointErrors:
    def test_checkpoint_without_vault(self):
        session = itemset_session()
        with pytest.raises(CheckpointError, match="no vault"):
            session.checkpoint()

    def test_restore_missing_name(self):
        with pytest.raises(CheckpointError, match="no checkpoint named"):
            MiningSession.restore(ModelVault(), name="absent")

    def test_restore_rejects_unknown_format(self):
        vault = ModelVault()
        vault.put(checkpoint_key("session"), {"format": CHECKPOINT_FORMAT + 1})
        with pytest.raises(CheckpointError, match="format"):
            MiningSession.restore(vault)

    def test_unpicklable_bss_predicate_is_reported(self):
        bss = WindowIndependentBSS.from_predicate(lambda block_id: True)
        session = itemset_session(bss=bss)
        with pytest.raises(CheckpointError, match="cannot serialize"):
            session.checkpoint(ModelVault())

    def test_session_requires_an_objective(self):
        with pytest.raises(ValueError, match="at least one objective"):
            MiningSession()


class TestDetectionOnlySessions:
    def test_no_model_without_maintainer(self):
        session = pattern_session()
        assert session.current_selection() == []
        with pytest.raises(RuntimeError, match="no maintainer"):
            session.current_model()

    def test_t_tracks_the_miner(self):
        session = pattern_session()
        session.observe(make_block(1, [(1, 2)]))
        assert session.t == 1


class TestNamedCheckpoints:
    def test_two_named_sessions_share_one_vault(self):
        blocks = stream(seed=5000)
        vault = ModelVault()
        a = itemset_session(vault=vault, name="alpha")
        b = itemset_session(vault=vault, name="beta")
        a.observe(blocks[0])
        for block in blocks[:2]:
            b.observe(block)
        a.checkpoint()
        b.checkpoint()
        assert MiningSession.restore(vault, name="alpha").t == 1
        assert MiningSession.restore(vault, name="beta").t == 2


class TestSessionBackends:
    def test_ingest_streams_records_as_the_next_block(self):
        session = itemset_session(backend=InMemoryBackend())
        report = session.ingest(iter(random_transactions(50)))
        assert report.t == session.t == 1
        session.ingest(iter(random_transactions(50, seed=1)), label="B2")
        assert session.t == 2
        assert session.telemetry.counters["session.records"] == 100

    def test_backend_spec_lands_in_the_checkpoint(self, tmp_path):
        backend = MmapBackend(root=str(tmp_path), chunk_size=64)
        session = itemset_session(backend=backend)
        session.ingest(iter(random_transactions(30)))
        assert session.state_dict()["backend"] == {
            "kind": "mmap",
            "root": str(tmp_path),
            "chunk_size": 64,
        }

    def test_backend_registry_joins_the_telemetry_spine(self):
        session = itemset_session(backend=InMemoryBackend())
        report = session.ingest(iter(random_transactions(40)))
        io = report.telemetry.io
        assert "backend" in io
        assert io["backend"].totals().bytes_written > 0

    def test_restore_rebuilds_the_checkpointed_backend(self, tmp_path):
        blocks = stream(seed=5400)
        backend = MmapBackend(root=str(tmp_path))
        session = itemset_session(backend=backend, vault=ModelVault())
        for block in blocks[:SPLIT]:
            session.observe(backend.adopt(block))
        session.checkpoint()
        restored = MiningSession.restore(load_model(save_model(session.vault)))
        assert isinstance(restored.backend, MmapBackend)
        assert restored.backend.root == str(tmp_path)
        for block in blocks[SPLIT:]:
            restored.observe(restored.backend.adopt(block))
        truth = run_uninterrupted(itemset_session, blocks)
        assert_same_itemset_model(restored.current_model(), truth.current_model())

    def test_restore_accepts_a_backend_override(self):
        session = itemset_session(backend=InMemoryBackend(), vault=ModelVault())
        session.ingest(iter(random_transactions(30)))
        session.checkpoint()
        restored = MiningSession.restore(session.vault, backend="memory")
        assert isinstance(restored.backend, InMemoryBackend)

    def test_sessions_accept_backend_names(self):
        session = itemset_session(backend="memory")
        assert isinstance(session.backend, InMemoryBackend)


class TestTelemetryAcrossRestore:
    def test_totals_continue_by_default(self):
        blocks = stream(seed=5100)
        session = itemset_session(vault=ModelVault())
        for block in blocks[:SPLIT]:
            session.observe(block)
        session.checkpoint()
        restored = MiningSession.restore(session.vault)
        for block in blocks[SPLIT:]:
            restored.observe(block)
        snapshot = restored.telemetry.snapshot()
        assert snapshot.counter("session.blocks") == N_BLOCKS
        assert snapshot.counter("session.checkpoints") == 1
        assert snapshot.counter("session.restores") == 1
        assert snapshot.phase_calls("session.observe") == N_BLOCKS

    def test_explicit_spine_is_not_clobbered(self):
        blocks = stream(seed=5200)
        session = itemset_session(vault=ModelVault())
        for block in blocks[:SPLIT]:
            session.observe(block)
        session.checkpoint()
        spine = Telemetry()
        spine.increment("caller.marker", 42)
        restored = MiningSession.restore(session.vault, telemetry=spine)
        assert restored.telemetry is spine
        assert spine.counters["caller.marker"] == 42
        # The checkpointed per-block counters were not merged in.
        assert spine.counters.get("session.blocks") is None

    def test_observe_reports_a_per_block_delta(self):
        session = itemset_session()
        report = session.observe(stream(seed=5300)[0])
        assert report.telemetry is not None
        assert report.telemetry.counter("session.blocks") == 1
        assert report.telemetry.phase_calls("session.observe") == 1
        assert report.telemetry.phase_calls("borders.detection") == 1
        # BORDERS charges its block scan to the maintainer's registry,
        # which the session attached to the spine.
        assert report.telemetry.io_totals().bytes_read > 0


class TestLifecycleHygiene:
    """The fixes demonlint DML014/DML018 demanded, held by behavior."""

    def test_rejected_block_leaves_checkpoint_state_unchanged(self):
        # Exception atomicity (DML018): an out-of-order block raises,
        # and nothing of it may reach the checkpointed snapshot.
        session = itemset_session(keep_snapshot=True)
        blocks = stream(seed=5400)
        session.observe(blocks[0])
        before = session.state_dict()
        with pytest.raises(ValueError, match="systematic evolution"):
            session.observe(blocks[2])  # id 3 while expecting 2
        assert len(session.snapshot) == 1
        assert session.t == 1
        after = session.state_dict()
        # Telemetry legitimately recorded the failed phase; the data
        # the checkpoint round-trips must be untouched.
        assert after["snapshot"] == before["snapshot"]
        assert after["engine"] == before["engine"]

    def test_failed_restore_closes_the_backend_it_built(
        self, monkeypatch, tmp_path
    ):
        # Handle lifecycle (DML014): a restore that builds its own
        # backend from the checkpointed spec must close it when the
        # payload turns out to be corrupt.
        session = itemset_session(
            vault=ModelVault(), backend=MmapBackend(root=str(tmp_path / "bk"))
        )
        for block in stream(seed=5500)[:2]:
            session.observe(block)
        session.checkpoint()
        payload = session.vault.get(checkpoint_key("session"))
        payload["engine"]["state"] = {"corrupt": True}
        session.vault.put(checkpoint_key("session"), payload)
        closed: list[str] = []
        original_close = MmapBackend.close

        def recording_close(self):
            closed.append(self.root)
            original_close(self)

        monkeypatch.setattr(MmapBackend, "close", recording_close)
        with pytest.raises(Exception):
            MiningSession.restore(session.vault)
        assert closed, "restore left its self-built backend open"

    def test_failed_restore_leaves_a_caller_supplied_backend_open(
        self, tmp_path
    ):
        session = itemset_session(
            vault=ModelVault(), backend=MmapBackend(root=str(tmp_path / "bk"))
        )
        for block in stream(seed=5600)[:2]:
            session.observe(block)
        session.checkpoint()
        payload = session.vault.get(checkpoint_key("session"))
        payload["engine"]["state"] = {"corrupt": True}
        session.vault.put(checkpoint_key("session"), payload)
        mine = MmapBackend(root=str(tmp_path / "mine"))
        with pytest.raises(Exception):
            MiningSession.restore(session.vault, backend=mine)
        # The caller's handle is still theirs: ingest must still work.
        block = mine.ingest(1, [(1, 2), (3,)])
        assert block.num_records == 2
        mine.destroy()


def test_serial_itemset_session_setup_imports_no_pool_or_clustering():
    """An eager, serial BORDERS session is built without loading the
    executor machinery or the clustering package (set-up time)."""
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from repro.core.session import MiningSession\n"
        "from repro.core.windows import MostRecentWindow\n"
        "from repro.itemsets.borders import BordersMaintainer\n"
        "from repro.scheduling import EagerScheduler\n"
        "MiningSession(BordersMaintainer(0.05), span=MostRecentWindow(4),\n"
        "              workers=1, scheduler=EagerScheduler())\n"
        "loaded = [m for m in ('repro.clustering', 'concurrent.futures')\n"
        "          if m in sys.modules]\n"
        "print(','.join(loaded))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
        check=True,
    )
    assert result.stdout.strip() == ""
