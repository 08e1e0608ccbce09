"""Deferred maintenance across the session spine.

The load-bearing property: deferral changes *when* maintenance runs,
never *what* it computes.  A flush()-terminated scheduled session must
hold models byte-identical (within-process pickle bytes) to an eager
session fed the same stream — including across a kill/restore mid-
deferral, across the batched GEMM catch-up path, across worker-pool
fan-out, and on the tiered backend (whose expiry must never demote a
block still owing maintenance).
"""

import pytest

from repro.core.blocks import make_block
from repro.core.bss import WindowIndependentBSS, WindowRelativeBSS
from repro.core.session import MiningSession
from repro.core.windows import MostRecentWindow
from repro.deviation.focus import ItemsetDeviation
from repro.deviation.similarity import BlockSimilarity
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.borders import BordersMaintainer
from repro.patterns.compact import CompactSequenceMiner
from repro.scheduling import DeviationScheduler
from repro.storage.persist import ModelVault, load_model, save_model
from tests.conftest import random_transactions

N_BLOCKS = 8
DRIFT_AT = 5  # blocks 1..4 are stationary, 5..8 drift
KILL_AT = 4  # checkpoint here — mid-deferral under the drift stream


def drifting_blocks(n=N_BLOCKS, size=80):
    """A stream that is stationary, then visibly shifts distribution."""
    blocks = []
    for i in range(1, n + 1):
        if i < DRIFT_AT:
            records = random_transactions(size, seed=7)
        else:
            records = random_transactions(
                size, n_items=60, seed=900 + i, planted=((4, 5, 6), 0.6)
            )
        blocks.append(make_block(i, records))
    return blocks


def deviation_scheduler():
    return DeviationScheduler(threshold=0.9, max_pending=6)


SPANS = {
    "uw": dict(span=None, bss=None),
    "uw+wi": dict(span=None, bss=WindowIndependentBSS([1, 0, 1, 0, 1, 1, 0, 1])),
    "mrw": dict(span=MostRecentWindow(4), bss=None),
    "mrw+wi": dict(
        span=MostRecentWindow(4),
        bss=WindowIndependentBSS([1, 1, 0, 1, 1, 0, 1, 1]),
    ),
    "mrw+wr": dict(span=MostRecentWindow(4), bss=WindowRelativeBSS([1, 0, 1, 1])),
}


def session(scheduler, combo="mrw", **kwargs):
    return MiningSession(
        BordersMaintainer(0.05, counter="ecut"),
        scheduler=scheduler,
        **SPANS[combo],
        **kwargs,
    )


def run(make_session, blocks, flush=True):
    s = make_session()
    for block in blocks:
        s.observe(block)
    if flush:
        s.flush()
    return s


def logical_counters(s):
    """Scheduling-visible counters that must survive a kill/restore."""
    counters = s.telemetry.state_dict()["counters"]
    names = (
        "session.blocks",
        "session.records",
        "scheduler.deferred",
        "scheduler.triggered",
        "scheduler.staleness_flushes",
    )
    return {name: counters.get(name, 0) for name in names}


class TestFlushedEquivalence:
    @pytest.mark.parametrize("combo", sorted(SPANS))
    def test_scheduled_flush_matches_eager(self, combo):
        blocks = drifting_blocks()
        eager = run(lambda: session("eager", combo), blocks)
        scheduled = run(lambda: session(deviation_scheduler(), combo), blocks)
        assert scheduled.telemetry.state_dict()["counters"].get(
            "scheduler.deferred", 0
        ) > 0, "the stationary prefix must actually defer"
        assert scheduled.current_selection() == eager.current_selection()
        assert save_model(scheduled.current_model()) == save_model(
            eager.current_model()
        )

    def test_batched_gemm_catch_up_matches_per_block(self):
        """observe_run over the whole stream == eager observe per block,
        and every final slot holds the paper's definition: Apriori over
        exactly the blocks that slot selects."""
        blocks = drifting_blocks()
        eager = run(lambda: session("eager", "mrw"), blocks)
        batched = session("eager", "mrw")
        batched.engine.observe_run(blocks)
        a, b = batched.engine.state_dict(), eager.engine.state_dict()
        assert a["t"] == b["t"]
        assert a["slots"] == b["slots"]
        assert a["models"].keys() == b["models"].keys()
        for key in a["models"]:
            assert save_model(load_model(a["models"][key])) == save_model(
                load_model(b["models"][key])
            )
        minsup = batched.maintainer.minsup
        for k, selected in enumerate(a["slots"]):
            model = batched.engine.model_for_slot(k)
            assert model.selected_block_ids == selected
            truth = mine_blocks([blocks[i - 1] for i in selected], minsup)
            assert model.frequent == truth.frequent

    def test_batched_catch_up_skips_retired_intermediates(self):
        """The deferral saves real A_M invocations, not just wall time."""
        blocks = drifting_blocks()
        eager = run(lambda: session("eager", "mrw"), blocks)
        scheduled = run(lambda: session(deviation_scheduler(), "mrw"), blocks)

        def invocations(s):
            counters = s.telemetry.state_dict()["counters"]
            return counters.get("gemm.invocations.critical", 0) + counters.get(
                "gemm.invocations.offline", 0
            )

        assert invocations(scheduled) < invocations(eager)

    def test_parallel_scheduled_matches_serial_scheduled(self):
        blocks = drifting_blocks()
        serial = run(lambda: session(deviation_scheduler(), "mrw"), blocks)
        parallel = run(
            lambda: session(deviation_scheduler(), "mrw", workers=3), blocks
        )
        assert save_model(parallel.current_model()) == save_model(
            serial.current_model()
        )

    def test_tiered_backend_scheduled_matches_eager(self):
        blocks = drifting_blocks()
        eager = run(lambda: session("eager", "mrw", backend="tiered"), blocks)
        scheduled = run(
            lambda: session(deviation_scheduler(), "mrw", backend="tiered"),
            blocks,
        )
        assert save_model(scheduled.current_model()) == save_model(
            eager.current_model()
        )
        eager.backend.close()
        scheduled.backend.close()


class RecordingMiner(CompactSequenceMiner):
    """Records every block it accepts; can crash once on one block."""

    def __init__(self, fail_at=None):
        super().__init__(
            BlockSimilarity(
                ItemsetDeviation(minsup=0.1, max_size=2), method="chi2"
            )
        )
        self.fail_at = fail_at
        self.seen = []

    def observe(self, block):
        if block.block_id == self.fail_at:
            self.fail_at = None
            raise RuntimeError(f"miner crashed on block {block.block_id}")
        report = super().observe(block)
        self.seen.append(block.block_id)
        return report


class TestTwoEngineDrain:
    """GEMM plus a pattern miner drain through the same batched loop."""

    def two_engine_session(self, scheduler, miner):
        s = session(scheduler, "mrw", pattern_miner=miner)
        catch_up = s.engine.observe_run
        s.gemm_seen = []

        def spy(blocks):
            s.gemm_seen.extend(block.block_id for block in blocks)
            return catch_up(blocks)

        s.engine.observe_run = spy
        return s

    def invocations(self, s):
        counters = s.telemetry.state_dict()["counters"]
        return counters.get("gemm.invocations.critical", 0) + counters.get(
            "gemm.invocations.offline", 0
        )

    def test_flushed_two_engine_session_matches_eager(self):
        blocks = drifting_blocks()
        eager = run(
            lambda: self.two_engine_session("eager", RecordingMiner()), blocks
        )
        scheduled = run(
            lambda: self.two_engine_session(
                deviation_scheduler(), RecordingMiner()
            ),
            blocks,
        )
        assert scheduled.telemetry.state_dict()["counters"].get(
            "scheduler.deferred", 0
        ) > 0
        assert save_model(scheduled.current_model()) == save_model(
            eager.current_model()
        )
        assert save_model(scheduled.discovered_patterns()) == save_model(
            eager.discovered_patterns()
        )
        # The miner no longer forces a block-by-block GEMM replay.
        assert self.invocations(scheduled) < self.invocations(eager)

    def test_miner_crash_mid_catch_up_is_retryable(self):
        blocks = drifting_blocks()
        eager = run(
            lambda: self.two_engine_session("eager", RecordingMiner()), blocks
        )
        miner = RecordingMiner(fail_at=3)
        s = self.two_engine_session(deviation_scheduler(), miner)
        crashes = 0
        for block in blocks:
            try:
                s.observe(block)
            except RuntimeError:
                crashes += 1
                # GEMM caught up; the queue keeps what the miner lacks.
                assert s.engine.t == block.block_id
                assert miner.t == 2
                assert s.pending_maintenance == block.block_id - miner.t
        assert crashes == 1
        s.flush()
        assert s.pending_maintenance == 0
        ids = [block.block_id for block in blocks]
        assert s.gemm_seen == ids
        assert miner.seen == ids
        assert save_model(s.current_model()) == save_model(
            eager.current_model()
        )
        assert save_model(s.discovered_patterns()) == save_model(
            eager.discovered_patterns()
        )


class TestReadsFlushDeferredWork:
    def test_current_model_catches_up(self):
        blocks = drifting_blocks()[:DRIFT_AT - 1]
        s = session(deviation_scheduler(), "mrw")
        for block in blocks:
            s.observe(block)
        assert s.pending_maintenance > 0
        s.current_model()
        assert s.pending_maintenance == 0
        assert s.current_selection() == [1, 2, 3, 4]

    def test_discovered_patterns_catches_up(self):
        miner = CompactSequenceMiner(
            BlockSimilarity(
                ItemsetDeviation(minsup=0.1, max_size=2), method="chi2"
            )
        )
        s = MiningSession(pattern_miner=miner, scheduler=deviation_scheduler())
        for block in drifting_blocks()[:DRIFT_AT - 1]:
            s.observe(block)
        assert s.pending_maintenance > 0
        s.discovered_patterns()
        assert s.pending_maintenance == 0

    def test_out_of_order_block_is_rejected_before_ingest(self):
        s = session(deviation_scheduler(), "mrw")
        blocks = drifting_blocks()
        s.observe(blocks[0])
        s.observe(blocks[1])
        pending_before = s.pending_maintenance
        with pytest.raises(ValueError, match="systematic evolution"):
            s.observe(blocks[3])  # skips block 3
        assert s.pending_maintenance == pending_before
        assert s.t == 2


class TestExpiryOrdering:
    def test_deferred_blocks_are_never_demoted_before_maintenance(self):
        """MRW expiry is a maintenance side effect, not an ingest one:
        with the whole stream deferred past the window size, no block
        may reach the cold tier or lose its TID-lists until catch-up
        has replayed it."""
        streams = [list(block.iter_records()) for block in drifting_blocks()[:6]]
        s = session(
            DeviationScheduler(threshold=0.999999, max_pending=7),
            "mrw",
            backend="tiered",
        )
        estimator = s.scheduler.estimator

        # Keep every estimate below threshold so all six arrivals defer
        # (after block 1's warm-up) even across the drift point.
        class Never(type(estimator)):
            def estimate(self, reference, arrived):
                result = super().estimate(reference, arrived)
                return type(result)(result.value, 0.0, result.regions)

        s.scheduler.estimator = Never(**{
            key: value
            for key, value in estimator.spec().items()
            if key != "kind"
        })
        for records in streams:
            s.ingest(records)
        counters = s.telemetry.state_dict()["counters"]
        assert s.pending_maintenance == 5
        # An eager run has demoted blocks 1 and 2 by t=6; the deferring
        # run must demote nothing — every candidate is still pending.
        assert counters.get("storage.tier.demotions", 0) == 0
        # Only block 1 has been maintained (and so registered); it keeps
        # its TID-lists, and the pending blocks get theirs at catch-up.
        tidlists = s.maintainer.context.tidlists
        assert [b for b in range(1, 7) if tidlists.has_block(b)] == [1]
        s.flush()
        counters = s.telemetry.state_dict()["counters"]
        assert counters.get("storage.tier.demotions", 0) == 2  # blocks 1, 2
        # Exactly the two expired blocks were released.
        assert [b for b in range(1, 7) if not tidlists.has_block(b)] == [1, 2]

        eager = session("eager", "mrw", backend="tiered")
        for records in streams:
            eager.ingest(records)
        assert save_model(s.current_model()) == save_model(
            eager.current_model()
        )
        s.backend.close()
        eager.backend.close()


class TestKillRestoreMidDeferral:
    """Checkpointing does not flush; the pending queue survives the
    process boundary and catch-up after restore lands on the same
    bytes as a never-killed run."""

    def kill_and_restore(self, blocks, combo, backend=None):
        s = session(
            deviation_scheduler(), combo, vault=ModelVault(), backend=backend
        )
        for block in blocks[:KILL_AT]:
            s.observe(block)
        pending_at_kill = s.pending_maintenance
        s.checkpoint()
        assert s.pending_maintenance == pending_at_kill, (
            "checkpoint must not flush deferred maintenance"
        )
        revived_vault = load_model(save_model(s.vault))
        if backend is not None:
            s.backend.close()
        restored = MiningSession.restore(revived_vault)
        assert restored.pending_maintenance == pending_at_kill
        assert restored.scheduler.kind == "deviation"
        for block in blocks[KILL_AT:]:
            restored.observe(block)
        restored.flush()
        return restored, pending_at_kill

    @pytest.mark.parametrize("combo", sorted(SPANS))
    def test_restored_run_matches_uninterrupted_and_eager(self, combo):
        blocks = drifting_blocks()
        truth = run(lambda: session(deviation_scheduler(), combo), blocks)
        eager = run(lambda: session("eager", combo), blocks)
        restored, pending_at_kill = self.kill_and_restore(blocks, combo)
        assert pending_at_kill > 0, "the kill point must be mid-deferral"
        assert restored.t == truth.t == N_BLOCKS
        assert restored.current_selection() == truth.current_selection()
        assert save_model(restored.current_model()) == save_model(
            truth.current_model()
        )
        assert save_model(restored.current_model()) == save_model(
            eager.current_model()
        )
        assert logical_counters(restored) == logical_counters(truth)

    def test_restore_onto_the_tiered_backend(self):
        blocks = drifting_blocks()
        truth = run(
            lambda: session(deviation_scheduler(), "mrw", backend="tiered"),
            blocks,
        )
        restored, pending_at_kill = self.kill_and_restore(
            blocks, "mrw", backend="tiered"
        )
        assert pending_at_kill > 0
        assert save_model(restored.current_model()) == save_model(
            truth.current_model()
        )
        truth.backend.close()
        restored.backend.close()

    def test_scheduler_override_still_drains_the_pending_queue(self):
        blocks = drifting_blocks()
        s = session(deviation_scheduler(), "mrw", vault=ModelVault())
        for block in blocks[:KILL_AT]:
            s.observe(block)
        assert s.pending_maintenance > 0
        s.checkpoint()
        restored = MiningSession.restore(
            load_model(save_model(s.vault)), scheduler="eager"
        )
        assert restored.scheduler.kind == "eager"
        assert restored.pending_maintenance == s.pending_maintenance
        for block in blocks[KILL_AT:]:
            restored.observe(block)
        eager = run(lambda: session("eager", "mrw"), blocks)
        assert save_model(restored.current_model()) == save_model(
            eager.current_model()
        )
