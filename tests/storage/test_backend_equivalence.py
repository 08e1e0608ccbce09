"""Backend equivalence: models never see where their records live.

For every model class the reproduction maintains — frequent itemsets
(BORDERS over ECUT+), clusters (BIRCH+), decision trees, and FOCUS
deviation-driven pattern mining — a session fed the same record
streams must end in *byte-identical* model state whether the blocks
live on the in-memory backend or the memory-mapped columnar one, and
the telemetry spine must record the same phases and the same logical
counters.  Hypothesis drives the record streams so the property holds
for arbitrary data, not one fixture.

Phase *timings* are wall-clock and therefore not byte-stable; the
checkpoint comparison strips the telemetry and backend entries (the
backend spec legitimately differs — that is the point) and requires
everything else to pickle identically.
"""

import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.birch_plus import BirchPlusMaintainer
from repro.core.session import MiningSession
from repro.deviation.focus import ItemsetDeviation
from repro.deviation.similarity import BlockSimilarity
from repro.itemsets.borders import BordersMaintainer
from repro.patterns.compact import CompactSequenceMiner
from repro.core.windows import MostRecentWindow
from repro.storage.engine import InMemoryBackend, MmapBackend, TieredBackend
from repro.storage.persist import ModelVault, load_model, save_model
from repro.storage.telemetry import Telemetry
from repro.trees.maintain import (
    LeafRefinementTreeMaintainer,
    RebuildingTreeMaintainer,
)

SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- record-stream strategies ------------------------------------------

transactions = st.lists(
    st.lists(st.integers(0, 25), min_size=1, max_size=5).map(
        lambda items: tuple(sorted(set(items)))
    ),
    min_size=2,
    max_size=25,
)

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)

points = st.lists(
    st.tuples(coordinate, coordinate), min_size=2, max_size=25
)

labelled_points = st.lists(
    st.tuples(st.tuples(coordinate, coordinate), st.integers(0, 2)),
    min_size=2,
    max_size=25,
)


def streams(records):
    """2–4 consecutive block streams drawn from one record strategy."""
    return st.lists(records, min_size=2, max_size=4)


#: Telemetry families that are not comparable across backends/runs:
#: per-worker attribution is scheduling-dependent and tier traffic is
#: placement-dependent by construction.
SCRUBBED_PREFIXES = ("parallel.", "storage.tier.")


# -- harness ------------------------------------------------------------


def run_on(make_session, backend, block_streams):
    """Feed every stream through the session's ingest spine."""
    session = make_session(backend=backend)
    for records in block_streams:
        session.ingest(iter(records))
    return session


def scrub_wall_clock(obj, _seen=None):
    """Zero every ``*seconds`` dataclass field in an object graph.

    Wall-clock timings are the one part of a checkpoint that is not a
    function of the data; everything else must pickle identically.
    Per-worker ``parallel.*`` telemetry entries are dropped outright:
    worker-id attribution is scheduling-dependent, so under
    DEMON_WORKERS>1 their call counts (not just seconds) vary run to
    run.  ``storage.tier.*`` entries are dropped too: tier traffic is
    placement, which is exactly what must not influence anything else
    being compared here (only the tiered backend emits them).
    """
    seen = _seen if _seen is not None else set()
    if id(obj) in seen:
        return obj
    seen.add(id(obj))
    if isinstance(obj, Telemetry):
        for name in [n for n in obj.phases if n.startswith(SCRUBBED_PREFIXES)]:
            del obj.phases[name]
        for name in [n for n in obj.counters if n.startswith(SCRUBBED_PREFIXES)]:
            del obj.counters[name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if field.name.endswith("seconds") and isinstance(value, float):
                object.__setattr__(obj, field.name, 0.0)
            else:
                scrub_wall_clock(value, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            scrub_wall_clock(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            scrub_wall_clock(value, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            scrub_wall_clock(value, seen)
    return obj


def normalized_checkpoint(session):
    payload = session.state_dict()
    payload["telemetry"] = None  # wall-clock seconds are not byte-stable
    payload["backend"] = None  # the spec differs by construction
    if payload.get("scheduler") is not None:
        # The deviation scheduler checkpoints its running catch-up cost
        # model — wall-clock, like telemetry phase seconds.
        scheduler = dict(payload["scheduler"])
        scheduler.pop("mean_maintain_seconds", None)
        payload["scheduler"] = scheduler
    for key in ("maintainer", "pattern_miner", "snapshot"):
        if payload[key] is not None:
            payload[key] = save_model(scrub_wall_clock(load_model(payload[key])))
    return payload


def assert_sessions_equivalent(make_session, block_streams, tmp_dir):
    memory = run_on(make_session, InMemoryBackend(), block_streams)
    mmap = run_on(make_session, MmapBackend(root=str(tmp_dir / "mmap")), block_streams)
    tiered = run_on(
        make_session, TieredBackend(root=str(tmp_dir / "tiered")), block_streams
    )
    sessions = [memory, mmap, tiered]

    # Identical telemetry shape: same phases, same logical counters.
    # ``parallel.*`` entries are excluded: which worker processes which
    # shard is scheduling-dependent (and the suite may run under
    # DEMON_WORKERS>1 in CI), so per-worker attribution is not
    # comparable across runs.  ``storage.tier.*`` entries are excluded
    # because only the tiered backend emits them — tier traffic is
    # placement, the very thing the property quantifies over.
    def logical(state):
        phases = {
            name: calls
            for name, (_s, calls) in state["phases"].items()
            if not name.startswith(SCRUBBED_PREFIXES)
        }
        counters = {
            name: value
            for name, value in state["counters"].items()
            if not name.startswith(SCRUBBED_PREFIXES)
        }
        return phases, counters

    a_phases, a_counters = logical(memory.telemetry.state_dict())
    for other in sessions[1:]:
        b_phases, b_counters = logical(other.telemetry.state_dict())
        assert a_phases == b_phases
        assert a_counters == b_counters
    assert a_counters["session.records"] == sum(map(len, block_streams))

    # Identical logical I/O charged to the backend counter.
    mem_io = memory.backend.stats
    for other in sessions[1:]:
        assert mem_io == other.backend.stats
    assert mem_io.bytes_written > 0 or all(not s for s in block_streams)

    # Byte-identical model state and checkpoint payloads.  Every
    # artifact is derived exactly once per session: serializing a
    # checkpoint materializes blocks through the session's backend and
    # charges reads, so deriving one leg's payload twice would skew
    # its I/O counters relative to the other legs.
    if memory.maintainer is not None:
        models = [save_model(s.current_model()) for s in sessions]
        assert all(blob == models[0] for blob in models[1:])
    if memory.pattern_miner is not None:
        # The miner's deviation matrix records per-comparison seconds;
        # scrub clones so only wall-clock may differ.
        miners = [
            save_model(scrub_wall_clock(load_model(save_model(s.pattern_miner))))
            for s in sessions
        ]
        assert all(blob == miners[0] for blob in miners[1:])
    payloads = [pickle.dumps(normalized_checkpoint(s)) for s in sessions]
    assert all(blob == payloads[0] for blob in payloads[1:])


# -- the four model classes --------------------------------------------


def borders_session(**kwargs):
    return MiningSession(BordersMaintainer(0.25, counter="ecut"), **kwargs)


def birch_session(**kwargs):
    return MiningSession(BirchPlusMaintainer(k=2, threshold=2.0), **kwargs)


def leaf_tree_session(**kwargs):
    return MiningSession(LeafRefinementTreeMaintainer(max_depth=3), **kwargs)


def rebuild_tree_session(**kwargs):
    return MiningSession(RebuildingTreeMaintainer(max_depth=3), **kwargs)


def focus_session(**kwargs):
    miner = CompactSequenceMiner(
        BlockSimilarity(ItemsetDeviation(minsup=0.3, max_size=2), method="chi2")
    )
    return MiningSession(pattern_miner=miner, **kwargs)


def borders_mrw_session(**kwargs):
    """Borders under a w=2 most recent window: with 3+ blocks the
    session demotes expired blocks (tiered backend) and releases
    their TID-lists (every backend), so this factory exercises the
    expiry paths the unrestricted-window factories never reach."""
    return MiningSession(
        BordersMaintainer(0.25, counter="ecut"),
        span=MostRecentWindow(2),
        **kwargs,
    )


class TestModelEquivalence:
    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_borders_over_ecut(self, block_streams, tmp_path_factory):
        assert_sessions_equivalent(
            borders_session, block_streams, tmp_path_factory.mktemp("borders")
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(points))
    def test_birch_plus(self, block_streams, tmp_path_factory):
        assert_sessions_equivalent(
            birch_session, block_streams, tmp_path_factory.mktemp("birch")
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(labelled_points))
    def test_leaf_refinement_tree(self, block_streams, tmp_path_factory):
        assert_sessions_equivalent(
            leaf_tree_session, block_streams, tmp_path_factory.mktemp("leaf")
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(labelled_points))
    def test_rebuilding_tree(self, block_streams, tmp_path_factory):
        assert_sessions_equivalent(
            rebuild_tree_session, block_streams, tmp_path_factory.mktemp("tree")
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_focus_deviation_pattern_miner(self, block_streams, tmp_path_factory):
        assert_sessions_equivalent(
            focus_session, block_streams, tmp_path_factory.mktemp("focus")
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_borders_under_mrw_demotes_and_stays_equivalent(
        self, block_streams, tmp_path_factory
    ):
        """Demote-then-count: blocks slide out of the window, the
        tiered backend demotes them, and everything observable —
        models, logical I/O, checkpoints — still matches the other
        backends byte for byte."""
        assert_sessions_equivalent(
            borders_mrw_session, block_streams, tmp_path_factory.mktemp("mrw")
        )

    @settings(**SETTINGS)
    @given(block_streams=st.lists(transactions, min_size=3, max_size=5))
    def test_mrw_actually_demotes_on_tiered(self, block_streams, tmp_path_factory):
        root = tmp_path_factory.mktemp("demote")
        session = run_on(
            borders_mrw_session, TieredBackend(root=str(root)), block_streams
        )
        # Demotion rides with maintenance: under a deferring scheduler
        # the tail blocks are still pending here, so catch up first.
        session.flush()
        expected_cold = len(block_streams) - 2
        stats = session.backend.tier_stats()
        assert stats["cold_blocks"] == expected_cold
        assert session.telemetry.counters["storage.tier.demotions"] == expected_cold
        # The maintainer released the expired blocks' TID-lists in
        # lockstep and kept the window's.
        tidlists = session.maintainer.context.tidlists
        assert not any(
            tidlists.has_block(block_id) for block_id in range(1, expected_cold + 1)
        )
        assert all(
            tidlists.has_block(block_id)
            for block_id in range(expected_cold + 1, len(block_streams) + 1)
        )
        session.backend.close()


class TestCheckpointAcrossBackends:
    """Kill/restore equivalence crosses the backend boundary too."""

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_checkpoint_on_memory_restores_onto_mmap(
        self, block_streams, tmp_path_factory
    ):
        split = len(block_streams) // 2 or 1
        truth = run_on(borders_session, InMemoryBackend(), block_streams)

        session = borders_session(
            backend=InMemoryBackend(), vault=ModelVault(), keep_snapshot=True
        )
        for records in block_streams[:split]:
            session.ingest(iter(records))
        session.checkpoint()
        revived_vault = load_model(save_model(session.vault))
        restored = MiningSession.restore(
            revived_vault,
            backend=MmapBackend(root=str(tmp_path_factory.mktemp("restore"))),
        )
        for records in block_streams[split:]:
            restored.ingest(iter(records))

        assert restored.t == truth.t == len(block_streams)
        assert save_model(restored.current_model()) == save_model(
            truth.current_model()
        )
        # The retained snapshot was re-adopted onto the mmap backend and
        # still materializes the original records.
        assert restored.snapshot is not None
        for stream, block in zip(block_streams, restored.snapshot):
            assert block.materialize() == tuple(stream)

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_checkpoint_on_mmap_restores_onto_its_spec(
        self, block_streams, tmp_path_factory
    ):
        split = len(block_streams) // 2 or 1
        truth = run_on(borders_session, InMemoryBackend(), block_streams)

        root = tmp_path_factory.mktemp("mmap-src")
        session = borders_session(
            backend=MmapBackend(root=str(root)), vault=ModelVault()
        )
        for records in block_streams[:split]:
            session.ingest(iter(records))
        session.checkpoint()
        payload = session.vault.get(("demon-session", "session"))
        assert payload["backend"] == {
            "kind": "mmap",
            "root": str(root),
            "chunk_size": None,
        }

        revived_vault = load_model(save_model(session.vault))
        restored = MiningSession.restore(revived_vault)
        assert isinstance(restored.backend, MmapBackend)
        assert restored.backend.root == str(root)
        for records in block_streams[split:]:
            restored.ingest(iter(records))
        assert save_model(restored.current_model()) == save_model(
            truth.current_model()
        )

    @settings(**SETTINGS)
    @given(block_streams=st.lists(transactions, min_size=4, max_size=5))
    def test_demote_then_restore_round_trip(self, block_streams, tmp_path_factory):
        """Checkpoint a tiered MRW session after demotions, restore
        onto a fresh tiered backend, keep streaming: models track an
        uninterrupted in-memory run and the restored TID-list store
        holds only the window's blocks."""
        split = len(block_streams) - 1
        truth = run_on(borders_mrw_session, InMemoryBackend(), block_streams)

        session = borders_mrw_session(
            backend=TieredBackend(root=str(tmp_path_factory.mktemp("tier-src"))),
            vault=ModelVault(),
        )
        for records in block_streams[:split]:
            session.ingest(iter(records))
        # Demotion rides with maintenance — catch up any deferred
        # blocks so the tier stats below are scheduler-independent.
        session.flush()
        # w=2, so after `split` blocks the first `split - 2` are cold.
        assert session.backend.tier_stats()["cold_blocks"] == split - 2
        # The tiered backend lends its spill codec to the vault.
        assert session.vault.codec == "deflate"
        session.checkpoint()
        assert session.vault.stored_nbytes() <= session.vault.total_nbytes()

        revived_vault = load_model(save_model(session.vault))
        restored = MiningSession.restore(
            revived_vault,
            backend=TieredBackend(root=str(tmp_path_factory.mktemp("tier-dst"))),
        )
        tidlists = restored.maintainer.context.tidlists
        assert not any(tidlists.has_block(block_id) for block_id in range(1, split - 1))
        assert all(tidlists.has_block(block_id) for block_id in (split - 1, split))
        for records in block_streams[split:]:
            restored.ingest(iter(records))
        assert restored.t == truth.t == len(block_streams)
        assert save_model(restored.current_model()) == save_model(
            truth.current_model()
        )
        session.backend.close()
        restored.backend.close()
