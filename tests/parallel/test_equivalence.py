"""Serial/parallel equivalence: workers are an execution detail.

For every model class the reproduction maintains, a session fed the
same record streams must end in *byte-identical* model state whether it
ran fully serial (``workers=1``) or sharded across a 4-process pool —
the sharded paths merge by TID-list additivity and window-key
disjointness, never by approximation.  Hypothesis drives the streams so
the property holds for arbitrary data.

Three things legitimately differ between the runs and are normalized
away before comparison:

* wall-clock seconds (every ``*seconds`` field is zeroed);
* ``parallel.*`` telemetry entries — worker-id attribution is
  scheduling-dependent, and the serial run has none at all;
* I/O byte counters — worker-side reads stay in the workers (the
  envelope deliberately omits attached registries), so a parallel
  parent under-reports I/O relative to serial.

Everything else — models, window slots, TID-list stores, diagnostics —
must pickle identically.
"""

import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.birch_plus import BirchPlusMaintainer
from repro.core.bss import WindowRelativeBSS
from repro.core.session import MiningSession
from repro.core.windows import MostRecentWindow
from repro.itemsets.borders import BordersMaintainer
from repro.scheduling import DeviationScheduler
from repro.storage.engine import MmapBackend, TieredBackend
from repro.storage.iostats import IOStats
from repro.storage.persist import ModelVault, load_model, save_model
from repro.storage.telemetry import Telemetry
from repro.trees.maintain import (
    LeafRefinementTreeMaintainer,
    RebuildingTreeMaintainer,
)

WORKERS = (1, 4)

SETTINGS = dict(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- record-stream strategies (mirrors the backend-equivalence suite) --

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

points = st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=25)

labelled_points = st.lists(
    st.tuples(st.tuples(coordinate, coordinate), st.integers(0, 2)),
    min_size=2,
    max_size=25,
)


def streams(records):
    return st.lists(records, min_size=2, max_size=4)


# -- normalization ------------------------------------------------------


def scrub_execution(obj, _seen=None):
    """Strip execution residue from an object graph, in place.

    Zeroes every ``*seconds`` dataclass field and every
    :class:`IOStats` counter, and drops ``parallel.*`` and
    ``storage.tier.*`` entries from every :class:`Telemetry` — the
    signal families that encode *how* a run executed rather than
    *what* it computed (worker attribution is scheduling-dependent;
    tier promotions depend on which side of the pool touched a cold
    block).
    """
    seen = _seen if _seen is not None else set()
    if id(obj) in seen:
        return obj
    seen.add(id(obj))
    if isinstance(obj, Telemetry):
        scrubbed = ("parallel.", "storage.tier.")
        for name in [n for n in obj.phases if n.startswith(scrubbed)]:
            del obj.phases[name]
        for name in [n for n in obj.counters if n.startswith(scrubbed)]:
            del obj.counters[name]
        for stats in obj.phases.values():
            stats.seconds = 0.0
        scrub_execution(obj.io, seen)
        return obj
    if isinstance(obj, IOStats):
        obj.reset()
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if field.name.endswith("seconds") and isinstance(value, float):
                object.__setattr__(obj, field.name, 0.0)
            else:
                scrub_execution(value, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            scrub_execution(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            scrub_execution(value, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            scrub_execution(value, seen)
    return obj


def normalized_checkpoint(session):
    payload = session.state_dict()
    payload["telemetry"] = None  # wall-clock and worker attribution
    payload["backend"] = None  # distinct mmap roots by construction
    if payload.get("scheduler") is not None:
        # The deviation scheduler's catch-up-cost mean is wall-clock.
        scheduler = dict(payload["scheduler"])
        scheduler.pop("mean_maintain_seconds", None)
        payload["scheduler"] = scheduler
    for key in ("maintainer", "pattern_miner", "snapshot"):
        if payload[key] is not None:
            payload[key] = save_model(scrub_execution(load_model(payload[key])))
    return payload


def logical_counters(telemetry):
    return {
        name: value
        for name, value in telemetry.counters.items()
        if not name.startswith(("parallel.", "storage.tier."))
    }


def logical_phase_calls(telemetry):
    return {
        name: stats.calls
        for name, stats in telemetry.phases.items()
        if not name.startswith(("parallel.", "storage.tier."))
    }


# -- harness ------------------------------------------------------------


def run_session(
    make_session, workers, block_streams, tmp_dir, span=None,
    backend_cls=MmapBackend, bss=None,
):
    session = make_session(
        backend=backend_cls(root=str(tmp_dir)),
        workers=workers,
        span=span,
        bss=bss,
    )
    for records in block_streams:
        session.ingest(iter(records))
    return session


def assert_workers_equivalent(
    make_session, block_streams, tmp_path_factory, span=None,
    backend_cls=MmapBackend, bss=None,
):
    serial, parallel = (
        run_session(
            make_session,
            workers,
            block_streams,
            tmp_path_factory.mktemp(f"w{workers}"),
            span=span,
            backend_cls=backend_cls,
            bss=bss,
        )
        for workers in WORKERS
    )

    # Byte-identical model state.
    assert save_model(serial.current_model()) == save_model(
        parallel.current_model()
    )
    # Same logical work: merged worker telemetry reproduces the serial
    # counter totals and phase call counts exactly.
    assert logical_counters(serial.telemetry) == logical_counters(
        parallel.telemetry
    )
    assert logical_phase_calls(serial.telemetry) == logical_phase_calls(
        parallel.telemetry
    )
    # Checkpoint payloads equal up to execution residue.
    assert pickle.dumps(normalized_checkpoint(serial)) == pickle.dumps(
        normalized_checkpoint(parallel)
    )
    return serial, parallel


# -- the four model classes --------------------------------------------


def borders_ecut_session(**kwargs):
    return MiningSession(BordersMaintainer(0.25, counter="ecut"), **kwargs)


def borders_ecut_plus_session(**kwargs):
    return MiningSession(BordersMaintainer(0.25, counter="ecut+"), **kwargs)


def birch_session(**kwargs):
    return MiningSession(BirchPlusMaintainer(k=2, threshold=2.0), **kwargs)


def leaf_tree_session(**kwargs):
    return MiningSession(LeafRefinementTreeMaintainer(max_depth=3), **kwargs)


def rebuild_tree_session(**kwargs):
    return MiningSession(RebuildingTreeMaintainer(max_depth=3), **kwargs)


class TestSerialParallelEquivalence:
    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_borders_over_ecut(self, block_streams, tmp_path_factory):
        assert_workers_equivalent(
            borders_ecut_session, block_streams, tmp_path_factory
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_borders_over_ecut_plus_windowed(
        self, block_streams, tmp_path_factory
    ):
        # A most-recent window forces GEMM to keep w overlapping models
        # alive — the state the per-model fan-out actually shards.  The
        # window-relative BSS leaves the newest block out of the current
        # model, so its first A_M call is off-line: ECUT+ must key that
        # block's pair TID-lists on the same model in both runs.
        for bss in (None, WindowRelativeBSS([1, 0])):
            runs = assert_workers_equivalent(
                borders_ecut_plus_session,
                block_streams,
                tmp_path_factory,
                span=MostRecentWindow(2),
                bss=bss,
            )
            # Blocks that slid out of the window hold neither item nor
            # pair TID-lists in either run.
            for session in runs:
                context = session.maintainer.context
                expired = range(1, session.t - 1)
                assert not any(context.tidlists.has_block(b) for b in expired)
                assert not any(context.pairs.has_block(b) for b in expired)

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_borders_windowed_on_tiered_backend(
        self, block_streams, tmp_path_factory
    ):
        # Under MRW on the tiered backend every expired block is
        # demoted as the window slides, so the serial and sharded runs
        # both execute on a mix of hot and cold placements — byte
        # parity must survive the cold tier.
        assert_workers_equivalent(
            borders_ecut_session,
            block_streams,
            tmp_path_factory,
            span=MostRecentWindow(2),
            backend_cls=TieredBackend,
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(points))
    def test_birch_plus(self, block_streams, tmp_path_factory):
        assert_workers_equivalent(
            birch_session, block_streams, tmp_path_factory
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(labelled_points))
    def test_leaf_refinement_tree(self, block_streams, tmp_path_factory):
        assert_workers_equivalent(
            leaf_tree_session,
            block_streams,
            tmp_path_factory,
            span=MostRecentWindow(2),
        )

    @settings(**SETTINGS)
    @given(block_streams=streams(labelled_points))
    def test_rebuilding_tree(self, block_streams, tmp_path_factory):
        assert_workers_equivalent(
            rebuild_tree_session,
            block_streams,
            tmp_path_factory,
            span=MostRecentWindow(2),
        )


class TestDeferredCatchUp:
    def test_ecut_plus_window_relative_run(self, tmp_path_factory):
        # A deferred run under a window-relative BSS gives some blocks
        # their first A_M call inside an off-line chain, after earlier
        # steps of the run; ECUT+ must key each block's pair TID-lists
        # on the serial run's model, in the serial run's order.
        import random

        rng = random.Random(0)
        cycle = [
            [
                tuple(sorted(set(rng.choices(range(15), k=rng.randint(2, 6)))))
                for _ in range(100)
            ]
            for _ in range(3)
        ]
        # Three distinct blocks, repeated: the scheduler sees no drift
        # and defers up to its staleness bound.
        block_streams = [cycle[i % 3] for i in range(9)]

        def deferred_session(**kwargs):
            return borders_ecut_plus_session(
                scheduler=DeviationScheduler(threshold=0.999999, max_pending=3),
                **kwargs,
            )

        for bss in (WindowRelativeBSS([1, 1, 0]), WindowRelativeBSS([1, 0, 1])):
            serial, _ = assert_workers_equivalent(
                deferred_session,
                block_streams,
                tmp_path_factory,
                span=MostRecentWindow(3),
                bss=bss,
            )
            assert serial.telemetry.counters["scheduler.deferred"] > 0


class TestWorkAttribution:
    def test_windowed_run_dispatches_to_the_pool(self, tmp_path):
        # Deterministic, non-degenerate workload: a 3-window over five
        # blocks keeps multiple overlapping models alive, so every
        # observe fans maintenance out; the property tests above cannot
        # assert this because hypothesis may generate streams too small
        # to shard.
        import random

        rng = random.Random(0)
        session = borders_ecut_session(
            backend=MmapBackend(root=str(tmp_path)),
            workers=4,
            span=MostRecentWindow(3),
        )
        for _ in range(5):
            session.ingest(
                tuple(
                    sorted(set(rng.choices(range(20), k=rng.randint(2, 6))))
                )
                for _ in range(60)
            )
        counters = session.telemetry.counters
        assert counters.get("parallel.tasks", 0) > 0
        assert counters.get("parallel.models_maintained", 0) > 0
        # Attribution mirrors sum to the aggregate.
        attributed = sum(
            value
            for name, value in counters.items()
            if name.startswith("parallel.w") and name.endswith(".tasks")
        )
        assert attributed == counters["parallel.tasks"]


class TestRestoreFallsBackToSerial:
    """Worker sharding needs live block handles; restore drops them.

    After a kill/restore the TID-list store no longer holds source
    block references for pre-checkpoint blocks, so the sharded counting
    path must decline (returning to serial) rather than crash — and the
    final model must still match an uninterrupted serial run.
    """

    @settings(**SETTINGS)
    @given(block_streams=streams(transactions))
    def test_restore_with_workers_matches_serial_truth(
        self, block_streams, tmp_path_factory
    ):
        truth = run_session(
            borders_ecut_session,
            1,
            block_streams,
            tmp_path_factory.mktemp("truth"),
        )

        split = len(block_streams) // 2 or 1
        session = borders_ecut_session(
            backend=MmapBackend(root=str(tmp_path_factory.mktemp("src"))),
            workers=4,
            vault=ModelVault(),
        )
        for records in block_streams[:split]:
            session.ingest(iter(records))
        session.checkpoint()
        restored = MiningSession.restore(
            load_model(save_model(session.vault)), workers=4
        )
        for records in block_streams[split:]:
            restored.ingest(iter(records))

        assert restored.workers == 4
        assert save_model(restored.current_model()) == save_model(
            truth.current_model()
        )
