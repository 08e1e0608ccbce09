"""MiningSession — one checkpointable driver for DEMON's problem space.

Figure 11 enumerates DEMON's problem space as the cross product of the
data span dimension {unrestricted window, most recent window} and the
two objectives {model maintenance, pattern detection}.  A
:class:`MiningSession` owns one point (or row) of that space — the span
option, the block selection sequence, the incremental maintainer
``A_M``, and optionally the compact-sequence miner — plus the two
cross-cutting concerns the individual engines cannot provide alone:

* **a unified telemetry spine** — every subsystem the session drives
  (BORDERS detection/update, ECUT/ECUT+ counting, BIRCH+ rebuilds,
  GEMM critical/off-line updates, FOCUS deviation scans, pattern
  matrix growth) reports phases, counters, and I/O into one shared
  :class:`~repro.storage.telemetry.Telemetry`; and
* **checkpoint/restore** — :meth:`checkpoint` serializes the whole
  session (engine state including GEMM's collection of models,
  the pattern miner's deviation matrix and sequences, the optional
  snapshot, and telemetry totals) into a
  :class:`~repro.storage.persist.ModelVault`, and
  :meth:`MiningSession.restore` resumes mid-stream in a fresh process
  with models identical to an uninterrupted run.

The legacy :class:`~repro.core.monitor.DemonMonitor` is a thin facade
over this class.  The checkpoint format is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.core.blocks import Block, Snapshot, make_block
from repro.core.bss import WindowIndependentBSS, WindowRelativeBSS
from repro.core.gemm import GEMM, GEMMUpdateReport
from repro.core.maintainer import (
    IncrementalModelMaintainer,
    UnrestrictedWindowMaintainer,
)
from repro.core.windows import MostRecentWindow, UnrestrictedWindow
from repro.parallel.pool import WorkerPool, resolve_workers
from repro.scheduling.policy import MaintenanceScheduler, resolve_scheduler
from repro.storage.engine import BlockBackend, resolve_backend
from repro.storage.persist import register_vault_namespace
from repro.storage.telemetry import Telemetry, TelemetrySnapshot, bind_telemetry

if TYPE_CHECKING:
    from repro.patterns.compact import (
        CompactSequence,
        CompactSequenceMiner,
        PatternUpdateReport,
    )
    from repro.storage.persist import ModelVault

TModel = TypeVar("TModel")
T = TypeVar("T")

SpanOption = UnrestrictedWindow | MostRecentWindow
BSSOption = WindowIndependentBSS | WindowRelativeBSS | None

#: Version stamp of the checkpoint payload layout.
CHECKPOINT_FORMAT = 1

#: Vault-key namespace for session checkpoints; the full key is
#: ``(CHECKPOINT_NAMESPACE, session_name)``, which never collides with
#: GEMM's ``gemm-spill`` keys (DML011: all tenants of a shared vault
#: root their keys in a registered namespace).
CHECKPOINT_NAMESPACE = register_vault_namespace("demon-session")


class CheckpointError(RuntimeError):
    """A session checkpoint could not be written or restored."""


def checkpoint_key(name: str) -> tuple[str, str]:
    """The vault key a session of this name checkpoints under."""
    return (CHECKPOINT_NAMESPACE, name)


@dataclass
class MonitorReport:
    """What one :meth:`MiningSession.observe` call did.

    Attributes:
        t: Identifier of the block just added.
        model_updated: Whether the current model changed (a 0-bit in
            the BSS carries the model over unchanged, and a deferring
            scheduler leaves it untouched until catch-up).
        decision: The scheduler's verdict for this arrival (``"eager"``,
            ``"warmup"``, ``"deviation"``, ``"staleness"``, or
            ``"deferred"``).
        maintained: Blocks brought current by this arrival's catch-up
            (0 when maintenance was deferred; under an eager policy
            always at least 1).
        pending: Blocks still awaiting maintenance after this arrival.
        gemm: GEMM accounting when running under the MRW option: the
            report of this arrival's catch-up, one
            :meth:`~repro.core.gemm.GEMM.observe_run` over every block
            maintained (``None`` while deferred).
        patterns: Pattern-detection accounting when enabled.
        telemetry: This observation's slice of the unified spine —
            phase timings, counter events, and I/O deltas accumulated
            while processing this block.
    """

    t: int
    model_updated: bool = False
    decision: str = "eager"
    maintained: int = 0
    pending: int = 0
    gemm: GEMMUpdateReport | None = None
    patterns: PatternUpdateReport | None = None
    telemetry: TelemetrySnapshot | None = None


class MiningSession(Generic[TModel, T]):
    """One resumable mining-and-monitoring session (Figure 11 driver).

    Args:
        maintainer: The incremental model maintainer ``A_M``
            (e.g. :class:`~repro.itemsets.BordersMaintainer` or
            :class:`~repro.clustering.BirchPlusMaintainer`).  ``None``
            runs a detection-only session (pattern mining without
            model maintenance); at least one objective is required.
        span: Data span option; defaults to the unrestricted window.
        bss: Block selection sequence.  A window-relative BSS requires
            the MRW option (§2.3: the UW/MRW distinction is what makes
            window-relative sequences expressible at all).
        pattern_miner: Optional
            :class:`~repro.patterns.CompactSequenceMiner`; when given,
            every observed block also feeds pattern detection.
        keep_snapshot: Whether to retain all blocks in a
            :class:`~repro.core.blocks.Snapshot` (needed only when the
            caller wants to re-derive models or label datasets later).
        vault: Optional :class:`~repro.storage.persist.ModelVault`.
            Under the MRW option GEMM keeps only the current model in
            memory and spills the rest here (§3.2.3); it is also the
            default target of :meth:`checkpoint`.
        telemetry: The instrumentation spine; a private one is created
            when omitted, and every driven subsystem is rebound onto it.
        backend: Block storage backend the session ingests onto — a
            :class:`~repro.storage.engine.BlockBackend` instance, a
            name (``"memory"``/``"mmap"``), or a spec dict from
            :meth:`~repro.storage.engine.BlockBackend.spec`.  ``None``
            defers to the ambient ``DEMON_BLOCK_BACKEND`` toggle (plain
            in-memory blocks by default).  Checkpoints record the
            backend spec so :meth:`restore` resumes onto it.
        workers: Process count for sharded maintenance
            (:mod:`repro.parallel`).  ``None`` defers to the
            ``DEMON_WORKERS`` environment toggle (default 1 = fully
            serial).  More than one worker shards ECUT counting by
            block and GEMM's off-line updates by model; results are
            byte-identical to a serial run.  The setting is execution
            config, not state: checkpoints never record it, and
            :meth:`restore` takes its own ``workers``.
        scheduler: Maintenance scheduling policy — a
            :class:`~repro.scheduling.MaintenanceScheduler` instance, a
            name (``"eager"``/``"deviation"``), or a spec dict from
            :meth:`~repro.scheduling.MaintenanceScheduler.spec`.
            ``None`` defers to the ambient ``DEMON_SCHEDULER`` toggle
            (eager by default).  A deferring policy queues arriving
            blocks after the cheap ingest step and catches up — in
            arrival order, so a flushed session is byte-identical to an
            eager one — when drift or staleness demands it; checkpoints
            record the policy spec and its pending queue so
            :meth:`restore` resumes mid-deferral.
        name: Checkpoint name — sessions with distinct names can share
            one vault.
    """

    def __init__(
        self,
        maintainer: IncrementalModelMaintainer[TModel, T] | None = None,
        span: SpanOption | None = None,
        bss: BSSOption = None,
        pattern_miner: CompactSequenceMiner | None = None,
        keep_snapshot: bool = False,
        vault: ModelVault | None = None,
        telemetry: Telemetry | None = None,
        backend: BlockBackend | str | dict[str, Any] | None = None,
        workers: int | None = None,
        scheduler: MaintenanceScheduler | str | dict[str, Any] | None = None,
        name: str = "session",
    ) -> None:
        self.span: SpanOption = span if span is not None else UnrestrictedWindow()
        if isinstance(bss, WindowRelativeBSS) and not isinstance(
            self.span, MostRecentWindow
        ):
            raise ValueError(
                "a window-relative BSS is only meaningful under the most "
                "recent window option"
            )
        if maintainer is None and pattern_miner is None:
            raise ValueError(
                "a session needs at least one objective: a maintainer "
                "(model maintenance) or a pattern miner (detection)"
            )
        self.maintainer = maintainer
        self.bss = bss
        self.pattern_miner = pattern_miner
        self.snapshot: Snapshot[T] | None = Snapshot() if keep_snapshot else None
        self.vault = vault
        self.backend: BlockBackend | None = resolve_backend(backend)
        self.name = name
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.scheduler: MaintenanceScheduler = resolve_scheduler(scheduler)
        #: Ingested blocks still owed maintenance, in arrival order.
        self._pending: list[Block[T]] = []
        self.workers = resolve_workers(workers)
        self._pool: WorkerPool | None = (
            WorkerPool(self.workers, telemetry=self.telemetry)
            if self.workers > 1
            else None
        )

        self._engine: GEMM[TModel, T] | UnrestrictedWindowMaintainer[TModel, T] | None
        if maintainer is None:
            self._engine = None
        elif isinstance(self.span, MostRecentWindow):
            self._engine = GEMM(
                maintainer, self.span.w, bss=bss, vault=vault, name=f"{name}.gemm"
            )
        else:
            if isinstance(bss, WindowRelativeBSS):  # unreachable, guarded above
                raise AssertionError
            self._engine = UnrestrictedWindowMaintainer(maintainer, bss=bss)
        self._wire_telemetry()

    # ------------------------------------------------------------------
    # Telemetry wiring
    # ------------------------------------------------------------------

    def _wire_telemetry(self) -> None:
        """Rebind every driven subsystem onto the session's spine.

        Components default to private :class:`Telemetry` instances so
        they work standalone; the session makes them all report into
        one.  Subsystems that own an I/O registry (an itemset mining
        context, the vault) are attached so byte accounting flows too.
        """
        if self._engine is not None:
            bind_telemetry(self._engine, self.telemetry)
        if self.maintainer is not None:
            bind_telemetry(self.maintainer, self.telemetry)
            context = getattr(self.maintainer, "context", None)
            registry = getattr(context, "registry", None)
            if registry is not None:
                self.telemetry.attach_io("maintainer", registry)
        if self.pattern_miner is not None:
            bind_telemetry(self.pattern_miner, self.telemetry)
        bind_telemetry(self.scheduler, self.telemetry)
        if self.vault is not None:
            self.telemetry.attach_io("vault", self.vault.registry)
        if self.backend is not None:
            bind_telemetry(self.backend, self.telemetry)
            self.telemetry.attach_io("backend", self.backend.registry)
            # A backend that compresses its cold tier also lends its
            # byte codec to GEMM's vault spill, so disk-resident models
            # ride the same tiering discipline (§3.2.3).
            spill = getattr(self.backend, "spill_codec", None)
            if spill is not None and self.vault is not None:
                enable = getattr(self.vault, "enable_codec", None)
                if callable(enable):
                    enable(spill)
        if self._pool is not None:
            # Sharded execution rides the same wiring pass: GEMM fans
            # off-line updates out per model, and a poolable counter
            # (ECUT) shards count_batch by block.
            if isinstance(self._engine, GEMM):
                self._engine.bind_pool(self._pool)
            counter = getattr(self.maintainer, "counter", None)
            bind = getattr(counter, "bind_pool", None)
            if callable(bind):
                bind(self._pool)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def t(self) -> int:
        """Identifier of the latest *ingested* block.

        Under a deferring scheduler this runs ahead of the engines'
        clocks: ingested-but-unmaintained blocks count (the stream
        position is an ingest-side notion; the engines catch up).
        """
        if self._pending:
            return self._pending[-1].block_id
        if self._engine is not None:
            return self._engine.t
        if self.pattern_miner is not None:
            return self.pattern_miner.t
        return 0

    @property
    def pending_maintenance(self) -> int:
        """Ingested blocks still awaiting maintenance."""
        return len(self._pending)

    @property
    def engine(
        self,
    ) -> GEMM[TModel, T] | UnrestrictedWindowMaintainer[TModel, T] | None:
        """The span-specific maintenance engine (None when detection-only)."""
        return self._engine

    def current_model(self) -> TModel:
        """The model on the configured span w.r.t. the configured BSS.

        Reading the model is a synchronization point: any deferred
        maintenance runs first (:meth:`maintain`), so callers always
        see the model an eager session would show at this ``t``.
        """
        if self._engine is None:
            raise RuntimeError("session has no maintainer, so no model")
        self.maintain()
        if isinstance(self._engine, GEMM):
            return self._engine.current_model()
        return self._engine.model

    def current_selection(self) -> list[int]:
        """Identifiers of the blocks the current model is extracted from.

        Like :meth:`current_model`, a synchronization point: deferred
        maintenance runs first.
        """
        self.maintain()
        return self._live_selection()

    def _live_selection(self) -> list[int]:
        """The engine's selection as it stands, without catching up."""
        if self._engine is None:
            return []
        if isinstance(self._engine, GEMM):
            return sorted(self._engine.current_selection())
        return self._engine.selected_block_ids

    def observe(self, block: Block[T]) -> MonitorReport:
        """Feed the next arriving block through ingest and scheduling.

        The arrival always takes the cheap ingest path — snapshot
        extend and pending-queue append (the backend write happened in
        :meth:`ingest`, or the caller materialized the block) — and the
        configured scheduler then decides whether full maintenance runs
        now or is deferred.  An eager policy (the default) maintains on
        every arrival, matching the historical behavior exactly.
        """
        before = self.telemetry.snapshot()
        report = MonitorReport(t=block.block_id)
        with self.telemetry.phase("session.observe"):
            # Validate stream order before any state mutates: a
            # rejected block must not leave the session's checkpointed
            # state touched (exception atomicity, DML018).  Engines
            # re-validate on replay, but by then the block is already
            # ingested, so the gate has to sit here.
            expected = self.t + 1
            if block.block_id != expected:
                raise ValueError(
                    f"systematic evolution requires block id {expected}, "
                    f"got {block.block_id}"
                )
            selection_before = self._live_selection()
            decision = self.scheduler.decide(block, len(self._pending) + 1)
            with self.telemetry.phase("session.ingest"):
                if self.snapshot is not None:
                    self.snapshot.extend(block)
                self._pending.append(block)
            report.decision = decision.reason
            if decision.maintain:
                self.telemetry.increment("scheduler.triggered")
                if decision.reason == "staleness":
                    self.telemetry.increment("scheduler.staleness_flushes")
                report.maintained = self.maintain(report)
            else:
                self.telemetry.increment("scheduler.deferred")
            report.pending = len(self._pending)
            report.model_updated = self._live_selection() != selection_before
        self.telemetry.increment("session.blocks")
        # Record count comes from backend metadata — no materialization.
        self.telemetry.increment("session.records", block.num_records)
        report.telemetry = self.telemetry.delta_since(before)
        return report

    def maintain(self, report: MonitorReport | None = None) -> int:
        """Run all deferred maintenance now; returns blocks caught up.

        Replays the pending queue in arrival order through every
        configured engine, so the resulting models are byte-identical
        to an eager session's at the same ``t``.  A no-op (returning 0)
        when nothing is pending — reads may call it unconditionally.
        """
        if not self._pending:
            return 0
        with self.telemetry.phase("session.maintain") as span:
            maintained = self._drain_pending(report)
        self.scheduler.notify_maintained(self.t, maintained, span.seconds)
        return maintained

    def flush(self) -> int:
        """End-of-stream barrier: alias of :meth:`maintain`."""
        return self.maintain()

    def _drain_pending(self, report: MonitorReport | None) -> int:
        """Catch the engines up over the pending run, in order.

        Each engine's own clock is its cursor into the run: GEMM
        catches up with one :meth:`~repro.core.gemm.GEMM.observe_run`
        over the blocks past its clock (which skips the retired
        intermediate models a block-by-block replay would build), and
        the UW driver and the pattern miner replay the blocks past
        theirs.  A block leaves the queue once every engine's clock has
        passed it, so a failed catch-up keeps exactly the unprocessed
        tail pending and a retry feeds no engine a block twice.  Expiry
        bookkeeping runs *after* the run — a block still owed
        maintenance is never tiered down under it.
        """
        run = list(self._pending)
        try:
            if isinstance(self._engine, GEMM):
                t = self._engine.t
                behind = [block for block in run if block.block_id > t]
                if behind:
                    gemm_report = self._engine.observe_run(behind)
                    if report is not None:
                        report.gemm = gemm_report
            elif self._engine is not None:
                for block in run:
                    if block.block_id > self._engine.t:
                        self._engine.observe(block)
            if self.pattern_miner is not None:
                for block in run:
                    if block.block_id > self.pattern_miner.t:
                        patterns = self.pattern_miner.observe(block)
                        if report is not None:
                            report.patterns = patterns
        finally:
            clocks = [
                engine.t
                for engine in (self._engine, self.pattern_miner)
                if engine is not None
            ]
            done = min(clocks)
            maintained = [block for block in run if block.block_id <= done]
            # Deliberate partial drain: the remaining queue is exactly
            # the blocks some engine has not accepted yet — a
            # consistent, retryable checkpoint state.
            del self._pending[: len(maintained)]
            for block in maintained:
                self._expire_cold(block.block_id)
        return len(maintained)

    def _expire_cold(self, block_id: int) -> None:
        """Release the block that just slid out of an MRW window.

        Under the most recent window option block ``block_id - w`` can
        no longer enter any selection, so the backend is notified (the
        tiered backend demotes the block's dense columns to its
        compressed tier, keeping the records readable for retained
        snapshots; the base-class default is a no-op) and the maintainer
        releases whatever it built for the block (BORDERS drops its
        TID-lists and pair lists).

        Called for each block once every engine has accepted it, so a
        deferring scheduler can never release a block it still owes
        maintenance on.
        """
        if not isinstance(self.span, MostRecentWindow):
            return
        expired = block_id - self.span.w
        if expired < 1:
            return
        if self.backend is not None:
            self.backend.notify_expired([expired])
        if self.maintainer is not None:
            self.maintainer.release_block(expired)

    def ingest(
        self,
        records: Any,
        label: str = "",
        metadata: dict[str, Any] | None = None,
    ) -> MonitorReport:
        """Stream arriving records in as block ``t + 1`` and observe it.

        This is the streaming ingest spine: the record iterable is
        consumed exactly once, straight into the session's configured
        backend (or into a plain in-memory block when no backend is
        set), and the resulting handle is fed to :meth:`observe`.
        """
        before = self.telemetry.snapshot()
        block_id = self.t + 1
        if self.backend is not None:
            block: Block[T] = self.backend.ingest(
                block_id, records, label=label, metadata=metadata
            )
        else:
            block = make_block(block_id, records, label=label, metadata=metadata)
        report = self.observe(block)
        # The report's delta covers the whole arrival — the backend
        # write charged by ingest as well as the observation.
        report.telemetry = self.telemetry.delta_since(before)
        return report

    def discovered_patterns(self, min_length: int = 2) -> list[CompactSequence]:
        """Compact sequences found so far (empty without a miner).

        A synchronization point: deferred maintenance runs first so the
        miner has seen every ingested block.
        """
        if self.pattern_miner is None:
            return []
        self.maintain()
        return self.pattern_miner.distinct_sequences(min_length=min_length)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The self-contained checkpoint payload for this session.

        It embeds the maintainer (with its storage context — the
        reproduction's stand-in for durable block storage), the
        engine's full collection of models, the pattern miner
        (deviation matrix and sequences), the optional snapshot, the
        scheduler state with its pending (ingested but not yet
        maintained) blocks, and the telemetry totals.

        Checkpointing does *not* flush deferred maintenance — a killed
        scheduled session restores with its pending queue intact and
        catches up on the next trigger or read.
        """
        from repro.storage.persist import save_model

        engine_kind = "none"
        engine_state: dict[str, Any] | None = None
        if isinstance(self._engine, GEMM):
            engine_kind = "gemm"
            engine_state = self._engine.state_dict()
        elif isinstance(self._engine, UnrestrictedWindowMaintainer):
            engine_kind = "uw"
            engine_state = self._engine.state_dict()
        return {
            "format": CHECKPOINT_FORMAT,
            "name": self.name,
            "span": self.span,
            "bss": self.bss,
            "maintainer": (
                save_model(self.maintainer)
                if self.maintainer is not None
                else None
            ),
            "engine": {"kind": engine_kind, "state": engine_state},
            "pattern_miner": (
                save_model(self.pattern_miner)
                if self.pattern_miner is not None
                else None
            ),
            "snapshot": (
                save_model(self.snapshot) if self.snapshot is not None else None
            ),
            "backend": (
                self.backend.spec() if self.backend is not None else None
            ),
            "scheduler": self.scheduler.state_dict(),
            "pending": [save_model(block) for block in self._pending],
            "telemetry": self.telemetry.state_dict(),
        }

    def load_state_dict(
        self, state: dict[str, Any], *, restore_telemetry: bool = True
    ) -> None:
        """Apply the mutable parts of a checkpoint payload.

        The constructor-shaped parts (span, BSS, maintainer, miner) are
        consumed by :meth:`restore`, which builds the session first;
        this method restores what accumulates during a run: the
        snapshot, the engine state (GEMM's collection of models), and —
        unless the caller supplied their own spine — telemetry totals.
        """
        from repro.storage.persist import load_model

        if state["snapshot"] is not None:
            self.snapshot = load_model(state["snapshot"])
            if self.backend is not None:
                # Checkpointed blocks deserialize onto in-memory data;
                # re-home them so the restored snapshot lives on the
                # same backend the session runs on.
                adopted: Snapshot[T] = Snapshot()
                for block in self.snapshot:
                    adopted.extend(self.backend.adopt(block))
                self.snapshot = adopted
        engine_state = state["engine"]["state"]
        if self._engine is not None and engine_state is not None:
            self._engine.load_state_dict(engine_state)
            # load_state_dict drops any live pool handle (checkpoints
            # never carry one); a parallel session rebinds its own.
            if self._pool is not None and isinstance(self._engine, GEMM):
                self._engine.bind_pool(self._pool)
        # Scheduler state transfers only between schedulers of the same
        # kind: restoring an eager session onto a deviation scheduler
        # (or vice versa) starts the new policy from scratch, but the
        # pending queue below is policy-independent and always carries.
        scheduler_state = state.get("scheduler")
        if scheduler_state is not None:
            spec = scheduler_state.get("spec") or {}
            if spec.get("kind") == self.scheduler.kind:
                self.scheduler.load_state_dict(scheduler_state)
        self._pending = []
        by_id: dict[int, Block[T]] = {}
        if self.snapshot is not None:
            by_id = {block.block_id: block for block in self.snapshot}
        for blob in state.get("pending") or []:
            pending_block: Block[T] = load_model(blob)
            if pending_block.block_id in by_id:
                # The snapshot adoption above already re-homed this
                # block onto the live backend; reuse that handle.
                pending_block = by_id[pending_block.block_id]
            elif self.backend is not None:
                pending_block = self.backend.adopt(pending_block)
            self._pending.append(pending_block)
        if restore_telemetry:
            self.telemetry.load_state_dict(state["telemetry"])

    def checkpoint(self, vault: ModelVault | None = None) -> int:
        """Persist the whole session into a vault; returns bytes written.

        BSS predicates must be picklable — bit-based sequences always
        are; ad-hoc lambda predicates are not and raise
        :class:`CheckpointError`.
        """
        target = vault if vault is not None else self.vault
        if target is None:
            raise CheckpointError(
                "no vault to checkpoint into: construct the session with "
                "vault=... or pass one to checkpoint()"
            )
        with self.telemetry.phase("session.checkpoint"):
            # Counted before the totals are serialized so a restored
            # session knows how many checkpoints produced it.
            self.telemetry.increment("session.checkpoints")
            payload = self.state_dict()
            try:
                nbytes = target.put(checkpoint_key(self.name), payload)
            except CheckpointError:
                raise
            except Exception as exc:
                raise CheckpointError(
                    f"cannot serialize session {self.name!r}: {exc}"
                ) from exc
        return nbytes

    @classmethod
    def restore(
        cls,
        vault: ModelVault,
        name: str = "session",
        telemetry: Telemetry | None = None,
        backend: BlockBackend | str | dict[str, Any] | None = None,
        workers: int | None = None,
        scheduler: MaintenanceScheduler | str | dict[str, Any] | None = None,
    ) -> "MiningSession[Any, Any]":
        """Rebuild a session from its checkpoint and resume mid-stream.

        The restored session continues exactly where the checkpointed
        one stopped: the next :meth:`observe` must receive block
        ``t + 1``, and the models it produces equal those of an
        uninterrupted run (the kill/restore equivalence tests assert
        this for every engine and BSS combination).

        The checkpoint records which block backend the session ran on;
        by default the session is restored onto a backend rebuilt from
        that spec (and any retained snapshot is re-adopted onto it).
        Pass ``backend=...`` to restore onto a different one.

        ``workers`` is execution config and is never checkpointed:
        the restored session uses the value given here (or the
        ``DEMON_WORKERS`` ambient default).

        The maintenance scheduler *is* checkpointed: by default the
        session restores the same scheduling policy (and its drift
        references) the checkpointed run used, along with any blocks
        ingested but not yet maintained.  Pass ``scheduler=...`` to
        switch policy on restore — the pending queue still carries
        over, so no maintenance is ever lost.
        """
        key = checkpoint_key(name)
        if key not in vault:
            raise CheckpointError(
                f"vault holds no checkpoint named {name!r} "
                f"(keys: {sorted(map(repr, vault.keys()))})"
            )
        from repro.storage.persist import load_model

        payload = vault.get(key)
        fmt = payload.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {name!r} has format {fmt!r}; "
                f"this build reads format {CHECKPOINT_FORMAT}"
            )
        maintainer = (
            load_model(payload["maintainer"])
            if payload["maintainer"] is not None
            else None
        )
        pattern_miner = (
            load_model(payload["pattern_miner"])
            if payload["pattern_miner"] is not None
            else None
        )
        if backend is None:
            # Format-1 checkpoints written before backends existed have
            # no "backend" entry; they restore onto the ambient default.
            backend = payload.get("backend")
        if scheduler is None:
            # Likewise pre-scheduler checkpoints carry no "scheduler"
            # entry and restore onto the ambient default policy.
            scheduler_state = payload.get("scheduler")
            if scheduler_state is not None:
                scheduler = scheduler_state.get("spec")
        owns_backend = not isinstance(backend, BlockBackend)
        session: MiningSession[Any, Any] = cls(
            maintainer=maintainer,
            span=payload["span"],
            bss=payload["bss"],
            pattern_miner=pattern_miner,
            vault=vault,
            telemetry=telemetry,
            backend=backend,
            workers=workers,
            scheduler=scheduler,
            name=name,
        )
        try:
            with session.telemetry.phase("session.restore"):
                # Continue checkpointed telemetry totals only on a fresh
                # spine (an explicitly supplied spine is left untouched).
                session.load_state_dict(
                    payload, restore_telemetry=telemetry is None
                )
        except BaseException:
            # A corrupt payload must not leak the backend this restore
            # built from the checkpoint spec (an mmap backend holds a
            # temp directory until closed).  Caller-owned backends are
            # left alone.
            if owns_backend and session.backend is not None:
                session.backend.close()
            raise
        session.telemetry.increment("session.restores")
        return session
