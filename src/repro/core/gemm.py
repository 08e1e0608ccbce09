"""GEMM — the GEneric Model Maintainer for the most recent window (§3.2).

GEMM turns any unrestricted-window incremental maintainer ``A_M`` into a
most-recent-window maintainer under either kind of block selection
sequence.  The idea (Algorithm 3.1): the window ``D[t-w+1, t]`` of size
``w`` evolves in ``w`` steps, so alongside the *current* model GEMM
keeps one model for the overlapping prefix of each of the ``w - 1``
*future* windows.  When block ``D_{t+1}`` arrives:

* every kept model is extended with the new block if its (projected or
  right-shifted) BSS selects it, otherwise it carries over unchanged;
* the model that covered the full old window is retired;
* a fresh model covering only ``D_{t+1}`` joins as the prefix of the
  farthest future window.

Blocks arrive one at a time or, under a deferring maintenance
scheduler, as a run.  Either way there is one update path: a run is
planned slide by slide, and only the models the final slot table holds
are realized (:meth:`GEMM.observe_run`); one arrival is a run of one
block (:meth:`GEMM.observe`).  The only *time-critical* update is the
one that yields the new current model — the rest can happen off-line
(§3.2.3) — so every report says which ``A_M`` invocations were on the
critical path and which were off-line.

Deduplication: models whose effective selected-block sets coincide are
stored once (the paper notes the actual number of distinct models may
be less than ``w``).  GEMM keys its slot table by the frozen set of
selected global block identifiers, cloning only when two slots that
shared a model diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Container, Generic, Sequence, TypeVar, cast

from repro.core.blocks import Block
from repro.core.bss import WindowIndependentBSS, WindowRelativeBSS
from repro.core.maintainer import IncrementalModelMaintainer
from repro.storage.persist import (
    load_model,
    register_vault_namespace,
    save_model,
)
from repro.storage.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.parallel.pool import WorkerPool
    from repro.storage.persist import ModelVault

TModel = TypeVar("TModel")
T = TypeVar("T")

BSSType = WindowIndependentBSS | WindowRelativeBSS

#: Frozen set of global block ids selected into a model.
ModelKey = frozenset[int]

EMPTY_KEY: ModelKey = frozenset()

#: Vault-key namespace for §3.2.3 model spills.  Keys are
#: ``(GEMM_SPILL_NAMESPACE, instance_name, sorted_block_ids)`` so several
#: GEMMs and the session-checkpoint tenant can share one vault.
GEMM_SPILL_NAMESPACE = register_vault_namespace("gemm-spill")


@dataclass
class GEMMUpdateReport:
    """Accounting for one :meth:`GEMM.observe_run` call.

    Attributes:
        t: Identifier of the last block of the run.
        critical_invocations: ``A_M`` invocations on the response-time
            critical path (producing the new current model); 0 or 1
            for a one-block run, up to the run length otherwise.
        offline_invocations: ``A_M`` invocations that can run off-line.
        distinct_models: Number of distinct models stored after the
            update (≤ w thanks to deduplication).
        critical_seconds: Wall-clock spent on the critical path.
        offline_seconds: Wall-clock spent on off-line updates.
    """

    t: int
    critical_invocations: int = 0
    offline_invocations: int = 0
    distinct_models: int = 0
    critical_seconds: float = 0.0
    offline_seconds: float = 0.0


class GEMM(Generic[TModel, T]):  # demonlint: disable=DML008 (``_pool`` is execution wiring and never rides in a checkpoint; like the telemetry binding, it survives load_state_dict)
    """Most-recent-window model maintenance via Algorithm 3.1.

    Args:
        maintainer: The unrestricted-window incremental algorithm
            ``A_M`` instantiating GEMM.
        w: Window size in blocks.
        bss: Block selection sequence — either window-independent
            (projection operation applies) or window-relative
            (right-shift operation applies).  Defaults to selecting
            every block in the window.
        vault: Optional shared model vault for §3.2.3 spills.
        name: Instance name embedded in spill keys; give each GEMM
            sharing one vault a distinct name.
    """

    def __init__(
        self,
        maintainer: IncrementalModelMaintainer[TModel, T],
        w: int,
        bss: BSSType | None = None,
        vault: ModelVault | None = None,
        name: str = "gemm",
    ) -> None:
        if w < 1:
            raise ValueError(f"window size must be >= 1, got {w}")
        if isinstance(bss, WindowRelativeBSS) and bss.w != w:
            raise ValueError(
                f"window-relative BSS has length {bss.w} but window size is {w}"
            )
        self.maintainer = maintainer
        self.w = w
        self.bss = bss if bss is not None else WindowIndependentBSS.select_all()
        #: Optional :class:`~repro.storage.persist.ModelVault`.  When
        #: set, only the current model (and the empty model) stay in
        #: memory; the other future-window models live serialized in
        #: the vault — the paper's §3.2.3 disk-resident collection.
        self.vault = vault
        self.name = name
        #: Instrumentation spine; a session rebinds this onto its own.
        self.telemetry = Telemetry()
        self._t = 0
        # Slot k holds the model for the overlapping prefix of future
        # window f_k; slot 0 is the current model.  Slots store keys into
        # the dedup table ``_models`` (or the vault).
        self._slots: list[ModelKey] = [EMPTY_KEY] * w
        self._models: dict[ModelKey, TModel] = {EMPTY_KEY: maintainer.empty_model()}
        # Keys this GEMM has spilled to the vault.  Stale ones are
        # deleted individually (never via a vault-wide retain) so other
        # tenants of the same vault — e.g. session checkpoints — survive.
        self._spilled: set[ModelKey] = set()
        # Execution wiring, never persisted: checkpoint bytes must not
        # depend on the worker count (see bind_pool).
        self._pool: WorkerPool | None = None

    def bind_pool(self, pool: "WorkerPool | None") -> None:
        """Attach a worker pool for §3.2.3's off-line updates.

        With more than one worker, :meth:`observe_run` fans the
        off-line slots' chains out across processes (each final slot's
        chain is independent once shared ancestors are realized) and
        adopts the returned model pickles byte-for-byte.  The critical
        update always runs in-process — it is the response-time path.
        ``None`` detaches.  The pool is deliberately not part of
        :meth:`state_dict`, and :meth:`load_state_dict` keeps it bound.
        """
        self._pool = pool

    @property
    def t(self) -> int:
        """Identifier of the latest observed block."""
        return self._t

    @property
    def window_start(self) -> int:
        """Identifier of the oldest block in the current window."""
        return max(1, self._t - self.w + 1)

    @property
    def is_warmed_up(self) -> bool:
        """Whether the window has reached its full size ``w``."""
        return self._t >= self.w

    def current_model(self) -> TModel:
        """The required model on the current window w.r.t. the BSS."""
        return self._models[self._slots[0]]

    def current_selection(self) -> ModelKey:
        """Global block identifiers the current model was extracted from."""
        return self._slots[0]

    def model_for_slot(self, k: int) -> TModel:
        """The model kept for the prefix of future window ``f_k``.

        With a vault configured, non-current models are fetched from it
        (each fetch yields a private deserialized copy).
        """
        if not 0 <= k < self.w:
            raise IndexError(f"slot index {k} outside 0..{self.w - 1}")
        return self._load(self._slots[k])

    def _spill_key(self, key: ModelKey) -> tuple[str, str, tuple[int, ...]]:
        """Namespaced vault key for one spilled model (DML011 hygiene)."""
        return (GEMM_SPILL_NAMESPACE, self.name, tuple(sorted(key)))

    def _load(self, key: ModelKey) -> TModel:
        """A model by key — from memory, falling back to the vault."""
        if key in self._models:
            return self._models[key]
        if self.vault is not None and self._spill_key(key) in self.vault:
            return cast(TModel, self.vault.get(self._spill_key(key)))
        raise KeyError(f"no model stored for key {sorted(key)}")

    def distinct_model_count(self) -> int:
        """Number of distinct (deduplicated) models currently stored."""
        return len(set(self._slots))

    def _bit_for_slot(self, k: int, new_block_id: int, window_start: int) -> bool:
        """Whether the arriving block is selected into slot ``k``'s model.

        Slot ``k``'s model covers the prefix of the future window that
        starts at ``window_start + k``.  For a window-independent BSS the
        global bit of the new block applies to every slot (the
        projection operation never re-indexes bits, §3.2.1).  For a
        window-relative BSS the new block sits at position
        ``new_block_id - (window_start + k) + 1`` within that future
        window, which is exactly what the k-right-shift computes
        (§3.2.2).
        """
        if isinstance(self.bss, WindowIndependentBSS):
            return self.bss.selects(new_block_id)
        position = new_block_id - (window_start + k) + 1
        if not 1 <= position <= self.w:
            return False
        return self.bss.selects(position)

    def observe(self, block: Block[T]) -> GEMMUpdateReport:
        """Process the arrival of the next block: a one-block run."""
        return self.observe_run([block])

    def _commit(
        self,
        new_t: int,
        new_slots: list[ModelKey],
        new_models: dict[ModelKey, TModel],
    ) -> None:
        """Install a fully-materialized new slot table atomically.

        Nothing before this point mutates the slot table or clock, so a
        failed update leaves the collection on the previous snapshot
        (DML018).
        """
        self._t = new_t
        self._slots = new_slots
        live_keys = set(self._slots) | {EMPTY_KEY}
        if self.vault is None:
            self._models = {key: new_models[key] for key in live_keys}
        else:
            # §3.2.3: only the current model stays in memory; the rest
            # of the collection goes to (simulated) disk.
            memory_keys = {self._slots[0], EMPTY_KEY}
            spilled = live_keys - memory_keys
            for key in spilled:
                self.vault.put(self._spill_key(key), new_models[key])
            for key in self._spilled - spilled:
                self.vault.delete(self._spill_key(key))
            self._spilled = spilled
            self._models = {key: new_models[key] for key in memory_keys}

    def observe_run(self, blocks: "Sequence[Block[T]]") -> GEMMUpdateReport:
        """Slide the window over a run of arriving blocks (Algorithm 3.1).

        The slot table is planned slide by slide across the whole run,
        recording each new key's parentage (source key + the block it
        was extended with); then only the final table's models are
        realized, each by replaying its ``build``/``add_block`` chain.
        A key's chain is a pure function of the BSS and the block ids,
        so the final collection is byte-identical however the stream
        was cut into runs.  What a longer run saves is the **retired
        intermediates**: models for windows that slide entirely past
        within the run are planned but never realized — the deferred-
        maintenance savings.  A one-block run realizes every slot.

        The critical phase registers every block of the run with the
        maintainer's storage context, in arrival order, then realizes
        the new current model's chain; the remaining final slots'
        chains are off-line work and fan out across the bound worker
        pool when one is attached.  Registering every block — even one
        no final model selects — is what lets the expiry path re-encode
        its TID-lists and keeps its data reachable in the backends'
        weak indices.

        Returns a :class:`GEMMUpdateReport`; the new current model is
        available via :meth:`current_model` immediately afterwards.
        """
        if not blocks:
            return GEMMUpdateReport(
                t=self._t, distinct_models=self.distinct_model_count()
            )
        parents: dict[ModelKey, tuple[ModelKey, Block[T]]] = {}
        slots = list(self._slots)
        t = self._t
        for block in blocks:
            expected = t + 1
            if block.block_id != expected:
                raise ValueError(
                    f"systematic evolution requires block id {expected}, "
                    f"got {block.block_id}"
                )
            sliding = t >= self.w  # window slides only once it is full
            # Position arithmetic uses the window start of the *new*
            # snapshot (the windows the slots describe after this step).
            new_window_start = max(1, block.block_id - self.w + 1)
            new_slots = []
            for k in range(self.w):
                if sliding:
                    # New slot k descends from old slot k+1; the last
                    # slot is the fresh model covering only the block.
                    source = slots[k + 1] if k + 1 < self.w else EMPTY_KEY
                else:
                    # Warm-up: the window grows instead of sliding, so
                    # slots keep their index and are extended in place.
                    source = slots[k]
                covers = new_window_start + k <= block.block_id
                extend = covers and self._bit_for_slot(
                    k, block.block_id, new_window_start
                )
                new_key = source | {block.block_id} if extend else source
                if extend and new_key not in parents:
                    parents[new_key] = (source, block)
                new_slots.append(new_key)
            slots = new_slots
            t = block.block_id

        report = GEMMUpdateReport(t=t)
        # Chain materialization memo; ancestors realized for one final
        # slot are shared (cloned at use) by every chain through them.
        realized: dict[ModelKey, TModel] = {}

        with self.telemetry.phase("gemm.critical") as critical_span:
            # After the whole run validated: a rejected id mutates
            # nothing (DML018).
            for block in blocks:
                self.maintainer.register_block(block)
            report.critical_invocations = self._materialize_chain(
                slots[0], parents, realized
            )
        report.critical_seconds = critical_span.seconds
        self.telemetry.increment(
            "gemm.invocations.critical", report.critical_invocations
        )

        with self.telemetry.phase("gemm.offline") as offline_span:
            if self._pool is not None and self._pool.workers > 1:
                report.offline_invocations = self._offline_chains_parallel(
                    slots, parents, realized
                )
            else:
                for key in slots[1:]:
                    report.offline_invocations += self._materialize_chain(
                        key, parents, realized
                    )
        report.offline_seconds = offline_span.seconds
        self.telemetry.increment(
            "gemm.invocations.offline", report.offline_invocations
        )

        new_models: dict[ModelKey, TModel] = {
            EMPTY_KEY: self._models[EMPTY_KEY]
        }
        for key in slots:
            if key not in new_models:
                # Carried-over keys (no chain) share the existing model
                # object, or revive a private copy from the vault.
                new_models[key] = (
                    realized[key] if key in realized else self._load(key)
                )
        self._commit(t, slots, new_models)
        report.distinct_models = self.distinct_model_count()
        return report

    def _unrealized_chain(
        self,
        key: ModelKey,
        parents: dict[ModelKey, tuple[ModelKey, Block[T]]],
        realized: Container[ModelKey],
    ) -> list[ModelKey]:
        """``key``'s not-yet-realized ancestry, deepest ancestor first.

        Keys in ``parents`` were created during the run being replayed
        (they contain new block ids), so the walk roots at a realized
        ancestor, a pre-existing model, or — via a build plan — EMPTY.
        """
        chain: list[ModelKey] = []
        while key in parents and key not in realized:
            chain.append(key)
            key = parents[key][0]
        chain.reverse()
        return chain

    def _materialize_chain(
        self,
        key: ModelKey,
        parents: dict[ModelKey, tuple[ModelKey, Block[T]]],
        realized: dict[ModelKey, TModel],
    ) -> int:
        """Realize ``key`` by replaying its chain; returns invocations."""
        invocations = 0
        for step in self._unrealized_chain(key, parents, realized):
            source_key, block = parents[step]
            if source_key == EMPTY_KEY:
                realized[step] = self.maintainer.build([block])
            else:
                if source_key in realized:
                    source = realized[source_key]
                else:
                    source = self._load(source_key)
                if source_key in realized or source_key in self._models:
                    # In-memory models may feed several chains (and may
                    # themselves be final slots): clone before the
                    # possibly-mutating update.  Vault fetches are
                    # already private copies.
                    source = self.maintainer.clone(source)
                realized[step] = self.maintainer.add_block(source, block)
            invocations += 1
        return invocations

    # ------------------------------------------------------------------
    # Parallel off-line updates (repro.parallel)
    # ------------------------------------------------------------------

    def _worker_token(self) -> tuple[str, Any] | None:
        """How to reconstruct ``A_M`` inside a worker, if at all.

        Maintainers exposing ``worker_payload()`` ship a small spec
        (workers rebuild and cache a replica, registering history
        blocks zero-copy from their refs); anything else ships its full
        pickle.  ``None`` — e.g. an unpicklable test double — keeps the
        run serial.
        """
        payload_fn = getattr(self.maintainer, "worker_payload", None)
        if callable(payload_fn):
            spec = payload_fn()
            if spec is not None:
                return ("spec", spec)
        try:
            return ("blob", save_model(self.maintainer))
        except Exception:
            return None

    def _history_refs(self, source_key: ModelKey) -> "list[Any] | None":
        """Zero-copy refs for a source model's selected blocks."""
        refs_fn = getattr(self.maintainer, "worker_block_refs", None)
        if not callable(refs_fn):
            return None
        return cast("list[Any] | None", refs_fn(sorted(source_key)))

    def _offline_chains_parallel(
        self,
        slots: list[ModelKey],
        parents: dict[ModelKey, tuple[ModelKey, Block[T]]],
        realized: dict[ModelKey, TModel],
    ) -> int:
        """Fan the off-line final chains out to the worker pool.

        Each worker task replays one final slot's whole chain (source
        model pickle + the block refs to add, in order) and returns the
        final model's pickle, adopted verbatim, so the collection is
        byte-identical to the serial loop's.

        Parent-side state the serial loop would have touched is
        mirrored exactly.  A block's first ``A_M`` call registers it
        with that call's model (for ECUT+, the model whose frequent
        pairs are materialized for the block), so every off-line step
        up to the last one that is the first call on its block runs
        in-process, in serial order; with a window-independent BSS the
        critical chain already made every first call and nothing runs
        here.  Ancestors shared by more than one outstanding chain are
        also realized in-process, so no ``A_M`` invocation runs twice.
        Each task's changed diagnostics entries are re-recorded in slot
        order.  Returns the off-line ``A_M`` invocation count (equal to
        the serial loop's by construction).
        """
        from repro.parallel.shards import block_ref, maintain_chain_shard

        pool = self._pool
        assert pool is not None
        token = self._worker_token()
        invocations = 0
        if token is None:
            for key in slots[1:]:
                invocations += self._materialize_chain(key, parents, realized)
            return invocations
        # The serial loop's off-line steps, in the order it runs them.
        order: dict[ModelKey, None] = {}
        for key in slots[1:]:
            order.update(
                dict.fromkeys(
                    self._unrealized_chain(key, parents, realized.keys() | order)
                )
            )
        used = {parents[step][1].block_id for step in realized}
        first_calls = 0
        for index, step in enumerate(order, start=1):
            block_id = parents[step][1].block_id
            if block_id not in used:
                used.add(block_id)
                first_calls = index
        for step in list(order)[:first_calls]:
            invocations += self._materialize_chain(step, parents, realized)
        queued = [
            key
            for key in dict.fromkeys(slots[1:])
            if key in parents and key not in realized
        ]
        # Ancestors appearing in more than one chain — including a
        # queued final sitting on another final's chain — are realized
        # in-process so workers never duplicate an invocation.
        uses: dict[ModelKey, int] = {}
        for key in queued:
            for step in self._unrealized_chain(key, parents, realized):
                uses[step] = uses.get(step, 0) + 1
        shared = [
            step
            for step, count in sorted(uses.items(), key=lambda item: len(item[0]))
            if count > 1
        ]
        for step in shared:
            invocations += self._materialize_chain(step, parents, realized)
        payloads = []
        shipped: list[tuple[ModelKey, int]] = []
        for key in queued:
            chain = self._unrealized_chain(key, parents, realized)
            if not chain:
                continue
            root_source = parents[chain[0]][0]
            history: tuple[Any, ...] = ()
            if token[0] == "spec":
                refs = self._history_refs(root_source)
                if refs is None:
                    # Source blocks unavailable (e.g. right after a
                    # restore): this chain cannot feed a replica.
                    invocations += self._materialize_chain(key, parents, realized)
                    continue
                history = tuple(refs)
            if root_source == EMPTY_KEY:
                source_blob = None
            elif root_source in realized:
                source_blob = save_model(realized[root_source])
            else:
                source_blob = save_model(self._load(root_source))
            new_refs = tuple(block_ref(parents[step][1]) for step in chain)
            payloads.append((token, source_blob, new_refs, history))
            shipped.append((key, len(chain)))
        if not payloads:
            return invocations
        results = pool.run(maintain_chain_shard, payloads)
        diagnostics = getattr(self.maintainer, "diagnostics", None)
        for (key, chain_len), (blob, diag_entries) in zip(shipped, results):
            realized[key] = cast("TModel", load_model(blob))
            invocations += chain_len
            if diagnostics is not None:
                for channel, entry in diag_entries.items():
                    diagnostics.record(channel, entry)
        return invocations

    # ------------------------------------------------------------------
    # Checkpointing (the session layer's engine contract)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Serializable snapshot of the whole collection of models.

        Every distinct model (including the empty model and any
        vault-resident ones) is serialized, so a session checkpoint is
        self-contained even when the vault it is written to is the same
        one this GEMM spills into.
        """
        keys = set(self._slots) | {EMPTY_KEY}
        return {
            "t": self._t,
            "slots": [sorted(key) for key in self._slots],
            "models": {
                tuple(sorted(key)): save_model(self._load(key)) for key in keys
            },
            # Which keys were vault-resident at snapshot time, so restore
            # re-establishes the same in-memory/disk split (DML008: every
            # piece of run state round-trips explicitly).
            "spilled": sorted(sorted(key) for key in self._spilled),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore the slot table and models saved by :meth:`state_dict`.

        With a vault configured, the §3.2.3 in-memory/disk split is
        re-established: only the current and empty models stay live,
        the rest are re-spilled.
        """
        self._t = cast(int, state["t"])
        self._slots = [frozenset(ids) for ids in cast("list[list[int]]", state["slots"])]
        blobs = cast("dict[tuple[int, ...], bytes]", state["models"])
        revived: dict[ModelKey, TModel] = {
            frozenset(ids): cast("TModel", load_model(blob))
            for ids, blob in blobs.items()
        }
        if self.vault is None:
            self._models = revived
            self._spilled = set()
            return
        memory_keys = {self._slots[0], EMPTY_KEY}
        self._models = {key: revived[key] for key in memory_keys}
        # Re-derive rather than trust ``state["spilled"]``: a checkpoint
        # taken without a vault still restores correctly into a vaulted
        # GEMM (for vaulted snapshots the two sets provably coincide).
        spilled = set(revived) - memory_keys
        for key in spilled:
            self.vault.put(self._spill_key(key), revived[key])
        self._spilled = spilled
