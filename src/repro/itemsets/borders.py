"""The BORDERS incremental frequent-itemset maintainer (§3.1.1).

BORDERS (Feldman et al. 1997; Thomas et al. 1997) keeps the set of
frequent itemsets ``L`` *and* the negative border ``NB⁻`` with exact
counts.  When a block arrives it runs two phases:

* **Detection** — count every tracked itemset over just the new block
  on that block's item TID-lists, which its one scan at registration
  built, then check which border itemsets crossed the threshold (and
  which frequent itemsets fell below it).  If no border itemset became
  frequent, the model is already correct.
* **Update** — promote the newly frequent border itemsets into ``L``,
  generate fresh candidates by the prefix join, and count them over the
  *entire* selected history; iterate until no new itemset is frequent.

The update phase's counting step is pluggable — PT-Scan (full scan, as
in the original BORDERS), ECUT, or ECUT+ — which is precisely the
comparison in the paper's Figures 2 and 4–7.  Detection and the Apriori
levels of :meth:`BordersMaintainer.build` always count with ECUT's
engine, as per-block supports are additive.

The maintainer implements :class:`DeletableModelMaintainer`, so it both
instantiates GEMM and supports the direct add+delete alternative
``A^u_M`` of §3.2.4.  It also implements the threshold-change protocol
of §3.1.1 (trivial filtering for ``κ' > κ``; BORDERS-with-ECUT
expansion for ``κ' < κ``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.contracts import maintainer_contract, pure_unless_cloned
from repro.core.blocks import Block
from repro.core.maintainer import DeletableModelMaintainer
from repro.itemsets.counting import (
    ECUTCounter,
    ECUTPlusCounter,
    PTScanCounter,
    SupportCounter,
)
from repro.itemsets.itemset import Transaction
from repro.itemsets.materialize import PairTidListStore
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.rows import (
    isin_rows,
    item_matrix,
    join_rows,
    pad_stack,
    subsets_in,
)
from repro.itemsets.tidlist import TidListStore
from repro.storage.blockstore import BlockStore, transaction_nbytes
from repro.storage.iostats import IOStatsRegistry
from repro.storage.telemetry import DiagnosticsLog, Telemetry


@dataclass
class MaintenanceStats:
    """Per-phase accounting for one maintenance step (figs. 4–7).

    Attributes:
        detection_seconds: Time to scan the new block and re-threshold.
        update_seconds: Time spent counting and promoting candidates.
        candidates_counted: ``|S|`` — new candidates counted over the
            full selected history during the update phase.
        promotions: Border itemsets that became frequent.
        demotions: Frequent itemsets that fell below the threshold.
        update_rounds: Iterations of the candidate-generation loop.
    """

    detection_seconds: float = 0.0
    update_seconds: float = 0.0
    candidates_counted: int = 0
    promotions: int = 0
    demotions: int = 0
    update_rounds: int = 0

    @property
    def total_seconds(self) -> float:
        return self.detection_seconds + self.update_seconds


@dataclass
class ItemsetMiningContext:
    """Shared storage backing one evolving transactional database.

    GEMM maintains many models over overlapping block subsets; they all
    share one context so each block's data and TID-lists are stored and
    built exactly once (the paper's per-block TID-list partitioning).
    """

    registry: IOStatsRegistry = field(default_factory=IOStatsRegistry)
    block_store: BlockStore[Transaction] = None  # type: ignore[assignment]
    tidlists: TidListStore = None  # type: ignore[assignment]
    pairs: PairTidListStore = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.block_store is None:
            self.block_store = BlockStore(
                sizer=transaction_nbytes, registry=self.registry
            )
        if self.tidlists is None:
            self.tidlists = TidListStore(registry=self.registry)
        if self.pairs is None:
            self.pairs = PairTidListStore(registry=self.registry)


def make_counter(kind: str, context: ItemsetMiningContext) -> SupportCounter:
    """Build one of the three update-phase counters by name."""
    normalized = kind.lower().replace("-", "").replace("_", "")
    if normalized in ("ptscan", "scan"):
        return PTScanCounter(context.block_store)
    if normalized == "ecut":
        return ECUTCounter(context.tidlists)
    if normalized in ("ecutplus", "ecut+"):
        return ECUTPlusCounter(context.tidlists, context.pairs)
    raise ValueError(f"unknown counter kind {kind!r}; use ptscan, ecut, or ecut+")


@maintainer_contract
class BordersMaintainer(
    DeletableModelMaintainer[FrequentItemsetModel, Transaction]
):
    """BORDERS with a pluggable update-phase support counter.

    Args:
        minsup: Minimum support threshold ``κ``.
        context: Shared storage; a private one is created if omitted.
        counter: Counter kind (``"ptscan"``, ``"ecut"``, ``"ecut+"``) or
            a ready :class:`SupportCounter` instance.
        pair_budget_bytes: ECUT+ per-block space budget ``M_i`` for
            materialized 2-itemset TID-lists (``None`` = unbounded).
    """

    def __init__(
        self,
        minsup: float,
        context: ItemsetMiningContext | None = None,
        counter: str | SupportCounter = "ecut",
        pair_budget_bytes: int | None = None,
    ):
        if not 0 < minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {minsup}")
        self.minsup = minsup
        self.context = context if context is not None else ItemsetMiningContext()
        if isinstance(counter, SupportCounter):
            self.counter = counter
        else:
            self.counter = make_counter(counter, self.context)
        self.pair_budget_bytes = pair_budget_bytes
        #: Observability side channel (DML012: pure methods report
        #: their costs here instead of storing run state on ``self``).
        self.diagnostics = DiagnosticsLog()
        #: Instrumentation spine; a session rebinds this onto its own.
        self.telemetry = Telemetry()

    @property
    def last_stats(self) -> MaintenanceStats:
        """Stats of the most recent maintenance operation."""
        return self.diagnostics.latest("borders.maintenance", MaintenanceStats())

    # ------------------------------------------------------------------
    # Block registration (storage + per-block TID-lists, built once)
    # ------------------------------------------------------------------

    def register_block(
        self, block: Block[Transaction], model: FrequentItemsetModel | None = None
    ) -> None:
        """Store a block and build its TID-lists, idempotently.

        When the counter is ECUT+ and a model is supplied, the frequent
        2-itemsets of that model are materialized for the block under
        the configured space budget (§3.1.1's heuristic).
        """
        if block.block_id not in self.context.block_store:
            self.context.block_store.append_block(block)
        if not self.context.tidlists.has_block(block.block_id):
            self.context.tidlists.materialize_block(block)
        if (
            isinstance(self.counter, ECUTPlusCounter)
            and model is not None
            and not self.context.pairs.has_block(block.block_id)
        ):
            self.materialize_pairs_for_block(block, model)

    def release_block(self, block_id: int) -> None:
        """Drop an expired block's item TID-lists and ECUT+ pair lists.

        The block's records stay in the block store, where a retained
        snapshot can still read them.
        """
        self.context.tidlists.compress_block(block_id)
        self.context.pairs.drop_block(block_id)

    def materialize_pairs_for_block(
        self, block: Block[Transaction], model: FrequentItemsetModel
    ) -> list[tuple[int, int]]:
        """Materialize the model's frequent 2-itemsets for one block."""
        pairs = [p for p in model.frequent_of_size(2)]
        base = self.context.tidlists.base_tid(block.block_id)
        return self.context.pairs.materialize_block(
            block,
            pairs,
            overall_supports=model.frequent,
            budget_bytes=self.pair_budget_bytes,
            base_tid=base,
        )

    # ------------------------------------------------------------------
    # Worker-pool sharding support (repro.parallel)
    # ------------------------------------------------------------------

    def worker_payload(self) -> dict[str, Any] | None:
        """A small spec from which a worker can rebuild this maintainer.

        Only the stock counters are describable by name; a custom
        :class:`SupportCounter` instance (or subclass) may carry state a
        spec cannot reproduce, so ``None`` tells the pool integration to
        fall back to shipping the whole pickled maintainer.
        """
        kinds = {ECUTCounter: "ecut", ECUTPlusCounter: "ecut+", PTScanCounter: "ptscan"}
        kind = kinds.get(type(self.counter))
        if kind is None:
            return None
        return {
            "maintainer": "borders",
            "minsup": self.minsup,
            "counter": kind,
            "pair_budget_bytes": self.pair_budget_bytes,
        }

    def worker_block_refs(self, block_ids: Sequence[int]) -> list[Any] | None:
        """Zero-copy refs for the given history blocks, if available.

        ``None`` when any block's source handle is gone (checkpoint
        restore rebuilds TID-lists but not handles), which sends the
        caller down the serial path.
        """
        from repro.parallel.shards import block_ref

        refs: list[Any] = []
        for block_id in block_ids:
            block = self.context.tidlists.source_block(block_id)
            if block is None:
                return None
            refs.append(block_ref(block))
        return refs

    # ------------------------------------------------------------------
    # IncrementalModelMaintainer interface
    # ------------------------------------------------------------------

    def empty_model(self) -> FrequentItemsetModel:
        return FrequentItemsetModel(minsup=self.minsup)

    def build(self, blocks) -> FrequentItemsetModel:
        """``A_M(D, φ)``: Apriori over the blocks' TID-list catalogs and lists.

        The frequent items seed the update phase's expansion, whose
        rounds are Apriori's levels, counted with ECUT's engine.
        """
        block_list = list(blocks)
        if not block_list:
            return self.empty_model()
        for block in block_list:
            self.register_block(block)
        block_ids = [b.block_id for b in block_list]
        tidlists = self.context.tidlists
        item_counts: Counter[int] = Counter()
        for block_id in block_ids:
            item_counts.update(tidlists.item_counts(block_id))
        model = FrequentItemsetModel(
            minsup=self.minsup,
            n_transactions=sum(tidlists.block_size(b) for b in block_ids),
            selected_block_ids=sorted(block_ids),
        )
        engine = ECUTCounter(tidlists)
        self._expand(
            model,
            self._add_items(model, item_counts),
            lambda candidates: engine.count_rows(candidates, block_ids),
            MaintenanceStats(),
        )
        if isinstance(self.counter, ECUTPlusCounter):
            for block in block_list:
                if not self.context.pairs.has_block(block.block_id):
                    self.materialize_pairs_for_block(block, model)
        return model

    @pure_unless_cloned
    def add_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """``A_M(m, D_j)``: detection + update phases for an added block."""
        self.register_block(block, model=model)
        stats = MaintenanceStats()
        span = self.telemetry.phase("borders.detection").start()
        self._detect(model, block.block_id, 1)
        model.n_transactions += len(block)
        model.selected_block_ids.append(block.block_id)
        model.selected_block_ids.sort()

        seeds = self._add_items(
            model, self.context.tidlists.item_counts(block.block_id)
        )
        stats.detection_seconds = span.stop()
        self._rebalance(model, stats, seeds)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    @pure_unless_cloned
    def delete_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """Reverse a previously added block (§3.2.4).

        The block's TID-lists decrement the tracked counts; the same
        detection/update machinery then restores the L/NB⁻ invariants
        (deletions can both demote and promote itemsets, because the
        denominator shrinks too).
        """
        if block.block_id not in model.selected_block_ids:
            raise ValueError(
                f"block {block.block_id} is not part of this model's selection"
            )
        stats = MaintenanceStats()
        span = self.telemetry.phase("borders.detection").start()
        self._detect(model, block.block_id, -1)
        model.n_transactions -= len(block)
        model.selected_block_ids.remove(block.block_id)
        stats.detection_seconds = span.stop()
        self._rebalance(model, stats)

        # Drop items that vanished entirely from the selection, once
        # demotion has moved the formerly frequent ones to the border.
        if 1 in model.levels:
            rows, counts, frequent = model.levels[1]
            gone = ~frequent & (counts <= 0)
            model.items.difference_update(rows[gone, 0].tolist())
            model.set_level(1, rows[~gone], counts[~gone], frequent[~gone])
        self.diagnostics.record("borders.maintenance", stats)
        return model

    def clone(self, model: FrequentItemsetModel) -> FrequentItemsetModel:
        return model.copy()

    # ------------------------------------------------------------------
    # Threshold changes (§3.1.1)
    # ------------------------------------------------------------------

    def lower_threshold(
        self, model: FrequentItemsetModel, new_minsup: float
    ) -> FrequentItemsetModel:
        """Re-derive the model at ``κ' < κ`` using the update machinery.

        Border counts are exact, so lowering the threshold promotes the
        border itemsets that now qualify and expands outward with the
        configured counter — "BORDERS augmented with ECUT/ECUT+".
        """
        if new_minsup >= model.minsup:
            raise ValueError(
                "lower_threshold requires the new threshold to be smaller; "
                "use FrequentItemsetModel.raise_threshold instead"
            )
        if not 0 < new_minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {new_minsup}")
        model.minsup = new_minsup
        stats = MaintenanceStats()
        self._rebalance(model, stats)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    # ------------------------------------------------------------------
    # Shared detect/demote/promote/expand machinery
    # ------------------------------------------------------------------

    def _add_items(
        self, model: FrequentItemsetModel, item_counts: dict[int, int]
    ) -> dict[int, np.ndarray]:
        """Track the items new to the model; return the frequent ones.

        An item never seen in a selected block before has count zero
        over the prior selected blocks, so its count here is its global
        count.  Newly *frequent* items seed the update phase's candidate
        generation (they never sat in the border).
        """
        fresh = {i: c for i, c in item_counts.items() if i not in model.items}
        model.items.update(fresh)
        rows = item_matrix(fresh, 1)
        counts = np.fromiter(fresh.values(), dtype=np.int64, count=len(fresh))
        frequent = counts >= model.min_count
        model.add_rows(1, rows, counts, frequent)
        return {1: rows[frequent]}

    def _detect(self, model: FrequentItemsetModel, block_id: int, sign: int) -> None:
        """Shift every tracked count by ``sign`` times its support in
        one block: one engine call over all the levels' rows."""
        levels = sorted(model.levels.items())
        counts = ECUTCounter(self.context.tidlists).count_rows(
            pad_stack([level.rows for _, level in levels]), [block_id]
        )
        bounds = np.cumsum([len(level.rows) for _, level in levels])
        for (k, level), shift in zip(levels, np.split(counts, bounds)):
            model.set_level(k, level.rows, level.counts + sign * shift, level.frequent)

    def _rebalance(
        self,
        model: FrequentItemsetModel,
        stats: MaintenanceStats,
        seeds: dict[int, np.ndarray] | None = None,
    ) -> None:
        """Restore the L/NB⁻ invariants after counts or κ changed.

        ``seeds`` are rows, by size, the caller already placed in ``L``
        that were not border members (newly observed frequent items);
        they join candidate generation like border promotions do.
        """
        span = self.telemetry.phase("borders.update").start()
        stats.demotions += model.demote()

        def count(candidates: np.ndarray) -> np.ndarray:
            phase = "counting." + self.counter.name.lower().replace("-", "")
            with self.telemetry.phase(phase):
                return self.counter.count_rows(candidates, model.selected_block_ids)

        self._expand(model, seeds or {}, count, stats)
        stats.update_seconds = span.stop()
        self.telemetry.increment("borders.promotions", stats.promotions)
        self.telemetry.increment("borders.demotions", stats.demotions)
        self.telemetry.increment(
            "borders.candidates_counted", stats.candidates_counted
        )

    def _expand(
        self,
        model: FrequentItemsetModel,
        newly: dict[int, np.ndarray],
        count: Callable[[np.ndarray], np.ndarray],
        stats: MaintenanceStats,
    ) -> None:
        """Promote border itemsets that crossed the threshold, then grow
        ``L`` to closure.

        ``newly`` holds rows already in ``L`` that join the first round's
        candidate generation.  Each round generates fresh candidates
        around everything that just became frequent, counts them with
        ``count``, and inserts them as border rows, so the next round
        promotes those that qualify.
        """
        threshold = model.min_count
        newly = {k: rows for k, rows in newly.items() if len(rows)}
        while True:
            for k, (rows, counts, frequent) in sorted(model.levels.items()):
                rise = ~frequent & (counts >= threshold)
                if rise.any():
                    stats.promotions += int(rise.sum())
                    newly[k] = np.concatenate([newly.get(k, rows[:0]), rows[rise]])
                    model.set_level(k, rows, counts, frequent | rise)
            if not newly:
                break
            stats.update_rounds += 1
            candidates = self._new_candidates(newly, model)
            if not candidates:
                break
            found = count(pad_stack(list(candidates.values())))
            stats.candidates_counted += len(found)
            bounds = np.cumsum([len(rows) for rows in candidates.values()])
            for (k, rows), counts in zip(candidates.items(), np.split(found, bounds)):
                model.add_rows(k, rows, counts, np.zeros(len(rows), dtype=bool))
            newly = {}

    def _new_candidates(
        self, newly: dict[int, np.ndarray], model: FrequentItemsetModel
    ) -> dict[int, np.ndarray]:
        """Fresh, untracked candidates with all subsets frequent, by size.

        A candidate not already tracked must have at least one immediate
        subset that *just* became frequent (otherwise it would have been
        generated before).  So the newly frequent rows are joined with
        the frequent ones (:func:`~repro.itemsets.rows.join_rows`), and
        joined rows that are tracked already, or have a subset outside
        ``L``, are dropped.
        """
        result: dict[int, np.ndarray] = {}
        for k, base in sorted(newly.items()):
            level = model.levels[k]
            frequent = level.rows[level.frequent]
            joined = join_rows(base, frequent)
            if k + 1 in model.levels:
                joined = joined[~isin_rows(joined, model.levels[k + 1].rows)]
            joined = joined[subsets_in(joined, frequent).all(axis=1)]
            if len(joined):
                result[k + 1] = joined
        return result
